#ifndef DAR_BIRCH_BUDGET_H_
#define DAR_BIRCH_BUDGET_H_

#include <cstddef>

namespace dar {

/// The bytes the ACF-tree memory budget (AcfTreeOptions::
/// memory_budget_bytes; §3, §4.3.1) charges per structure. They are the
/// budget's model, not heap sizes. Only AcfLayout::ApproxAcfBytes (one
/// leaf ACF: 4 * dim doubles per CF on top of these, plus a fixed
/// histogram estimate per discrete dimension) and AcfTree::ApproxBytesNow
/// (its nodes and internal entries, plus one ApproxAcfBytes per leaf
/// entry) count with them.
///
/// The values are the x86-64 libstdc++ sizeofs of the storage that CFs
/// had when the budget was calibrated: four heap vectors per CF. They are
/// frozen so that a tree rebuilds at exactly the same insert whatever the
/// storage, because every rebuild moves clusters, rules and benchmark
/// outputs. Changing one is an output change.
inline constexpr size_t kBudgetCfBytes = 136;        // one CfVector
inline constexpr size_t kBudgetAcfBytes = 48;        // one Acf, images aside
inline constexpr size_t kBudgetChildRefBytes = 144;  // one internal entry
inline constexpr size_t kBudgetNodeBytes = 56;       // one tree node

}  // namespace dar

#endif  // DAR_BIRCH_BUDGET_H_
