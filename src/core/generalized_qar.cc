#include "core/generalized_qar.h"

#include <sstream>

namespace dar {

std::string GeneralizedQarRule::ToString(
    const ClusterSet& clusters, const Schema& schema,
    const AttributePartition& partition) const {
  auto render = [&](const std::vector<size_t>& ids) {
    std::string out;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) out += " AND ";
      out += "[" + clusters.Describe(ids[i], schema, partition) + "]";
    }
    return out;
  };
  std::ostringstream os;
  os << render(antecedent) << " => " << render(consequent)
     << " (support=" << support << ", confidence=" << confidence << ")";
  return os.str();
}

Result<GeneralizedQarResult> GeneralizedQarMiner::Mine(
    const Relation& rel, const AttributePartition& partition) const {
  GeneralizedQarResult out;
  DAR_ASSIGN_OR_RETURN(Session session,
                       Session::Builder().WithConfig(config_).Build());
  DAR_ASSIGN_OR_RETURN(out.phase1, session.RunPhase1(rel, partition));
  const ClusterSet& clusters = out.phase1.clusters;

  // Encode each tuple as the set of nearest frequent clusters, one item per
  // part that has any frequent cluster (§4.3.2: parts without frequent
  // clusters are omitted).
  DAR_ASSIGN_OR_RETURN(const CentroidTable table,
                       CentroidTable::Make(rel, partition, clusters));
  std::vector<Itemset> transactions(rel.num_rows());
  std::vector<double> scratch;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    Itemset& t = transactions[r];
    for (size_t p = 0; p < partition.num_parts(); ++p) {
      const int64_t assigned = table.Assign(p, r, scratch);
      if (assigned >= 0) t.push_back(static_cast<Item>(assigned));
    }
    Canonicalize(t);
  }

  AprioriOptions ap;
  ap.min_support_count = out.phase1.frequency_threshold;
  ap.min_confidence = min_confidence_;
  DAR_ASSIGN_OR_RETURN(out.frequent_itemsets,
                       MineFrequentItemsets(transactions, ap));
  DAR_ASSIGN_OR_RETURN(
      std::vector<AssociationRule> rules,
      GenerateRules(out.frequent_itemsets, transactions.size(), ap));

  out.rules.reserve(rules.size());
  for (const auto& r : rules) {
    GeneralizedQarRule g;
    for (Item it : r.antecedent) g.antecedent.push_back(it);
    for (Item it : r.consequent) g.consequent.push_back(it);
    g.support_count = r.support_count;
    g.support = r.support;
    g.confidence = r.confidence;
    out.rules.push_back(std::move(g));
  }
  return out;
}

}  // namespace dar
