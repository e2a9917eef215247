#include "graph/clique.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"
#include "telemetry/trace.h"

namespace dar {
namespace graph {

namespace {

// What one component's search produced. Cliques carry *global* vertex
// ids, each ascending; emission order is the deterministic Bron-Kerbosch
// order of that component, independent of which worker ran it.
struct ComponentOutcome {
  std::vector<std::vector<uint32_t>> cliques;
  bool cap_truncated = false;
  bool step_truncated = false;
  size_t steps = 0;
  size_t degeneracy = 0;
};

// Budget and emission bookkeeping shared by both search backends. Step()
// and Emit() return false when the search must stop (budget exhausted or
// clique cap reached); the backends abort the whole component then —
// per-component accounting, with the global cap re-applied at merge time.
class SearchSink {
 public:
  SearchSink(const std::vector<uint32_t>& members, size_t max_cliques,
             size_t max_steps, ComponentOutcome* oc)
      : members_(members),
        max_cliques_(max_cliques),
        max_steps_(max_steps),
        oc_(oc) {}

  // One Bron-Kerbosch expansion (frame entry). Mirrors the per-call step
  // count of the old recursive enumerator.
  [[nodiscard]] bool Step() {
    ++oc_->steps;
    if (max_steps_ != 0 && oc_->steps > max_steps_) {
      oc_->step_truncated = true;
      return false;
    }
    return true;
  }

  // `r_local` holds local ids in descent order; translate and store
  // ascending. The cap check runs *before* the push, so a capped
  // component holds exactly max_cliques_ cliques and the flag records
  // the attempt at one more.
  [[nodiscard]] bool Emit(const std::vector<uint32_t>& r_local) {
    if (max_cliques_ != 0 && oc_->cliques.size() >= max_cliques_) {
      oc_->cap_truncated = true;
      return false;
    }
    std::vector<uint32_t> clique;
    clique.reserve(r_local.size());
    for (uint32_t v : r_local) clique.push_back(members_[v]);
    std::sort(clique.begin(), clique.end());
    oc_->cliques.push_back(std::move(clique));
    return true;
  }

 private:
  const std::vector<uint32_t>& members_;  // local id -> global id
  size_t max_cliques_;
  size_t max_steps_;
  ComponentOutcome* oc_;
};

size_t IntersectionSize(std::span<const uint32_t> a,
                        const std::vector<uint32_t>& b) {
  size_t count = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// --- Sparse backend: P/X/candidates as sorted id vectors. ---------------
//
// Iterative Bron-Kerbosch with pivoting. The recursion of the textbook
// algorithm is replaced by an explicit Frame stack on the heap: each
// frame snapshots its candidate list (P \ N(pivot)) at creation, walks it
// left to right, and `awaiting` marks that the frame's current candidate
// has a child in flight — when control returns, the candidate migrates
// from P to X exactly as the recursive version did after its callee
// returned. Depth is bounded by the component's degeneracy + 1, but even
// adversarial graphs only grow a heap vector, never the thread stack.
class VectorCliqueSearch {
 public:
  VectorCliqueSearch(const Graph& local, const Degeneracy& degen,
                     SearchSink* sink)
      : local_(local), degen_(degen), sink_(sink) {}

  // Degeneracy-ordered outer loop: root v takes its later-ordered
  // neighbors as P and earlier-ordered ones as X, so every maximal clique
  // is reported exactly once (at its earliest vertex in the order) and
  // every subproblem starts with |P| <= degeneracy.
  void Run() {
    for (uint32_t v : degen_.order) {
      std::vector<uint32_t> p, x;
      for (uint32_t w : local_.Neighbors(v)) {
        (degen_.rank[w] > degen_.rank[v] ? p : x).push_back(w);
      }
      r_.assign(1, v);
      if (!RunRoot(std::move(p), std::move(x))) return;
    }
  }

 private:
  struct Frame {
    std::vector<uint32_t> p, x;     // sorted ascending
    std::vector<uint32_t> cand;     // P \ N(pivot), snapshot at entry
    size_t next = 0;                // index of the current candidate
    bool awaiting = false;          // current candidate's child in flight
  };

  [[nodiscard]] bool RunRoot(std::vector<uint32_t> p,
                             std::vector<uint32_t> x) {
    if (!sink_->Step()) return false;
    if (p.empty() && x.empty()) return sink_->Emit(r_);
    std::vector<Frame> stack;
    stack.push_back(MakeFrame(std::move(p), std::move(x)));
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.awaiting) RetireCandidate(f);
      if (f.next >= f.cand.size()) {
        stack.pop_back();
        continue;
      }
      uint32_t v = f.cand[f.next];
      std::vector<uint32_t> p2 = Intersect(f.p, v);
      std::vector<uint32_t> x2 = Intersect(f.x, v);
      if (!sink_->Step()) return false;
      r_.push_back(v);
      f.awaiting = true;
      if (p2.empty() && x2.empty()) {
        if (!sink_->Emit(r_)) return false;
        continue;  // loop top retires v immediately
      }
      stack.push_back(MakeFrame(std::move(p2), std::move(x2)));
    }
    return true;
  }

  // The child of f's current candidate finished: drop it from R and move
  // it from P to X.
  void RetireCandidate(Frame& f) {
    uint32_t v = f.cand[f.next];
    r_.pop_back();
    f.p.erase(std::lower_bound(f.p.begin(), f.p.end(), v));
    f.x.insert(std::lower_bound(f.x.begin(), f.x.end(), v), v);
    ++f.next;
    f.awaiting = false;
  }

  Frame MakeFrame(std::vector<uint32_t> p, std::vector<uint32_t> x) {
    Frame f;
    f.p = std::move(p);
    f.x = std::move(x);
    // Pivot: vertex of P u X with the most neighbors inside P (scanned P
    // then X, strictly-greater wins — fixed order, so the choice is a
    // pure function of the sets).
    uint32_t pivot = 0;
    size_t best = 0;
    bool have_pivot = false;
    for (const std::vector<uint32_t>* set : {&f.p, &f.x}) {
      for (uint32_t u : *set) {
        size_t deg = IntersectionSize(local_.Neighbors(u), f.p);
        if (!have_pivot || deg > best) {
          best = deg;
          pivot = u;
          have_pivot = true;
        }
      }
    }
    auto nbrs = local_.Neighbors(pivot);
    std::set_difference(f.p.begin(), f.p.end(), nbrs.begin(), nbrs.end(),
                        std::back_inserter(f.cand));
    return f;
  }

  std::vector<uint32_t> Intersect(const std::vector<uint32_t>& set,
                                  uint32_t v) const {
    auto nbrs = local_.Neighbors(v);
    std::vector<uint32_t> out;
    std::set_intersection(set.begin(), set.end(), nbrs.begin(), nbrs.end(),
                          std::back_inserter(out));
    return out;
  }

  const Graph& local_;
  const Degeneracy& degen_;
  SearchSink* sink_;
  std::vector<uint32_t> r_;  // current clique, local ids, descent order
};

// --- Dense backend: P/X/candidates as 64-bit-word bitsets. --------------
//
// Same frame machine as VectorCliqueSearch, but sets are bitsets over the
// component and adjacency is a k x k bit matrix, so set intersections and
// pivot scoring collapse into word-ANDs and popcounts. On a near-complete
// component the pivot scan drops from O(k^2) id comparisons per frame to
// O(k^2/64) word ops — the difference between K_1000 grinding for minutes
// and finishing instantly. Scan orders (P then X for the pivot, ascending
// bit order for candidates) match the sparse backend exactly, so both
// backends emit identical cliques in identical order.
class BitsetCliqueSearch {
 public:
  BitsetCliqueSearch(const Graph& local, const Degeneracy& degen,
                     SearchSink* sink)
      : degen_(degen),
        sink_(sink),
        n_(local.num_nodes()),
        words_((local.num_nodes() + 63) / 64),
        matrix_(words_ * local.num_nodes(), 0) {
    for (uint32_t v = 0; v < n_; ++v) {
      for (uint32_t w : local.Neighbors(v)) {
        matrix_[v * words_ + w / 64] |= uint64_t{1} << (w % 64);
      }
    }
  }

  void Run() {
    for (uint32_t v : degen_.order) {
      std::vector<uint64_t> p(words_, 0), x(words_, 0);
      const uint64_t* row = Row(v);
      for (size_t w = 0; w < words_; ++w) {
        uint64_t bits = row[w];
        while (bits != 0) {
          uint32_t u = static_cast<uint32_t>(
              w * 64 + static_cast<size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          (degen_.rank[u] > degen_.rank[v] ? p : x)[w] |= uint64_t{1}
                                                          << (u % 64);
        }
      }
      r_.assign(1, v);
      if (!RunRoot(std::move(p), std::move(x))) return;
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Frame {
    std::vector<uint64_t> p, x, cand;
    uint32_t scan_from = 0;  // next bit position to probe in cand
    uint32_t current = 0;    // candidate whose child is in flight
    bool awaiting = false;
  };

  [[nodiscard]] bool RunRoot(std::vector<uint64_t> p,
                             std::vector<uint64_t> x) {
    if (!sink_->Step()) return false;
    if (AllZero(p) && AllZero(x)) return sink_->Emit(r_);
    std::vector<Frame> stack;
    stack.push_back(MakeFrame(std::move(p), std::move(x)));
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.awaiting) {
        r_.pop_back();
        ClearBit(f.p, f.current);
        SetBit(f.x, f.current);
        f.scan_from = f.current + 1;
        f.awaiting = false;
      }
      uint32_t v = NextBit(f.cand, f.scan_from);
      if (v == kNone) {
        stack.pop_back();
        continue;
      }
      std::vector<uint64_t> p2 = And(f.p, Row(v));
      std::vector<uint64_t> x2 = And(f.x, Row(v));
      if (!sink_->Step()) return false;
      r_.push_back(v);
      f.current = v;
      f.awaiting = true;
      if (AllZero(p2) && AllZero(x2)) {
        if (!sink_->Emit(r_)) return false;
        continue;
      }
      stack.push_back(MakeFrame(std::move(p2), std::move(x2)));
    }
    return true;
  }

  Frame MakeFrame(std::vector<uint64_t> p, std::vector<uint64_t> x) {
    Frame f;
    f.p = std::move(p);
    f.x = std::move(x);
    uint32_t pivot = 0;
    size_t best = 0;
    bool have_pivot = false;
    for (const std::vector<uint64_t>* set : {&f.p, &f.x}) {
      for (uint32_t u = NextBit(*set, 0); u != kNone;
           u = NextBit(*set, u + 1)) {
        const uint64_t* row = Row(u);
        size_t deg = 0;
        for (size_t w = 0; w < words_; ++w) {
          deg += static_cast<size_t>(std::popcount(f.p[w] & row[w]));
        }
        if (!have_pivot || deg > best) {
          best = deg;
          pivot = u;
          have_pivot = true;
        }
      }
    }
    f.cand.resize(words_);
    const uint64_t* row = Row(pivot);
    for (size_t w = 0; w < words_; ++w) f.cand[w] = f.p[w] & ~row[w];
    return f;
  }

  [[nodiscard]] const uint64_t* Row(uint32_t v) const {
    return matrix_.data() + v * words_;
  }
  std::vector<uint64_t> And(const std::vector<uint64_t>& set,
                            const uint64_t* row) const {
    std::vector<uint64_t> out(words_);
    for (size_t w = 0; w < words_; ++w) out[w] = set[w] & row[w];
    return out;
  }
  static bool AllZero(const std::vector<uint64_t>& set) {
    for (uint64_t w : set) {
      if (w != 0) return false;
    }
    return true;
  }
  static void SetBit(std::vector<uint64_t>& set, uint32_t v) {
    set[v / 64] |= uint64_t{1} << (v % 64);
  }
  static void ClearBit(std::vector<uint64_t>& set, uint32_t v) {
    set[v / 64] &= ~(uint64_t{1} << (v % 64));
  }
  // Lowest set bit at position >= from, or kNone.
  uint32_t NextBit(const std::vector<uint64_t>& set, uint32_t from) const {
    if (from >= n_) return kNone;
    size_t w = from / 64;
    uint64_t bits = set[w] & (~uint64_t{0} << (from % 64));
    while (true) {
      if (bits != 0) {
        return static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
      if (++w >= words_) return kNone;
      bits = set[w];
    }
  }

  const Degeneracy& degen_;
  SearchSink* sink_;
  size_t n_;
  size_t words_;
  std::vector<uint64_t> matrix_;  // k rows of `words_` adjacency words
  std::vector<uint32_t> r_;
};

// Enumerates one connected component. `local_id` is the shared global ->
// local translation (filled by the coordinator, read-only here).
ComponentOutcome EnumerateComponent(const Graph& g,
                                    const std::vector<uint32_t>& members,
                                    const std::vector<uint32_t>& local_id,
                                    const CliqueOptions& options) {
  size_t k = members.size();
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t w : g.Neighbors(members[i])) {
      if (w > members[i]) edges.emplace_back(i, local_id[w]);
    }
  }
  // Members are ascending, so local ids preserve the global order and the
  // local graph is just the induced subgraph relabeled.
  Graph local = Graph::FromEdges(k, edges);
  Degeneracy degen = DegeneracyOrder(local);

  ComponentOutcome oc;
  oc.degeneracy = degen.degeneracy;
  SearchSink sink(members, options.max_cliques, options.max_steps, &oc);
  double density =
      k > 1 ? 2.0 * static_cast<double>(local.num_edges()) /
                  (static_cast<double>(k) * static_cast<double>(k - 1))
            : 0.0;
  // Backend choice is a pure function of the component (never of the
  // schedule), and both backends emit identical cliques anyway.
  if (k > 2 && k <= options.max_bitset_nodes &&
      density >= options.dense_cutoff) {
    BitsetCliqueSearch(local, degen, &sink).Run();
  } else {
    VectorCliqueSearch(local, degen, &sink).Run();
  }
  return oc;
}

}  // namespace

CliqueResult EnumerateMaximalCliques(const Graph& g,
                                     const CliqueOptions& options) {
  Components comps = ConnectedComponents(g);
  size_t num_components = comps.members.size();
  std::vector<uint32_t> local_id(g.num_nodes(), 0);
  for (const auto& members : comps.members) {
    for (uint32_t i = 0; i < members.size(); ++i) {
      local_id[members[i]] = i;
    }
  }

  // Fan components over the executor. Each slot is written by exactly one
  // worker; the merge below reads them in component order, so the result
  // never depends on the schedule.
  std::vector<ComponentOutcome> outcomes(num_components);
  telemetry::Histogram* comp_hist = options.telemetry.GetHistogram(
      "graph.component_seconds", telemetry::Histogram::LatencyBounds());
  auto run_component = [&](size_t c) -> Status {
    const telemetry::TraceSpan span(comp_hist);
    outcomes[c] =
        EnumerateComponent(g, comps.members[c], local_id, options);
    return Status::OK();
  };
  // run_component cannot fail; Status exists for the ParallelFor shape.
  (void)ResolveExecutor(options.executor)
      .ParallelFor(num_components, run_component);

  CliqueResult out;
  out.num_components = num_components;
  for (const ComponentOutcome& oc : outcomes) {
    out.steps += oc.steps;
    out.degeneracy = std::max(out.degeneracy, oc.degeneracy);
    if (oc.step_truncated) out.step_budget_truncated = true;
    if (oc.cap_truncated) out.clique_cap_truncated = true;
  }
  // Merge in component order, re-applying the global cap: the kept set is
  // the prefix of the component-ordered emission, regardless of which
  // worker finished first.
  for (ComponentOutcome& oc : outcomes) {
    for (std::vector<uint32_t>& clique : oc.cliques) {
      if (options.max_cliques != 0 &&
          out.cliques.size() >= options.max_cliques) {
        out.clique_cap_truncated = true;
        break;
      }
      out.largest_clique = std::max(out.largest_clique, clique.size());
      out.cliques.push_back(std::move(clique));
    }
  }
  std::sort(out.cliques.begin(), out.cliques.end());

  const telemetry::TelemetryContext& telem = options.telemetry;
  if (telem.enabled()) {
    telem.GetCounter("graph.components")
        ->Increment(static_cast<int64_t>(out.num_components));
    telem.GetGauge("graph.degeneracy")
        ->Set(static_cast<double>(out.degeneracy));
    telem.GetCounter("graph.expansion_steps")
        ->Increment(static_cast<int64_t>(out.steps));
    telemetry::Histogram* sizes = telem.GetHistogram(
        "graph.clique_size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
        telemetry::Unit::kCount);
    for (const auto& clique : out.cliques) {
      sizes->Record(static_cast<double>(clique.size()));
    }
  }
  return out;
}

}  // namespace graph
}  // namespace dar
