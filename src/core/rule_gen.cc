#include "core/rule_gen.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>

#include "common/logging.h"

namespace dar {

namespace {

// An antecedent candidate C_X with the largest degree D(C_Y[Y], C_X[Y])
// over the consequent clusters C_Y it has been matched against.
struct Candidate {
  size_t cx;
  double degree;
};

// One GenerateDistanceRules call. The enumeration walks the pairs, the
// consequent subsets and the antecedent subsets in the order of the
// all-pairs definition, so it emits that definition's rule sequence.
class RuleGenerator {
 public:
  RuleGenerator(const ClusterSet& clusters,
                const std::vector<std::vector<size_t>>& cliques,
                const RuleGenOptions& options, RuleGenResult& result)
      : clusters_(clusters),
        cliques_(cliques),
        options_(options),
        result_(result),
        cliques_of_(clusters.size()),
        assoc_(clusters.size()) {}

  void Run() {
    size_t max_clique = 0;
    for (size_t k = 0; k < cliques_.size(); ++k) {
      const std::vector<size_t>& q = cliques_[k];
      for (size_t i = 0; i < q.size(); ++i) {
        DAR_CHECK(q[i] < clusters_.size()) << "clique member out of range";
        DAR_CHECK(i == 0 || q[i - 1] < q[i])
            << "clique members must be distinct and ascending";
        cliques_of_[q[i]].push_back(k);
      }
      max_clique = std::max(max_clique, q.size());
    }
    BuildDegreeTable();
    if (options_.max_consequent == 0 || options_.max_antecedent == 0) return;

    y_earlier_.resize(std::min(options_.max_consequent, max_clique));
    y_candidates_.resize(y_earlier_.size());
    x_earlier_.resize(std::min(options_.max_antecedent, max_clique));
    std::vector<uint8_t> is_partner(cliques_.size());
    std::vector<size_t> partners;
    for (q2_ = 0; q2_ < cliques_.size(); ++q2_) {
      const std::vector<size_t>& q2 = cliques_[q2_];
      // Only a Q1 holding some C_X ∈ assoc(C_Y), C_Y ∈ Q2, can emit.
      partners.clear();
      for (size_t cy : q2) {
        for (const Candidate& a : assoc_[cy]) {
          for (size_t k : cliques_of_[a.cx]) {
            if (is_partner[k] == 0) {
              is_partner[k] = 1;
              partners.push_back(k);
            }
          }
        }
      }
      std::sort(partners.begin(), partners.end());
      for (size_t k : partners) is_partner[k] = 0;

      assoc_in_q1_.resize(q2.size());
      for (size_t q1 : partners) {
        q1_ = q1;
        for (size_t p = 0; p < q2.size(); ++p) {
          RestrictToQ1(assoc_[q2[p]], assoc_in_q1_[p]);
        }
        if (!VisitConsequents(0, {}, {})) return;
      }
    }
  }

 private:
  // D(C_Y[Y], C_X[Y]) for every ordered pair of clustered ids on different
  // parts, in ascending (C_Y, C_X) order; a pair within C_Y's D0 goes into
  // assoc(C_Y), which stays sorted by C_X.
  void BuildDegreeTable() {
    for (size_t cy = 0; cy < clusters_.size(); ++cy) {
      if (cliques_of_[cy].empty()) continue;
      const FoundCluster& y = clusters_.cluster(cy);
      const CfVector& y_image = y.acf.image(y.part);
      // D0 for the consequent: the per-part override when provided, else
      // the scalar threshold (degrees live on the consequent part's scale).
      const double limit = y.part < options_.degree_thresholds.size()
                               ? options_.degree_thresholds[y.part]
                               : options_.degree_threshold;
      for (size_t cx = 0; cx < clusters_.size(); ++cx) {
        if (cx == cy || cliques_of_[cx].empty()) continue;
        const FoundCluster& x = clusters_.cluster(cx);
        if (x.part == y.part) continue;
        const double d =
            ClusterDistance(y_image, x.acf.image(y.part), options_.metric);
        ++result_.degree_evaluations;
        if (d <= limit) assoc_[cy].push_back({cx, d});
      }
    }
  }

  // assoc(C_Y) ∩ Q1, still sorted by C_X.
  void RestrictToQ1(const std::vector<Candidate>& assoc,
                    std::vector<Candidate>& out) const {
    out.clear();
    auto it = assoc.begin();
    for (size_t cx : cliques_[q1_]) {
      it = std::lower_bound(
          it, assoc.end(), cx,
          [](const Candidate& a, size_t id) { return a.cx < id; });
      if (it == assoc.end()) break;
      if (it->cx == cx) out.push_back(*it);
    }
  }

  // The cliques before `limit` that contain `id`, ascending.
  std::span<const size_t> CliquesBefore(size_t id, size_t limit) const {
    const std::vector<size_t>& list = cliques_of_[id];
    return {list.data(), static_cast<size_t>(
                             std::lower_bound(list.begin(), list.end(), limit) -
                             list.begin())};
  }

  // The cliques before `limit` that contain the subset extended by `id`,
  // given those that contain the subset so far (`depth` members, whose
  // earlier cliques are `earlier`). A subset is first contained in the
  // clique at `limit` exactly when this comes back empty.
  std::span<const size_t> ExtendEarlier(size_t depth,
                                        std::span<const size_t> earlier,
                                        size_t id, size_t limit,
                                        std::vector<size_t>& scratch) const {
    std::span<const size_t> own = CliquesBefore(id, limit);
    if (depth == 0) return own;
    if (earlier.empty() || own.empty()) return {};
    scratch.clear();
    std::set_intersection(earlier.begin(), earlier.end(), own.begin(),
                          own.end(), std::back_inserter(scratch));
    return scratch;
  }

  // Visits the consequents of Q2 that extend y_ from position `start`, in
  // the lexicographic order of the all-pairs enumeration. `candidates` is
  // ∩ assoc(C_Y) ∩ Q1 over y_, which already excludes every part of y_.
  bool VisitConsequents(size_t start, std::span<const size_t> earlier,
                        std::span<const Candidate> candidates) {
    const std::vector<size_t>& q2 = cliques_[q2_];
    const size_t depth = y_.size();
    for (size_t p = start; p < q2.size(); ++p) {
      const std::vector<Candidate>& assoc = assoc_in_q1_[p];
      if (assoc.empty()) continue;
      std::span<const Candidate> next = assoc;
      if (depth > 0) {
        std::vector<Candidate>& merged = y_candidates_[depth];
        merged.clear();
        auto a = candidates.begin();
        auto b = assoc.begin();
        while (a != candidates.end() && b != assoc.end()) {
          if (a->cx < b->cx) {
            ++a;
          } else if (b->cx < a->cx) {
            ++b;
          } else {
            merged.push_back({a->cx, std::max(a->degree, b->degree)});
            ++a;
            ++b;
          }
        }
        if (merged.empty()) continue;
        next = merged;
      }
      std::span<const size_t> y_earlier =
          ExtendEarlier(depth, earlier, q2[p], q2_, y_earlier_[depth]);
      y_.push_back(q2[p]);
      // A consequent first contained in an earlier Q2 had all its rules
      // emitted there.
      if (y_earlier.empty() && !VisitAntecedents(0, {}, next, 0)) return false;
      if (y_.size() < options_.max_consequent &&
          !VisitConsequents(p + 1, y_earlier, next)) {
        return false;
      }
      y_.pop_back();
    }
    return true;
  }

  // Emits x_ ∪ {C_X} ⇒ y_ for the candidates from `start` on, where the
  // antecedent is first contained in Q1, then its extensions.
  bool VisitAntecedents(size_t start, std::span<const size_t> earlier,
                        std::span<const Candidate> candidates, double degree) {
    const size_t depth = x_.size();
    for (size_t i = start; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      std::span<const size_t> x_earlier =
          ExtendEarlier(depth, earlier, c.cx, q1_, x_earlier_[depth]);
      const double d = std::max(degree, c.degree);
      x_.push_back(c.cx);
      if (x_earlier.empty()) {
        if (result_.rules.size() >= options_.max_rules) {
          result_.truncated = true;
          return false;
        }
        DistanceRule rule;
        rule.antecedent = x_;
        rule.consequent = y_;
        rule.degree = d;
        result_.rules.push_back(std::move(rule));
      }
      if (x_.size() < options_.max_antecedent &&
          !VisitAntecedents(i + 1, x_earlier, candidates, d)) {
        return false;
      }
      x_.pop_back();
    }
    return true;
  }

  const ClusterSet& clusters_;
  const std::vector<std::vector<size_t>>& cliques_;
  const RuleGenOptions& options_;
  RuleGenResult& result_;

  // Cluster id -> indices of the cliques containing it, ascending.
  std::vector<std::vector<size_t>> cliques_of_;
  // Cluster id C_Y -> assoc(C_Y), sorted by C_X.
  std::vector<std::vector<Candidate>> assoc_;

  // The pair being enumerated and its per-depth scratch.
  size_t q2_ = 0;
  size_t q1_ = 0;
  std::vector<std::vector<Candidate>> assoc_in_q1_;  // by position in Q2
  std::vector<size_t> y_;
  std::vector<size_t> x_;
  std::vector<std::vector<size_t>> y_earlier_;
  std::vector<std::vector<Candidate>> y_candidates_;
  std::vector<std::vector<size_t>> x_earlier_;
};

}  // namespace

double DegreeOfAssociation(const ClusterSet& clusters,
                           const std::vector<size_t>& antecedent,
                           const std::vector<size_t>& consequent,
                           ClusterMetric m) {
  DAR_CHECK(!antecedent.empty());
  DAR_CHECK(!consequent.empty());
  double degree = 0;
  for (size_t cy : consequent) {
    const FoundCluster& y = clusters.cluster(cy);
    for (size_t cx : antecedent) {
      const FoundCluster& x = clusters.cluster(cx);
      double d = ClusterDistance(y.acf.image(y.part), x.acf.image(y.part), m);
      degree = std::max(degree, d);
    }
  }
  return degree;
}

RuleGenResult GenerateDistanceRules(
    const ClusterSet& clusters,
    const std::vector<std::vector<size_t>>& cliques,
    const RuleGenOptions& options) {
  RuleGenResult result;
  RuleGenerator(clusters, cliques, options, result).Run();
  return result;
}

}  // namespace dar
