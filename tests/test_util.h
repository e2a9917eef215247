#ifndef DAR_TESTS_TEST_UTIL_H_
#define DAR_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "birch/acf.h"
#include "common/random.h"
#include "core/model.h"
#include "relation/metric.h"

namespace dar {
namespace testutil {

/// A scratch file path under testing::TempDir() that no other test
/// process can collide on: `name` is prefixed with the running test's
/// suite and name (just the suite inside SetUpTestSuite) and the process
/// id. gtest_discover_tests runs every TEST as its own process, so under
/// `ctest -j` fixed file names shared by two tests — or by two processes
/// of one suite running its SetUpTestSuite — would collide.
inline std::string TempPath(const std::string& name) {
  const testing::UnitTest& unit = *testing::UnitTest::GetInstance();
  std::string prefix;
  if (const testing::TestInfo* test = unit.current_test_info()) {
    prefix = std::string(test->test_suite_name()) + "." + test->name();
  } else if (const testing::TestSuite* suite = unit.current_test_suite()) {
    prefix = suite->name();
  }
  // Parameterized tests carry '/' in their names.
  std::replace(prefix.begin(), prefix.end(), '/', '_');
  return testing::TempDir() + "/" + prefix + "." +
         std::to_string(getpid()) + "." + name;
}

/// `bytes` as lowercase hex, two digits per byte, for pinning encodings.
inline std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    out += {kDigits[byte >> 4], kDigits[byte & 0xF]};
  }
  return out;
}

/// Cluster `id` on `part` summarizing `tuples`. A tuple lists one value per
/// layout dimension, parts in layout order: (a, b, c, d) under four 1-d
/// parts, (a, b1, b2, c) under parts of dimension 1, 2 and 1.
inline FoundCluster MakeCluster(
    std::shared_ptr<const AcfLayout> layout, size_t id, size_t part,
    const std::vector<std::vector<double>>& tuples) {
  FoundCluster c;
  c.id = id;
  c.part = part;
  c.acf = Acf(layout, part);
  for (const std::vector<double>& t : tuples) {
    PartedRow row;
    size_t next = 0;
    for (const PartSpec& spec : layout->parts) {
      row.emplace_back(t.begin() + next, t.begin() + next + spec.dim);
      next += spec.dim;
    }
    c.acf.AddRow(row);
  }
  return c;
}

/// A set of points (row-major) used as brute-force reference input.
using Points = std::vector<std::vector<double>>;

inline Points RandomPoints(Rng& rng, size_t n, size_t dim, double lo = -10,
                           double hi = 10) {
  Points pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = rng.Uniform(lo, hi);
  }
  return pts;
}

/// Points with small integer coordinates (for discrete-metric tests).
inline Points RandomDiscretePoints(Rng& rng, size_t n, size_t dim,
                                   int64_t num_values = 4) {
  Points pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (auto& v : p) v = static_cast<double>(rng.UniformInt(0, num_values - 1));
  }
  return pts;
}

/// Brute-force RMS pairwise distance (the CF-computable diameter form):
/// sqrt(sum_{i != j} ||p_i - p_j||^2 / (N(N-1))).
inline double BruteDiameterRms(const Points& pts) {
  size_t n = pts.size();
  if (n < 2) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sum += SquaredEuclidean(pts[i], pts[j]);
    }
  }
  return std::sqrt(sum / (static_cast<double>(n) * (n - 1)));
}

/// Brute-force average pairwise mismatch count (discrete diameter, Eq. 2
/// with the 0/1 metric).
inline double BruteDiameterDiscrete(const Points& pts) {
  size_t n = pts.size();
  if (n < 2) return 0;
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      sum += PointDistance(MetricKind::kDiscrete, pts[i], pts[j]);
    }
  }
  return sum / (static_cast<double>(n) * (n - 1));
}

/// Brute-force RMS inter-set distance (the CF-computable D2 form).
inline double BruteD2Rms(const Points& a, const Points& b) {
  double sum = 0;
  for (const auto& p : a) {
    for (const auto& q : b) sum += SquaredEuclidean(p, q);
  }
  return std::sqrt(sum / (static_cast<double>(a.size()) * b.size()));
}

/// Brute-force average pairwise mismatch between two sets (discrete D2 —
/// exactly Eq. 6 under the 0/1 metric).
inline double BruteD2Discrete(const Points& a, const Points& b) {
  double sum = 0;
  for (const auto& p : a) {
    for (const auto& q : b) {
      sum += PointDistance(MetricKind::kDiscrete, p, q);
    }
  }
  return sum / (static_cast<double>(a.size()) * b.size());
}

inline std::vector<double> BruteCentroid(const Points& pts) {
  std::vector<double> c(pts[0].size(), 0.0);
  for (const auto& p : pts) {
    for (size_t d = 0; d < c.size(); ++d) c[d] += p[d];
  }
  for (auto& v : c) v /= static_cast<double>(pts.size());
  return c;
}

}  // namespace testutil
}  // namespace dar

#endif  // DAR_TESTS_TEST_UTIL_H_
