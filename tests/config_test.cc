// DarConfig::Validate(): every documented invalid knob must be rejected
// with a descriptive InvalidArgument naming the offender, and
// Session::Builder::Build must refuse to construct on any of them.

#include "core/config.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/session.h"

namespace dar {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(DarConfig{}.Validate().ok());
}

TEST(ConfigValidateTest, TypicalTunedConfigIsValid) {
  DarConfig config;
  config.frequency_fraction = 0.03;
  config.initial_diameters = {5.0, 3000.0};
  config.degree_thresholds = {5.0, 4000.0};
  config.density_thresholds = {2.0, 1500.0};
  config.phase2_leniency = 2.5;
  EXPECT_TRUE(config.Validate().ok());
}

// Expects rejection and that the message mentions `knob`.
void ExpectRejected(const DarConfig& config, const std::string& knob) {
  Status s = config.Validate();
  ASSERT_TRUE(s.IsInvalidArgument()) << "knob: " << knob;
  EXPECT_NE(s.message().find(knob), std::string::npos)
      << "message \"" << s.message() << "\" does not name " << knob;
}

TEST(ConfigValidateTest, RejectsZeroMemoryBudget) {
  DarConfig config;
  config.memory_budget_bytes = 0;
  ExpectRejected(config, "memory_budget_bytes");
}

TEST(ConfigValidateTest, RejectsFrequencyFractionOutOfRange) {
  for (double bad : {0.0, -0.1, 1.5, kNaN}) {
    DarConfig config;
    config.frequency_fraction = bad;
    ExpectRejected(config, "frequency_fraction");
  }
}

TEST(ConfigValidateTest, RejectsBadOutlierFraction) {
  for (double bad : {-0.25, kNaN}) {
    DarConfig config;
    config.outlier_fraction = bad;
    ExpectRejected(config, "outlier_fraction");
  }
}

TEST(ConfigValidateTest, RejectsBadInitialDiameters) {
  for (double bad : {-1.0, kNaN}) {
    DarConfig config;
    config.initial_diameters = {5.0, bad};
    ExpectRejected(config, "initial_diameters[1]");
  }
}

TEST(ConfigValidateTest, RejectsBadDegreeThreshold) {
  for (double bad : {-2.0, kNaN}) {
    DarConfig config;
    config.degree_threshold = bad;
    ExpectRejected(config, "degree_threshold");
  }
}

TEST(ConfigValidateTest, RejectsBadPerPartDegreeThresholds) {
  DarConfig config;
  config.degree_thresholds = {kNaN};
  ExpectRejected(config, "degree_thresholds[0]");
}

TEST(ConfigValidateTest, RejectsBadDensityThresholds) {
  DarConfig config;
  config.density_thresholds = {1.0, -3.0};
  ExpectRejected(config, "density_thresholds[1]");
}

TEST(ConfigValidateTest, RejectsLeniencyBelowOne) {
  for (double bad : {0.99, 0.0, -1.0, kNaN}) {
    DarConfig config;
    config.phase2_leniency = bad;
    ExpectRejected(config, "phase2_leniency");
  }
}

TEST(ConfigValidateTest, RejectsZeroArities) {
  DarConfig config;
  config.max_antecedent = 0;
  ExpectRejected(config, "max_antecedent");
  config = DarConfig{};
  config.max_consequent = 0;
  ExpectRejected(config, "max_consequent");
}

TEST(ConfigValidateTest, RejectsMismatchedPerPartVectorSizes) {
  DarConfig config;
  config.initial_diameters = {1.0, 2.0, 3.0};
  config.degree_thresholds = {1.0, 2.0};
  ExpectRejected(config, "per-part vector sizes disagree");

  // Empty vectors are wildcards, not mismatches.
  config.degree_thresholds.clear();
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidateTest, SessionRefusesInvalidConfig) {
  DarConfig config;
  config.phase2_leniency = 0.5;
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsInvalidArgument());
  EXPECT_NE(session.status().message().find("phase2_leniency"),
            std::string::npos);
}

TEST(ConfigValidateTest, SessionBuildsOnValidConfig) {
  auto session = Session::Builder().WithConfig(DarConfig{}).Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->executor().parallelism(), 1);  // serial default
}

}  // namespace
}  // namespace dar
