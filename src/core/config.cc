#include "core/config.h"

#include <cmath>
#include <string>

namespace dar {

namespace {

bool BadFraction(double v) { return std::isnan(v) || v < 0; }

Status CheckNonNegativeEntries(const std::vector<double>& v,
                               const char* name) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i]) || v[i] < 0) {
      return Status::InvalidArgument(
          std::string(name) + "[" + std::to_string(i) +
          "] must be a non-negative number, got " + std::to_string(v[i]));
    }
  }
  return Status::OK();
}

}  // namespace

Status DarConfig::Validate() const {
  if (memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory_budget_bytes must be positive");
  }
  if (!(frequency_fraction > 0 && frequency_fraction <= 1)) {
    return Status::InvalidArgument(
        "frequency_fraction must be in (0, 1], got " +
        std::to_string(frequency_fraction));
  }
  if (BadFraction(outlier_fraction)) {
    return Status::InvalidArgument(
        "outlier_fraction must be a non-negative number, got " +
        std::to_string(outlier_fraction));
  }
  DAR_RETURN_IF_ERROR(
      CheckNonNegativeEntries(initial_diameters, "initial_diameters"));

  if (std::isnan(degree_threshold) || degree_threshold < 0) {
    return Status::InvalidArgument(
        "degree_threshold must be a non-negative number, got " +
        std::to_string(degree_threshold));
  }
  DAR_RETURN_IF_ERROR(
      CheckNonNegativeEntries(degree_thresholds, "degree_thresholds"));
  DAR_RETURN_IF_ERROR(
      CheckNonNegativeEntries(density_thresholds, "density_thresholds"));
  if (!(phase2_leniency >= 1)) {
    return Status::InvalidArgument(
        "phase2_leniency must be >= 1 (see §6.2), got " +
        std::to_string(phase2_leniency));
  }
  if (max_antecedent == 0) {
    return Status::InvalidArgument("max_antecedent must be >= 1");
  }
  if (max_consequent == 0) {
    return Status::InvalidArgument("max_consequent must be >= 1");
  }

  // The per-part vectors are positional (index = part id); any two that
  // are both non-empty must agree on the number of parts.
  struct Named {
    const std::vector<double>* v;
    const char* name;
  };
  const Named per_part[] = {{&initial_diameters, "initial_diameters"},
                            {&degree_thresholds, "degree_thresholds"},
                            {&density_thresholds, "density_thresholds"}};
  for (const Named& a : per_part) {
    for (const Named& b : per_part) {
      if (a.v == b.v || a.v->empty() || b.v->empty()) continue;
      if (a.v->size() != b.v->size()) {
        return Status::InvalidArgument(
            std::string("per-part vector sizes disagree: ") + a.name +
            " has " + std::to_string(a.v->size()) + " entries but " +
            b.name + " has " + std::to_string(b.v->size()));
      }
    }
  }
  return Status::OK();
}

}  // namespace dar
