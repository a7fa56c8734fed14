// The three workloads, the metric names they report and the set-up count.
#pragma once

#include <string>
#include <vector>

#include "util.hpp"

namespace pelican::bench {

/// Set-ups per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 3;

[[nodiscard]] RunResult run_serve_routed(const RunConfig& config);
[[nodiscard]] RunResult run_update_mix(const RunConfig& config);
[[nodiscard]] RunResult run_privacy_audit(const RunConfig& config);

/// Every per-layer metric, with its unit. Each workload reports the layers
/// on its path; main() reports the rest as 0 (the layer does no work
/// there), so every run prints the same names.
struct MetricName {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricName>& layer_metric_names();

}  // namespace pelican::bench
