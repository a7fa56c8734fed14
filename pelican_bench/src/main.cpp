// pelican_bench: one seeded program for the repository's benchmark.
//
//   pelican_bench --workload serve_routed|update_mix|privacy_audit
//                 --seed N --seconds S --trace 0|1
//                 --engined PATH --workdir DIR
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics of the traced run (--trace 1).
// pelican_bench/run.py builds this binary and is the usual entry point.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>

#include "workloads.hpp"

using namespace pelican::bench;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload serve_routed|update_mix|privacy_audit --seed N"
               " --seconds S --trace 0|1 --engined PATH --workdir DIR\n";
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = std::numeric_limits<double>::max();
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

namespace pelican::bench {

const std::vector<MetricName>& layer_metric_names() {
  static const std::vector<MetricName> names = {
      {"router.serve_ms.p50", "ms"},
      {"router.serve_ms.p99", "ms"},
      {"router.fanout_ms.p50", "ms"},
      {"router.fanout_ms.p99", "ms"},
      {"router.serialize_ms.p50", "ms"},
      {"router.hedges_per_kreq", "count"},
      {"router.retries_per_kreq", "count"},
      {"router.threads_peak", "count"},
      {"router.ctx_switches_per_req", "count"},
      {"router.unattributed_share", "ratio"},
      {"router.publish_ms.p50", "ms"},
      {"router.publish_ms.p90", "ms"},
      {"router.deploy_ms.p50", "ms"},
      {"serve.mean_batch", "rows"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.batch_assembly_ms.p50", "ms"},
      {"serve.shed_per_kreq", "count"},
      {"serve.unattributed_share", "ratio"},
      {"serve.engine_cpu_us_per_req", "us"},
      {"serve.engine_threads", "count"},
      {"serve.engine_ctx_switches_per_req", "count"},
      {"serve.engine_rss_mb", "MB"},
      {"core.encode_ms.p50", "ms"},
      {"core.forward_ms.p50", "ms"},
      {"core.forward_ms.p99", "ms"},
      {"core.rank_ms.p50", "ms"},
      {"core.predict_us_per_row", "us"},
      {"nn.fwd_us_per_row.b1", "us"},
      {"nn.fwd_us_per_row.b32", "us"},
      {"nn.fwd_us_per_row.b1024", "us"},
      {"nn.gflops.b1024", "GFLOP/s"},
      {"nn.weight_bytes_per_row.b1", "B"},
      {"models.update_ms.p50", "ms"},
      {"models.update_ms.p90", "ms"},
      {"models.train_us_per_window", "us"},
      {"store.put_ms.p50", "ms"},
      {"store.put_ms.p90", "ms"},
      {"store.bytes_per_user", "B"},
      {"store.populate_s", "s"},
      {"attack.queries_per_window", "count"},
      {"attack.queries_per_s", "1/s"},
      {"attack.self_share", "ratio"},
      {"mobility.simulate_s", "s"},
      {"obs.traced_rps_ratio", "ratio"},
      {"obs.traced_p50_ratio", "ratio"},
      {"gen.late_ms.p99", "ms"},
      {"gen.late_ms.max", "ms"},
  };
  return names;
}

}  // namespace pelican::bench

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--engined") {
      config.engined = std::filesystem::absolute(value).string();
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.workload.empty() || config.workdir.empty() ||
      config.seconds <= 0.0) {
    return usage(argv[0]);
  }

  // Every file of the run lives under <workdir>/<pid>; socket paths stay
  // relative to it, and it is removed on the way out.
  const std::filesystem::path run_dir =
      std::filesystem::absolute(config.workdir) / std::to_string(::getpid());
  std::filesystem::create_directories(run_dir);
  std::filesystem::current_path(run_dir);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::current_path(dir.parent_path(), ec);
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{run_dir};

  RunResult result;
  try {
    if (config.workload == "serve_routed") {
      result = run_serve_routed(config);
    } else if (config.workload == "update_mix") {
      result = run_update_mix(config);
    } else if (config.workload == "privacy_audit") {
      result = run_privacy_audit(config);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::cerr << "pelican_bench: " << error.what() << "\n";
    return 1;
  }

  for (const auto& [name, unit] : layer_metric_names()) {
    result.layers.try_emplace(name, Metric{0.0, unit});
  }
  for (const auto& phase : result.phases) print_phase(phase);
  const PhaseCounts total = result.totals();
  print_phase(total);
  print_metrics("end-to-end metrics:", result.e2e);
  if (config.trace) print_metrics("per-layer metrics (traced run):", result.layers);
  for (const auto& failure : result.check_failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  const bool correct = result.check_failures.empty() && total.wrong == 0;
  const auto& metrics = config.trace ? result.layers : result.e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed + total.shed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
