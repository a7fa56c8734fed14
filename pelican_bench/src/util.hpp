// Shared plumbing of pelican_bench: the outside-in process probe, sample
// statistics, the seeded generators (Zipf users, Poisson arrivals), the
// schedule hash behind the replay self-check, and the result record the
// workloads fill and main() prints.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "mobility/dataset.hpp"
#include "obs/metrics.hpp"
#include "serve/stats.hpp"

namespace pelican::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sets a stop flag when it goes out of scope. Declared after the threads
/// that poll the flag, it stops them before their destructors join them,
/// on the exception path too.
class StopOnExit {
 public:
  explicit StopOnExit(std::atomic<bool>& stop) : stop_(stop) {}
  StopOnExit(const StopOnExit&) = delete;
  StopOnExit& operator=(const StopOnExit&) = delete;
  ~StopOnExit() { stop_.store(true); }

 private:
  std::atomic<bool>& stop_;
};

/// Runs fn(t) for t in [0, count) on `count` threads, joins them all, then
/// rethrows the first exception any of them threw.
template <typename Fn>
void run_threads(std::size_t count, Fn&& fn) {
  std::mutex mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        const std::lock_guard lock(mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

// --- /proc probe ------------------------------------------------------------

/// One reading of /proc/<pid>/{stat,status}.
struct ProcSample {
  double cpu_s = 0.0;  ///< utime + stime
  double threads = 0.0;
  double voluntary_cs = 0.0;
  double involuntary_cs = 0.0;
  double hwm_mb = 0.0;  ///< VmHWM (peak RSS)
};

/// Reads a live process; throws std::runtime_error when it is gone.
[[nodiscard]] ProcSample read_proc(pid_t pid);
[[nodiscard]] ProcSample read_self();

/// The difference `after - before` of the cumulative fields; the gauges
/// (threads, peak RSS) are taken from `after`.
[[nodiscard]] ProcSample proc_delta(const ProcSample& before,
                                    const ProcSample& after);

// --- statistics -------------------------------------------------------------

/// Exact sample percentile (q in [0, 100], nearest-rank with linear
/// interpolation); +inf samples sort last. 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Latency samples per measurement window: enough that 10 lie beyond the
/// window's p99. Reported percentiles are medians over windows, so one
/// stall moves one window, not the run.
inline constexpr std::size_t kWindowReads = 1100;

/// `after - before` of a cumulative histogram (bucket-wise; max is taken
/// from `after`, so it is an upper bound over the interval).
[[nodiscard]] obs::HistogramState histogram_delta(
    const obs::HistogramState& before, const obs::HistogramState& after);

/// Histogram `name` of a registry state; empty when absent.
[[nodiscard]] obs::HistogramState find_histogram(const obs::RegistryState& state,
                                                 const std::string& name);
[[nodiscard]] std::uint64_t find_counter(const obs::RegistryState& state,
                                         const std::string& name);

// --- seeded generators ------------------------------------------------------

/// Zipf(s) over [0, n): P(i) proportional to 1 / (i + 1)^s, sampled through
/// a cumulative table. Rank 0 is the hottest id; callers permute ranks onto
/// ids so hot users are spread over the partitions.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Exponential inter-arrival gap (seconds) of a Poisson process at `rate`/s.
[[nodiscard]] double exponential_gap(Rng& rng, double rate);

/// FNV-1a over a byte stream: the schedule hash of the replay self-check.
class Fnv1a {
 public:
  void add(const void* data, std::size_t size);
  template <typename T>
  void add_value(const T& value) {
    add(&value, sizeof(value));
  }
  /// Every feature of the window, field by field (no padding bytes).
  void add_window(const mobility::Window& window);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The held-out seed paired with a workload seed: a gain measured while a
/// change is written must also hold on it.
[[nodiscard]] constexpr std::uint64_t held_out_seed(std::uint64_t seed) {
  return seed + 1000003;
}

// --- results ----------------------------------------------------------------

/// Operation accounting of one phase.
struct PhaseCounts {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;  ///< answered ok = false, not shed
  std::uint64_t shed = 0;    ///< answered rejected = true
  std::uint64_t wrong = 0;   ///< answer differed from the reference

  void add(const PhaseCounts& other);
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. main() prints `e2e` or `layers` as the
/// JSON result, depending on --trace.
struct RunResult {
  std::vector<PhaseCounts> phases;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  /// Failed self-checks (schedule replay, determinism, answer checks);
  /// empty when every check passed.
  std::vector<std::string> check_failures;

  void set_e2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void set_layer(const std::string& name, double value,
                 const std::string& unit) {
    layers[name] = {value, unit};
  }
  void check(bool condition, const std::string& what) {
    if (!condition) check_failures.push_back(what);
  }
  [[nodiscard]] PhaseCounts totals() const;
};

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string engined;  ///< pelican_engined binary
  std::string workdir;  ///< root directory for fleet sockets and stores
};

/// Prints "  name = value unit" lines, one per metric.
void print_metrics(const std::string& title,
                   const std::map<std::string, Metric>& metrics);
void print_phase(const PhaseCounts& phase);

}  // namespace pelican::bench
