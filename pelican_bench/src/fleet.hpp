// The routed-fleet world shared by serve_routed and update_mix: campus
// traces, TL-FE-shaped per-user models, the fleet-shared store, a
// 2-process LocalFleet of pelican_engined and the Router in front of it —
// plus the open- and closed-loop load generators that drive it.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "mobility/dataset.hpp"
#include "nn/model.hpp"
#include "router/local_fleet.hpp"
#include "router/router.hpp"
#include "serve/scheduler.hpp"
#include "store/model_store.hpp"
#include "util.hpp"

namespace pelican::bench {

/// The default bench scale of the fleet workloads.
struct FleetScale {
  std::size_t users = 1024;
  std::size_t buildings = 40;  ///< = locations at building level
  std::size_t aps_per_building = 10;
  std::size_t hidden = 64;
  std::size_t sim_users = 64;  ///< simulated personas; users map onto them
  int weeks = 4;
  std::size_t processes = 2;
  std::size_t k = 3;
};

inline constexpr const char* kScope = "personal";

/// Seeded campus traces: windows of every simulated persona.
struct TraceWorld {
  mobility::EncodingSpec spec;
  std::vector<std::vector<mobility::Window>> windows;  ///< per persona
  double simulate_s = 0.0;

  /// Windows a bench user draws from (users share personas round-robin).
  [[nodiscard]] const std::vector<mobility::Window>& of_user(
      std::uint32_t user) const {
    return windows[user % windows.size()];
  }
};

[[nodiscard]] TraceWorld simulate_world(std::uint64_t seed,
                                        const FleetScale& scale);

/// The general trunk (2-layer LSTM + head, every layer frozen), identical
/// bit for bit across users.
[[nodiscard]] nn::SequenceClassifier make_trunk(const mobility::EncodingSpec& spec,
                                                std::size_t hidden,
                                                std::uint64_t seed);

/// TL-FE shape (Fig. 1b): the frozen trunk, a stacked per-user LSTM and a
/// per-user head, both with the user's own seeded weights.
[[nodiscard]] nn::SequenceClassifier make_user_model(
    const nn::SequenceClassifier& trunk, std::uint32_t user,
    std::uint64_t seed);

/// A running fleet with every user deployed at version 1.
struct Fleet {
  std::filesystem::path root;
  TraceWorld world;
  std::unique_ptr<store::ModelStore> store;
  std::unique_ptr<router::LocalFleet> processes;
  std::unique_ptr<router::Router> router;
  std::vector<double> deploy_ms;  ///< one timed Router::deploy per user
  double build_s = 0.0;           ///< trunk + per-user models
  double populate_s = 0.0;        ///< store writes
  double spawn_s = 0.0;
  double deploy_s = 0.0;
  double setup_s = 0.0;  ///< everything above, simulation included

  /// Samples of this process and every engine process.
  [[nodiscard]] std::vector<ProcSample> sample_engines() const;
  [[nodiscard]] double store_bytes() const;

  /// Drains the engines, reaps them and deletes the fleet directory.
  void teardown();

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();
};

/// Builds and starts a fleet under `root` (relative to the working
/// directory, so socket paths stay short).
[[nodiscard]] std::unique_ptr<Fleet> start_fleet(const RunConfig& config,
                                                 const FleetScale& scale,
                                                 const std::filesystem::path& root);

/// Sets the fleet up `reps` times, tearing all but the last down; returns
/// the last and records every set-up time in `setup_times`.
[[nodiscard]] std::unique_ptr<Fleet> start_fleet_repeated(
    const RunConfig& config, const FleetScale& scale, std::size_t reps,
    std::vector<double>& setup_times);

/// Read traffic of one phase, generated from the seed before it starts.
struct ReadSchedule {
  std::vector<serve::PredictRequest> requests;
  std::vector<double> due_s;  ///< open loop only: offsets from phase start
};

/// Who reads: Zipf(1) over user ranks, ranks mapped onto user ids by a
/// fixed permutation so the hot users spread over the partitions; windows
/// come from the user's campus traces and every read asks for the top k.
struct Traffic {
  Zipf zipf;
  std::vector<std::uint32_t> rank_to_user;
  std::size_t k = 3;

  [[nodiscard]] std::uint32_t draw_user(Rng& rng) const;
  [[nodiscard]] serve::PredictRequest draw_read(const TraceWorld& world,
                                                Rng& rng) const;
};
[[nodiscard]] Traffic make_traffic(const FleetScale& scale);

/// Open-loop reads: seeded Poisson arrivals at `rate`/s for `seconds`.
[[nodiscard]] ReadSchedule open_schedule(const TraceWorld& world,
                                         const Traffic& traffic, Rng& rng,
                                         double rate, double seconds);
/// Closed-loop request pool of `count` reads (cycled by the senders).
[[nodiscard]] ReadSchedule closed_pool(const TraceWorld& world,
                                       const Traffic& traffic, Rng& rng,
                                       std::size_t count);
void hash_schedule(Fnv1a& hash, const ReadSchedule& schedule);

/// The replay self-check: `plan_hash(world, seed)` must be identical for
/// the run's world and for a freshly simulated world of the same seed, and
/// must differ for the held-out seed.
template <typename PlanHash>
void check_replay(RunResult& result, const TraceWorld& world,
                  const FleetScale& scale, std::uint64_t seed,
                  PlanHash&& plan_hash) {
  const std::uint64_t hash = plan_hash(world, seed);
  const std::uint64_t replay = plan_hash(simulate_world(seed, scale), seed);
  const std::uint64_t held_out_hash = plan_hash(
      simulate_world(held_out_seed(seed), scale), held_out_seed(seed));
  std::cout << "schedule hash " << std::hex << hash << " replay " << replay
            << std::dec << " held-out seed " << held_out_seed(seed)
            << " hash " << std::hex << held_out_hash << std::dec << "\n";
  result.check(hash == replay, "schedule replay differs for the same seed");
  result.check(hash != held_out_hash, "held-out seed gives the same schedule");
}

/// One sampled routed answer, checked against the reference afterwards.
struct SampledAnswer {
  serve::PredictRequest request;
  serve::PredictResponse response;
};

/// Checks sampled answers against DeployedModel::predict_top_k on the
/// stored (user, version) model; returns the number of mismatches and adds
/// the reference time per row to `reference_us`.
[[nodiscard]] std::uint64_t check_answers(const Fleet& fleet,
                                          const std::vector<SampledAnswer>& sampled,
                                          std::vector<double>& reference_us);

struct OpenLoopResult {
  PhaseCounts counts;
  std::vector<double> latency_ms;  ///< from due time; +inf when not ok
  std::vector<double> late_ms;     ///< send time - due time
  std::vector<double> serve_ms;    ///< one per Router::serve call
  std::vector<SampledAnswer> sampled;
  /// Reads whose model_version was below the version acked for that user
  /// before the read was sent (update_mix's read-your-publish check).
  std::uint64_t stale = 0;
  /// Per window of ~kWindowReads due reads after the first: latency
  /// percentiles and the CPU of this process plus every engine per OK read.
  std::vector<double> window_p50_ms;
  std::vector<double> window_p90_ms;
  std::vector<double> window_p99_ms;
  std::vector<double> window_cpu_us_per_op;
  double threads_peak = 0.0;  ///< of this process, sampled every 50 ms
};

/// Replays `schedule` against the fleet's router from `senders` threads;
/// each forwards every request that is due as one serve() call. When
/// `acked` is non-null it holds, per user, the last version whose publish
/// was acked. `trace_base` != 0 stamps request i with trace id
/// trace_base + 2i.
[[nodiscard]] OpenLoopResult run_open_loop(
    Fleet& fleet, const ReadSchedule& schedule, std::size_t senders,
    std::uint64_t trace_base,
    const std::vector<std::atomic<std::uint32_t>>* acked = nullptr);

struct ClosedLoopResult {
  PhaseCounts counts;
  std::vector<double> interval_rps;  ///< OK reads/s per sampling interval
  std::vector<SampledAnswer> sampled;
  double threads_peak = 0.0;  ///< of this process, sampled per interval
};

/// `clients` threads each keep one serve() batch of `batch` requests
/// outstanding for `seconds`, cycling through their slice of `pool`.
[[nodiscard]] ClosedLoopResult run_closed_loop(router::Router& router,
                                               const ReadSchedule& pool,
                                               std::size_t clients,
                                               std::size_t batch,
                                               double seconds,
                                               std::uint64_t trace_base);

/// Fleet-wide observability snapshot: merged registry plus summed engine
/// request stats.
struct FleetSnapshot {
  obs::RegistryState registry;
  serve::ServerStats::State engine_stats;
};
[[nodiscard]] FleetSnapshot snapshot(router::Router& router);

/// Outside-in per-layer metrics of one traced read phase: the phase's
/// timed serve() calls, the fleet's stage histograms over the phase and
/// the /proc deltas of every process. Prints the stage-share table.
void traced_read_layers(RunResult& result, const OpenLoopResult& phase,
                        const FleetSnapshot& before, const FleetSnapshot& after,
                        const std::vector<ProcSample>& proc_before,
                        const std::vector<ProcSample>& proc_after);

}  // namespace pelican::bench
