// serve_routed: reads through the Router to a 2-process fleet of
// pelican_engined serving ~1024 TL-FE-shaped models (Zipf(1) users, k = 3).
// Warmup, then an open loop (seeded Poisson at a fixed rate, latency timed
// from each request's due time), then a closed loop (4 clients, one
// serve() batch of 32 outstanding each).
#include <iostream>

#include "fleet.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace pelican::bench {

namespace {

/// Open-loop offered rate, fixed so runs compare: about a quarter of the
/// closed-loop rate (2900-3300 req/s) measured on a 4-core host when the
/// benchmark was defined. At half that rate, runs on a contended host
/// saturated the fleet and the open loop's queue grew without bound.
constexpr double kOpenRate = 800.0;
constexpr std::size_t kSenders = 4;
constexpr std::size_t kClients = 4;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kPoolPerClient = 4096;

struct Plan {
  ReadSchedule warmup;
  ReadSchedule open;
  ReadSchedule closed;
  double warmup_s = 0.0;
  double closed_s = 0.0;

  [[nodiscard]] std::uint64_t hash() const {
    Fnv1a h;
    hash_schedule(h, warmup);
    hash_schedule(h, open);
    hash_schedule(h, closed);
    return h.value();
  }
};

Plan make_plan(const TraceWorld& world, const FleetScale& scale,
               std::uint64_t seed, double seconds) {
  const Traffic traffic = make_traffic(scale);
  Rng rng = Rng(seed).fork(4);
  Plan plan;
  plan.warmup_s = 0.05 * seconds;
  plan.closed_s = 0.4 * seconds;
  plan.warmup = closed_pool(world, traffic, rng, kClients * kPoolPerClient);
  plan.open = open_schedule(world, traffic, rng, kOpenRate, 0.55 * seconds);
  plan.closed = closed_pool(world, traffic, rng, kClients * kPoolPerClient);
  return plan;
}

/// One pass over the read phases, traced or not.
struct Pass {
  ClosedLoopResult warmup;
  OpenLoopResult open;
  ClosedLoopResult closed;
  std::vector<ProcSample> proc_before;
  std::vector<ProcSample> proc_after;
  FleetSnapshot snap_before;
  FleetSnapshot snap_after;
};

Pass run_pass(Fleet& fleet, const Plan& plan, bool traced,
              std::uint64_t seed) {
  router::Router& router = *fleet.router;
  router.set_instrumentation(traced);
  // Caller-stamped trace ids: odd, so base + 2i is never 0.
  const std::uint64_t base = traced ? ((seed << 24) | 1) : 0;
  Pass pass;
  pass.warmup = run_closed_loop(router, plan.warmup, kClients, kBatch,
                                plan.warmup_s, 0);
  if (traced) pass.snap_before = snapshot(router);
  pass.proc_before = fleet.sample_engines();
  pass.open = run_open_loop(fleet, plan.open, kSenders, base);
  pass.proc_after = fleet.sample_engines();
  if (traced) pass.snap_after = snapshot(router);
  pass.closed = run_closed_loop(router, plan.closed, kClients, kBatch,
                                plan.closed_s,
                                base == 0 ? 0 : base + 2 * plan.open.requests.size());
  return pass;
}

void account(RunResult& result, const Fleet& fleet, const std::string& name,
             PhaseCounts counts, const std::vector<SampledAnswer>& sampled,
             std::vector<double>& reference_us) {
  counts.name = name;
  counts.wrong += check_answers(fleet, sampled, reference_us);
  result.phases.push_back(counts);
}

}  // namespace

RunResult run_serve_routed(const RunConfig& config) {
  const FleetScale scale;
  RunResult result;
  std::vector<double> setup_times;
  auto fleet = start_fleet_repeated(config, scale, kSetupReps, setup_times);
  const Plan plan = make_plan(fleet->world, scale, config.seed, config.seconds);

  const Pass pass = run_pass(*fleet, plan, /*traced=*/false, config.seed);
  std::vector<double> reference_us;
  account(result, *fleet, "warmup", pass.warmup.counts, {}, reference_us);
  account(result, *fleet, "open_loop", pass.open.counts, pass.open.sampled,
          reference_us);
  account(result, *fleet, "closed_loop", pass.closed.counts,
          pass.closed.sampled, reference_us);

  const double rps = median(pass.closed.interval_rps);
  const double p50 = median(pass.open.window_p50_ms);
  result.set_e2e("setup_s", median(setup_times), "s");
  result.set_e2e("ops_per_s", rps, "1/s");
  result.set_e2e("p50_ms", p50, "ms");
  std::cout << "read p90 " << median(pass.open.window_p90_ms)
            << " ms, p99 " << median(pass.open.window_p99_ms)
            << " ms (medians over windows; not gated); p99 per window:";
  for (const double p99 : pass.open.window_p99_ms) std::cout << " " << p99;
  std::cout << "\n";
  result.set_e2e("cpu_us_per_op", median(pass.open.window_cpu_us_per_op), "us");
  std::cout << "open loop: " << pass.open.counts.attempted << " reads at "
            << kOpenRate << "/s offered, gen late p99 "
            << percentile(pass.open.late_ms, 99) << " ms\n"
            << "closed loop: " << kClients << " clients x batch " << kBatch
            << ", rps (median of " << pass.closed.interval_rps.size()
            << " intervals) " << rps << ", intervals min "
            << percentile(pass.closed.interval_rps, 0) << " max "
            << percentile(pass.closed.interval_rps, 100) << "\n";

  if (config.trace) {
    const Pass traced = run_pass(*fleet, plan, /*traced=*/true, config.seed);
    account(result, *fleet, "warmup.traced", traced.warmup.counts, {},
            reference_us);
    account(result, *fleet, "open_loop.traced", traced.open.counts,
            traced.open.sampled, reference_us);
    account(result, *fleet, "closed_loop.traced", traced.closed.counts,
            traced.closed.sampled, reference_us);
    traced_read_layers(result, traced.open, traced.snap_before,
                       traced.snap_after, traced.proc_before,
                       traced.proc_after);
    result.set_layer("router.threads_peak",
                     std::max(traced.closed.threads_peak,
                              traced.open.threads_peak),
                     "count");
    result.set_layer("router.deploy_ms.p50", percentile(fleet->deploy_ms, 50),
                     "ms");
    result.set_layer("store.populate_s", fleet->populate_s, "s");
    result.set_layer("store.bytes_per_user",
                     fleet->store_bytes() / static_cast<double>(scale.users),
                     "B");
    result.set_layer("mobility.simulate_s", fleet->world.simulate_s, "s");
    result.set_layer("core.predict_us_per_row", median(reference_us), "us");
    result.set_layer("gen.late_ms.p99", percentile(pass.open.late_ms, 99), "ms");
    result.set_layer("gen.late_ms.max", percentile(pass.open.late_ms, 100), "ms");
    result.set_layer("obs.traced_rps_ratio",
                     median(traced.closed.interval_rps) / rps, "ratio");
    result.set_layer("obs.traced_p50_ratio",
                     median(traced.open.window_p50_ms) / p50, "ratio");
    nn::SequenceClassifier model = fleet->store->get({kScope, 0, 1});
    probe_nn(result, model, fleet->world.of_user(0), fleet->world.spec);
  }

  check_replay(result, fleet->world, scale, config.seed,
               [&](const TraceWorld& world, std::uint64_t seed) {
                 return make_plan(world, scale, seed, config.seconds).hash();
               });

  double rss_mb = 0.0;
  for (const auto& sample : fleet->sample_engines()) rss_mb += sample.hwm_mb;
  result.set_e2e("rss_mb", rss_mb, "MB");
  fleet->teardown();
  return result;
}

}  // namespace pelican::bench
