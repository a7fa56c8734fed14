// update_mix: model updates beside reads on the serve_routed fleet shape.
// Two updater threads loop over seeded users: fetch the user's latest
// stored model, models::update_personalized on the user's next slice of
// windows, ModelStore::put_next, Router::publish. Two reader threads keep an
// open-loop read stream at a fixed rate; a read sent after a publish ack
// must be served by that version or a later one.
#include <iostream>
#include <mutex>
#include <thread>

#include "core/service.hpp"
#include "fleet.hpp"
#include "models/personalize.hpp"
#include "models/window_dataset.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace pelican::bench {

namespace {

constexpr double kReadRate = 400.0;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kUpdaters = 2;
/// Windows per update (one epoch, one minibatch).
constexpr std::size_t kSliceWindows = 8;
constexpr std::size_t kClients = 4;
constexpr std::size_t kBatch = 32;

struct Plan {
  ReadSchedule warmup;
  ReadSchedule reads;
  /// Users each updater visits in order; updater t owns users with
  /// user % kUpdaters == t, so one user's updates never race.
  std::vector<std::vector<std::uint32_t>> order;
  double warmup_s = 0.0;
  double mix_s = 0.0;

  [[nodiscard]] std::uint64_t hash() const {
    Fnv1a h;
    hash_schedule(h, warmup);
    hash_schedule(h, reads);
    for (const auto& users : order) {
      for (const std::uint32_t user : users) h.add_value(user);
    }
    return h.value();
  }
};

Plan make_plan(const TraceWorld& world, const FleetScale& scale,
               std::uint64_t seed, double seconds) {
  const Traffic traffic = make_traffic(scale);
  Rng rng = Rng(seed).fork(5);
  Plan plan;
  plan.warmup_s = 0.1 * seconds;
  plan.mix_s = 0.9 * seconds;
  plan.warmup = closed_pool(world, traffic, rng, kClients * 1024);
  plan.reads = open_schedule(world, traffic, rng, kReadRate, plan.mix_s);
  plan.order.resize(kUpdaters);
  // More visits than any run completes; the updaters stop on time.
  while (plan.order[0].size() < 20000 || plan.order[1].size() < 20000) {
    const std::uint32_t user = traffic.draw_user(rng);
    plan.order[user % kUpdaters].push_back(user);
  }
  return plan;
}

/// Update state that carries over from the untraced to the traced pass.
struct UpdateState {
  explicit UpdateState(std::size_t users)
      : acked(users), latest(users, 1), done(users, 0) {
    for (auto& version : acked) version.store(1);
  }
  std::vector<std::atomic<std::uint32_t>> acked;  ///< last acked publish
  std::vector<std::uint32_t> latest;              ///< updater-owned
  std::vector<std::uint32_t> done;                ///< updates per user
  std::vector<std::size_t> cursor = std::vector<std::size_t>(kUpdaters, 0);
};

struct MixPass {
  ClosedLoopResult warmup;
  OpenLoopResult reads;
  PhaseCounts updates;
  std::vector<double> update_ms;  ///< fetch + personalize + put + publish
  std::vector<double> train_ms;
  std::vector<double> put_ms;
  std::vector<double> publish_ms;
  double train_s = 0.0;
  std::uint64_t windows_trained = 0;
  double window_s = 0.0;
  std::uint64_t updates_in_window = 0;
  std::vector<ProcSample> proc_before;
  std::vector<ProcSample> proc_after;
  FleetSnapshot snap_before;
  FleetSnapshot snap_after;
};

MixPass run_mix(Fleet& fleet, const Plan& plan, UpdateState& state,
                bool traced, std::uint64_t seed) {
  router::Router& router = *fleet.router;
  router.set_instrumentation(traced);
  const std::uint64_t base = traced ? ((seed << 24) | 1) : 0;
  MixPass pass;
  pass.warmup = run_closed_loop(router, plan.warmup, kClients, kBatch,
                                plan.warmup_s, 0);
  if (traced) pass.snap_before = snapshot(router);
  pass.proc_before = fleet.sample_engines();

  std::atomic<bool> stop{false};
  std::mutex merge;
  std::vector<Clock::time_point> finished;
  auto updater = [&](std::size_t t) {
    MixPass local;
    std::vector<Clock::time_point> ends;
    const auto& users = plan.order[t];
    while (!stop.load() && state.cursor[t] < users.size()) {
      const std::uint32_t user = users[state.cursor[t]++];
      const auto& windows = fleet.world.of_user(user);
      std::vector<mobility::Window> slice;
      for (std::size_t i = 0; i < kSliceWindows; ++i) {
        slice.push_back(
            windows[(state.done[user] * kSliceWindows + i) % windows.size()]);
      }
      models::PersonalizationConfig config;
      config.method = models::PersonalizationMethod::kFeatureExtraction;
      config.train.epochs = 1;
      config.train.batch_size = kSliceWindows;
      config.train.lr = 1e-3;
      config.train.seed = seed * 1000003 + user * 131 + state.done[user];
      ++local.updates.attempted;
      try {
        const auto start = Clock::now();
        const nn::SequenceClassifier current =
            fleet.store->get({kScope, user, state.latest[user]});
        const auto fetched_at = Clock::now();
        auto updated = models::update_personalized(
            current, models::WindowDataset(slice, fleet.world.spec), config);
        const auto put_at = Clock::now();
        const std::uint32_t version =
            fleet.store->put_next(kScope, user, std::move(updated.model));
        const auto publish_at = Clock::now();
        router.publish(user, version);
        const auto end = Clock::now();
        state.acked[user].store(version, std::memory_order_release);
        state.latest[user] = version;
        ++state.done[user];
        ++local.updates.ok;
        local.update_ms.push_back(
            std::chrono::duration<double, std::milli>(end - start).count());
        local.train_ms.push_back(
            std::chrono::duration<double, std::milli>(put_at - fetched_at).count());
        local.put_ms.push_back(
            std::chrono::duration<double, std::milli>(publish_at - put_at).count());
        local.publish_ms.push_back(
            std::chrono::duration<double, std::milli>(end - publish_at).count());
        local.train_s +=
            std::chrono::duration<double>(put_at - fetched_at).count();
        local.windows_trained += kSliceWindows * config.train.epochs;
        ends.push_back(end);
      } catch (const std::exception& error) {
        std::cerr << "update of user " << user << " failed: " << error.what()
                  << "\n";
        ++local.updates.failed;
      }
    }
    const std::lock_guard lock(merge);
    pass.updates.add(local.updates);
    auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(pass.update_ms, local.update_ms);
    append(pass.train_ms, local.train_ms);
    append(pass.put_ms, local.put_ms);
    append(pass.publish_ms, local.publish_ms);
    pass.train_s += local.train_s;
    pass.windows_trained += local.windows_trained;
    finished.insert(finished.end(), ends.begin(), ends.end());
  };

  const auto start = Clock::now();
  std::vector<std::jthread> updaters;
  for (std::size_t t = 0; t < kUpdaters; ++t) updaters.emplace_back(updater, t);
  const StopOnExit stop_updaters(stop);
  pass.reads = run_open_loop(fleet, plan.reads, kReaders, base, &state.acked);
  const auto window_end = Clock::now();
  stop.store(true);
  for (auto& thread : updaters) thread.join();
  pass.proc_after = fleet.sample_engines();
  if (traced) pass.snap_after = snapshot(router);
  pass.window_s = std::chrono::duration<double>(window_end - start).count();
  for (const auto end : finished) pass.updates_in_window += end <= window_end;
  return pass;
}

/// After the mix: one routed read per updated user must be served by the
/// latest stored version and match its reference answer.
PhaseCounts final_sweep(const Fleet& fleet, const UpdateState& state,
                        std::vector<double>& reference_us) {
  PhaseCounts counts;
  counts.name = "final_sweep";
  std::vector<serve::PredictRequest> requests;
  for (std::uint32_t user = 0; user < state.done.size(); ++user) {
    if (state.done[user] == 0) continue;
    requests.push_back({user, fleet.world.of_user(user).front(), 3});
  }
  std::vector<SampledAnswer> answers;
  for (std::size_t i = 0; i < requests.size(); i += 64) {
    const std::span<const serve::PredictRequest> batch(
        requests.data() + i, std::min<std::size_t>(64, requests.size() - i));
    const auto responses = fleet.router->serve(batch);
    for (std::size_t j = 0; j < responses.size(); ++j) {
      ++counts.attempted;
      const auto& response = responses[j];
      if (!response.ok) {
        if (response.rejected) {
          ++counts.shed;
        } else {
          ++counts.failed;
        }
        continue;
      }
      ++counts.ok;
      if (response.model_version != state.latest[batch[j].user_id]) {
        ++counts.wrong;
      }
      answers.push_back({batch[j], response});
    }
  }
  counts.wrong += check_answers(fleet, answers, reference_us);
  return counts;
}

void account(RunResult& result, const Fleet& fleet, const std::string& suffix,
             const MixPass& pass, std::vector<double>& reference_us) {
  PhaseCounts warmup = pass.warmup.counts;
  warmup.name = "warmup" + suffix;
  result.phases.push_back(warmup);
  PhaseCounts reads = pass.reads.counts;
  reads.name = "mix_reads" + suffix;
  reads.wrong += check_answers(fleet, pass.reads.sampled, reference_us);
  result.phases.push_back(reads);
  PhaseCounts updates = pass.updates;
  updates.name = "mix_updates" + suffix;
  result.phases.push_back(updates);
  if (pass.reads.stale > 0) {
    std::cout << "stale reads after a publish ack: " << pass.reads.stale
              << "\n";
  }
}

double updates_per_s(const MixPass& pass) {
  return static_cast<double>(pass.updates_in_window) / pass.window_s;
}

}  // namespace

RunResult run_update_mix(const RunConfig& config) {
  const FleetScale scale;
  RunResult result;
  std::vector<double> setup_times;
  auto fleet = start_fleet_repeated(config, scale, kSetupReps, setup_times);
  const Plan plan = make_plan(fleet->world, scale, config.seed, config.seconds);
  UpdateState state(scale.users);
  std::vector<double> reference_us;

  const MixPass pass = run_mix(*fleet, plan, state, false, config.seed);
  account(result, *fleet, "", pass, reference_us);
  double cpu_s = 0.0;
  for (std::size_t i = 0; i < pass.proc_after.size(); ++i) {
    cpu_s += pass.proc_after[i].cpu_s - pass.proc_before[i].cpu_s;
  }
  const double ups = updates_per_s(pass);
  const double p50 = median(pass.reads.window_p50_ms);
  result.set_e2e("setup_s", median(setup_times), "s");
  result.set_e2e("ops_per_s", ups, "1/s");
  result.set_e2e("p50_ms", p50, "ms");
  std::cout << "read p90 " << median(pass.reads.window_p90_ms)
            << " ms, p99 " << median(pass.reads.window_p99_ms)
            << " ms (medians over windows; not gated); p99 per window:";
  for (const double p99 : pass.reads.window_p99_ms) std::cout << " " << p99;
  std::cout << "\n";
  result.set_e2e("cpu_us_per_op",
                 cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                   1, pass.updates.ok)),
                 "us");
  const std::size_t n = pass.update_ms.size();
  std::cout << "updates: " << n << " (" << pass.updates_in_window
            << " in the read window), updates_per_s " << ups
            << " 1/s, update_p50_ms " << percentile(pass.update_ms, 50)
            << " ms, update_p90_ms " << percentile(pass.update_ms, 90)
            << " ms, update_p99_ms " << percentile(pass.update_ms, 99)
            << " ms (" << (n >= 1000 ? "supported" : "fewer than 1000 samples")
            << ")\nreads: " << pass.reads.counts.attempted << " at "
            << kReadRate << "/s offered, gen late p99 "
            << percentile(pass.reads.late_ms, 99) << " ms\n";

  if (config.trace) {
    const MixPass traced = run_mix(*fleet, plan, state, true, config.seed);
    account(result, *fleet, ".traced", traced, reference_us);
    traced_read_layers(result, traced.reads, traced.snap_before,
                       traced.snap_after, traced.proc_before,
                       traced.proc_after);
    result.set_layer("router.threads_peak", traced.reads.threads_peak,
                     "count");
    result.set_layer("router.publish_ms.p50", percentile(traced.publish_ms, 50),
                     "ms");
    result.set_layer("router.publish_ms.p90", percentile(traced.publish_ms, 90),
                     "ms");
    result.set_layer("router.deploy_ms.p50", percentile(fleet->deploy_ms, 50),
                     "ms");
    result.set_layer("models.update_ms.p50", percentile(traced.train_ms, 50),
                     "ms");
    result.set_layer("models.update_ms.p90", percentile(traced.train_ms, 90),
                     "ms");
    result.set_layer("models.train_us_per_window",
                     traced.train_s * 1e6 /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, traced.windows_trained)),
                     "us");
    result.set_layer("store.put_ms.p50", percentile(traced.put_ms, 50), "ms");
    result.set_layer("store.put_ms.p90", percentile(traced.put_ms, 90), "ms");
    result.set_layer("store.populate_s", fleet->populate_s, "s");
    result.set_layer("store.bytes_per_user",
                     fleet->store_bytes() / static_cast<double>(scale.users),
                     "B");
    result.set_layer("mobility.simulate_s", fleet->world.simulate_s, "s");
    result.set_layer("gen.late_ms.p99", percentile(pass.reads.late_ms, 99), "ms");
    result.set_layer("gen.late_ms.max", percentile(pass.reads.late_ms, 100),
                     "ms");
    result.set_layer("obs.traced_rps_ratio", updates_per_s(traced) / ups,
                     "ratio");
    result.set_layer("obs.traced_p50_ratio",
                     median(traced.reads.window_p50_ms) / p50, "ratio");
  }

  result.phases.push_back(final_sweep(*fleet, state, reference_us));
  if (config.trace) {
    result.set_layer("core.predict_us_per_row", median(reference_us), "us");
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
