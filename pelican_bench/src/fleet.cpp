#include "fleet.hpp"

#include <unistd.h>

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/service.hpp"
#include "mobility/campus.hpp"
#include "mobility/persona.hpp"
#include "mobility/simulator.hpp"
#include "nn/lstm.hpp"

namespace pelican::bench {

namespace {

/// Every 61st request of a phase is kept for the answer check.
constexpr std::size_t kSampleEvery = 61;

/// Seed of the fixed user popularity ranking.
constexpr std::uint64_t kRankingSeed = 2021;

/// Threads that build, write and deploy the models during set-up.
constexpr std::size_t kSetupThreads = 4;

Clock::time_point offset(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

TraceWorld simulate_world(std::uint64_t seed, const FleetScale& scale) {
  const auto start = Clock::now();
  const Rng rng(seed);
  mobility::CampusConfig campus_config;
  campus_config.buildings = scale.buildings;
  campus_config.mean_aps_per_building = scale.aps_per_building;
  const auto campus = mobility::Campus::generate(campus_config, rng.fork(1)());
  TraceWorld world;
  world.spec = mobility::EncodingSpec::for_campus(
      campus, mobility::SpatialLevel::kBuilding);
  const mobility::SimulationConfig sim{.weeks = scale.weeks};
  world.windows.resize(scale.sim_users);
  for (std::uint32_t u = 0; u < scale.sim_users; ++u) {
    Rng persona_rng = rng.fork(100 + u);
    const auto persona = mobility::generate_persona(
        campus, u, mobility::PersonaConfig{}, persona_rng);
    const auto trajectory =
        mobility::simulate(campus, persona, sim, rng.fork(10000 + u));
    world.windows[u] =
        mobility::make_windows(trajectory, mobility::SpatialLevel::kBuilding);
    if (world.windows[u].empty()) {
      throw std::runtime_error("persona " + std::to_string(u) +
                               " produced no windows");
    }
  }
  world.simulate_s = seconds_since(start);
  return world;
}

nn::SequenceClassifier make_trunk(const mobility::EncodingSpec& spec,
                                  std::size_t hidden, std::uint64_t seed) {
  Rng rng = Rng(seed).fork(2);
  nn::SequenceClassifier trunk = nn::make_two_layer_lstm(
      spec.input_dim(), hidden, spec.num_locations, /*dropout_rate=*/0.1, rng);
  for (std::size_t i = 0; i < trunk.layer_count(); ++i) {
    trunk.layer(i).set_trainable(false);
  }
  return trunk;
}

nn::SequenceClassifier make_user_model(const nn::SequenceClassifier& trunk,
                                       std::uint32_t user, std::uint64_t seed) {
  Rng rng = Rng(seed).fork(0x10000 + user);
  nn::SequenceClassifier model = trunk.clone();
  const std::size_t hidden = model.head().input_dim();
  model.insert_layer(model.layer_count(),
                     std::make_unique<nn::Lstm>(hidden, hidden, rng));
  model.set_head(nn::Linear(hidden, model.num_classes(), rng));
  model.head().set_trainable(true);
  return model;
}

std::vector<ProcSample> Fleet::sample_engines() const {
  std::vector<ProcSample> samples{read_self()};
  for (std::size_t i = 0; i < processes->size(); ++i) {
    samples.push_back(read_proc(processes->pid(i)));
  }
  return samples;
}

double Fleet::store_bytes() const {
  double bytes = 0.0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root / "store")) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

void Fleet::teardown() {
  if (router != nullptr && processes != nullptr) {
    router->drain_fleet();
    for (std::size_t i = 0; i < processes->size(); ++i) {
      (void)processes->reap(i);
    }
  }
  router.reset();
  processes.reset();
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

Fleet::~Fleet() {
  router.reset();
  processes.reset();  // SIGKILLs whatever was not drained
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
}

std::unique_ptr<Fleet> start_fleet(const RunConfig& config,
                                   const FleetScale& scale,
                                   const std::filesystem::path& root) {
  const auto start = Clock::now();
  auto fleet = std::make_unique<Fleet>();
  fleet->root = root;
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  fleet->world = simulate_world(config.seed, scale);

  // Models are built and written from kSetupThreads threads, each through
  // its own ModelStore over the shared root (users are disjoint).
  auto phase = Clock::now();
  const nn::SequenceClassifier trunk =
      make_trunk(fleet->world.spec, scale.hidden, config.seed);
  std::vector<double> put_s(kSetupThreads, 0.0);
  run_threads(kSetupThreads, [&](std::size_t t) {
    store::ModelStore writer(
        std::make_unique<store::FilesystemBackend>(root / "store"));
    for (std::size_t user = t; user < scale.users; user += kSetupThreads) {
      const auto id = static_cast<std::uint32_t>(user);
      nn::SequenceClassifier model = make_user_model(trunk, id, config.seed);
      const auto put_start = Clock::now();
      writer.put({kScope, id, 1}, std::move(model));
      put_s[t] += seconds_since(put_start);
    }
  });
  const double build_and_put_s = seconds_since(phase);
  // Wall-clock split of the parallel phase, in proportion to the threads'
  // summed put time.
  double put_total = 0.0;
  for (const double s : put_s) put_total += s;
  const double put_share =
      put_total / (static_cast<double>(kSetupThreads) * build_and_put_s);
  fleet->populate_s = build_and_put_s * put_share;
  fleet->build_s = build_and_put_s - fleet->populate_s;
  fleet->store = std::make_unique<store::ModelStore>(
      std::make_unique<store::FilesystemBackend>(root / "store"));

  phase = Clock::now();
  router::LocalFleetConfig fleet_config;
  fleet_config.root = root;
  fleet_config.processes = scale.processes;
  fleet_config.scope = kScope;
  fleet_config.engined_binary = config.engined;
  fleet->processes = std::make_unique<router::LocalFleet>(fleet_config);
  fleet->router = std::make_unique<router::Router>();
  fleet->router->set_instrumentation(false);
  for (const auto& address : fleet->processes->addresses()) {
    (void)fleet->router->add_backend(address);
  }
  fleet->spawn_s = seconds_since(phase);

  // Each user's deploy makes its engine load the model from the store.
  phase = Clock::now();
  fleet->deploy_ms.assign(scale.users, 0.0);
  run_threads(kSetupThreads, [&](std::size_t t) {
    for (std::size_t user = t; user < scale.users; user += kSetupThreads) {
      const auto call = Clock::now();
      fleet->router->deploy(static_cast<std::uint32_t>(user), 1,
                            fleet->world.spec, /*temperature=*/1.0);
      fleet->deploy_ms[user] = ms_between(call, Clock::now());
    }
  });
  fleet->deploy_s = seconds_since(phase);
  fleet->setup_s = seconds_since(start);
  return fleet;
}

std::unique_ptr<Fleet> start_fleet_repeated(const RunConfig& config,
                                            const FleetScale& scale,
                                            std::size_t reps,
                                            std::vector<double>& setup_times) {
  std::unique_ptr<Fleet> fleet;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (fleet != nullptr) fleet->teardown();
    fleet.reset();
    fleet = start_fleet(config, scale, "fleet" + std::to_string(rep));
    setup_times.push_back(fleet->setup_s);
    // Flush the store's dirty pages now, so their writeback does not land
    // in a timed phase.
    ::sync();
    std::cout << "setup " << rep << ": " << std::fixed << std::setprecision(3)
              << fleet->setup_s << " s (simulate " << fleet->world.simulate_s
              << ", build " << fleet->build_s << ", populate "
              << fleet->populate_s << ", spawn " << fleet->spawn_s
              << ", deploy " << fleet->deploy_s << ")\n"
              << std::defaultfloat;
  }
  return fleet;
}

Traffic make_traffic(const FleetScale& scale) {
  Traffic traffic{Zipf(scale.users, 1.0), {}, scale.k};
  traffic.rank_to_user.resize(scale.users);
  for (std::uint32_t u = 0; u < scale.users; ++u) traffic.rank_to_user[u] = u;
  // The popularity ranking is part of the workload, not of the seed: every
  // seed loads the engines with the same hot users, and the seed draws the
  // request stream from it.
  Rng rng(kRankingSeed);
  rng.shuffle(traffic.rank_to_user);
  return traffic;
}

std::uint32_t Traffic::draw_user(Rng& rng) const {
  return rank_to_user[zipf(rng)];
}

serve::PredictRequest Traffic::draw_read(const TraceWorld& world,
                                         Rng& rng) const {
  serve::PredictRequest request;
  request.user_id = draw_user(rng);
  const auto& windows = world.of_user(request.user_id);
  request.window = windows[rng.below(windows.size())];
  request.k = k;
  return request;
}

ReadSchedule open_schedule(const TraceWorld& world, const Traffic& traffic,
                           Rng& rng, double rate, double seconds) {
  ReadSchedule schedule;
  for (double t = exponential_gap(rng, rate); t < seconds;
       t += exponential_gap(rng, rate)) {
    schedule.due_s.push_back(t);
    schedule.requests.push_back(traffic.draw_read(world, rng));
  }
  return schedule;
}

ReadSchedule closed_pool(const TraceWorld& world, const Traffic& traffic,
                         Rng& rng, std::size_t count) {
  ReadSchedule schedule;
  schedule.requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    schedule.requests.push_back(traffic.draw_read(world, rng));
  }
  return schedule;
}

void hash_schedule(Fnv1a& hash, const ReadSchedule& schedule) {
  for (const double due : schedule.due_s) hash.add_value(due);
  for (const auto& request : schedule.requests) {
    hash.add_value(request.user_id);
    hash.add_value(request.k);
    hash.add_window(request.window);
  }
}

std::uint64_t check_answers(const Fleet& fleet,
                            const std::vector<SampledAnswer>& sampled,
                            std::vector<double>& reference_us) {
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<const SampledAnswer*>>
      by_model;
  for (const auto& answer : sampled) {
    by_model[{answer.request.user_id, answer.response.model_version}]
        .push_back(&answer);
  }
  std::uint64_t wrong = 0;
  for (const auto& [key, answers] : by_model) {
    auto model = fleet.store->find({kScope, key.first, key.second});
    if (!model.has_value()) {
      wrong += answers.size();
      continue;
    }
    core::DeployedModel reference(std::move(*model), fleet.world.spec,
                                  core::PrivacyLayer(1.0),
                                  core::DeploymentSite::kInCloud, key.second);
    for (const SampledAnswer* answer : answers) {
      const auto start = Clock::now();
      const auto expected =
          reference.predict_top_k(answer->request.window, answer->request.k);
      reference_us.push_back(ms_between(start, Clock::now()) * 1e3);
      if (expected != answer->response.locations) ++wrong;
    }
  }
  return wrong;
}

OpenLoopResult run_open_loop(
    Fleet& fleet, const ReadSchedule& schedule, std::size_t senders,
    std::uint64_t trace_base,
    const std::vector<std::atomic<std::uint32_t>>* acked) {
  router::Router& router = *fleet.router;
  const std::size_t n = schedule.requests.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kWindowReads);
  const double window_s = n == 0 ? 1.0 : schedule.due_s.back() / windows;
  OpenLoopResult result;
  result.counts.attempted = n;
  result.latency_ms.assign(n, kInf);
  result.late_ms.assign(n, 0.0);
  std::vector<std::uint8_t> outcome(n, 0);  // 1 ok, 2 failed, 3 shed
  std::vector<std::uint8_t> stale(n, 0);

  std::mutex claim;
  std::size_t next = 0;
  std::mutex merge;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::size_t i) { return offset(start, schedule.due_s[i]); };

  auto sender = [&] {
    std::vector<double> serve_ms;
    std::vector<SampledAnswer> sampled;
    std::vector<serve::PredictRequest> batch;
    std::vector<std::uint32_t> floors;
    for (;;) {
      std::size_t begin = 0;
      std::size_t end = 0;
      {
        std::unique_lock lock(claim);
        if (next >= n) break;
        const auto now = Clock::now();
        if (due(next) > now) {
          const auto wake = due(next);
          lock.unlock();
          std::this_thread::sleep_until(wake);
          continue;
        }
        begin = next;
        end = begin;
        while (end < n && due(end) <= now) ++end;
        next = end;
      }
      batch.assign(schedule.requests.begin() + static_cast<std::ptrdiff_t>(begin),
                   schedule.requests.begin() + static_cast<std::ptrdiff_t>(end));
      floors.assign(batch.size(), 0);
      for (std::size_t j = 0; j < batch.size(); ++j) {
        if (trace_base != 0) batch[j].trace_id = trace_base + 2 * (begin + j);
        if (acked != nullptr) {
          floors[j] =
              (*acked)[batch[j].user_id].load(std::memory_order_acquire);
        }
      }
      const auto sent = Clock::now();
      for (std::size_t i = begin; i < end; ++i) {
        result.late_ms[i] = ms_between(due(i), sent);
      }
      std::vector<serve::PredictResponse> responses(batch.size());
      try {
        responses = router.serve(batch);
      } catch (const std::exception& error) {
        std::cerr << "serve failed: " << error.what() << "\n";
      }
      const auto done = Clock::now();
      serve_ms.push_back(ms_between(sent, done));
      for (std::size_t j = 0; j < responses.size(); ++j) {
        const std::size_t i = begin + j;
        const auto& response = responses[j];
        if (response.ok) {
          outcome[i] = 1;
          result.latency_ms[i] = ms_between(due(i), done);
          if (response.model_version < floors[j]) stale[i] = 1;
          if (i % kSampleEvery == 0) sampled.push_back({batch[j], response});
        } else {
          outcome[i] = response.rejected ? 3 : 2;
        }
      }
    }
    const std::lock_guard lock(merge);
    result.serve_ms.insert(result.serve_ms.end(), serve_ms.begin(),
                           serve_ms.end());
    result.sampled.insert(result.sampled.end(), sampled.begin(), sampled.end());
  };

  // jthreads join on every exit path; the senders end with the schedule.
  std::vector<std::jthread> threads;
  for (std::size_t s = 0; s < senders; ++s) threads.emplace_back(sender);
  // CPU of every process at each window boundary.
  std::vector<double> cpu_at;
  auto cpu_now = [&] {
    double cpu = 0.0;
    for (const auto& sample : fleet.sample_engines()) cpu += sample.cpu_s;
    return cpu;
  };
  cpu_at.push_back(cpu_now());
  for (std::size_t w = 1; w <= windows; ++w) {
    const auto boundary = offset(start, w * window_s);
    while (Clock::now() + std::chrono::milliseconds(50) < boundary) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      result.threads_peak = std::max(result.threads_peak, read_self().threads);
    }
    std::this_thread::sleep_until(boundary);
    cpu_at.push_back(cpu_now());
  }
  for (auto& thread : threads) thread.join();
  std::vector<std::vector<double>> by_window(windows);
  std::vector<double> ok_in_window(windows, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    result.counts.ok += outcome[i] == 1;
    result.counts.failed += outcome[i] == 2;
    result.counts.shed += outcome[i] == 3;
    result.stale += stale[i];
    const auto w = std::min(windows - 1, static_cast<std::size_t>(
                                             schedule.due_s[i] / window_s));
    by_window[w].push_back(result.latency_ms[i]);
    ok_in_window[w] += outcome[i] == 1;
  }
  // The first window is the open loop's own warmup (the load just switched
  // from the closed-loop warmup) and is not reported.
  for (std::size_t w = windows > 1 ? 1 : 0; w < windows; ++w) {
    result.window_p50_ms.push_back(percentile(by_window[w], 50));
    result.window_p90_ms.push_back(percentile(by_window[w], 90));
    result.window_p99_ms.push_back(percentile(by_window[w], 99));
    result.window_cpu_us_per_op.push_back(
        (cpu_at[w + 1] - cpu_at[w]) * 1e6 / std::max(1.0, ok_in_window[w]));
  }
  result.counts.wrong = result.stale;
  return result;
}

ClosedLoopResult run_closed_loop(router::Router& router,
                                 const ReadSchedule& pool, std::size_t clients,
                                 std::size_t batch, double seconds,
                                 std::uint64_t trace_base) {
  ClosedLoopResult result;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok_total{0};
  std::mutex merge;
  const std::size_t slice = pool.requests.size() / clients;

  auto client = [&](std::size_t c) {
    PhaseCounts counts;
    std::vector<SampledAnswer> sampled;
    std::vector<serve::PredictRequest> requests(batch);
    std::size_t cursor = 0;
    std::uint64_t calls = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& request : requests) {
        const std::size_t i = c * slice + cursor++ % slice;
        request = pool.requests[i];
        if (trace_base != 0) {
          request.trace_id = trace_base + 2 * (cursor * clients + c);
        }
      }
      std::vector<serve::PredictResponse> responses(requests.size());
      try {
        responses = router.serve(requests);
      } catch (const std::exception& error) {
        std::cerr << "serve failed: " << error.what() << "\n";
      }
      std::uint64_t ok = 0;
      for (const auto& response : responses) {
        ++counts.attempted;
        if (response.ok) {
          ++ok;
        } else if (response.rejected) {
          ++counts.shed;
        } else {
          ++counts.failed;
        }
      }
      counts.ok += ok;
      ok_total.fetch_add(ok, std::memory_order_relaxed);
      if (calls++ % 8 == 0 && responses.front().ok) {
        sampled.push_back({requests.front(), responses.front()});
      }
    }
    const std::lock_guard lock(merge);
    result.counts.add(counts);
    result.sampled.insert(result.sampled.end(), sampled.begin(), sampled.end());
  };

  const auto start = Clock::now();
  std::vector<std::jthread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  const StopOnExit stop_clients(stop);
  constexpr double kInterval = 0.25;
  std::uint64_t last_ok = 0;
  auto last = start;
  for (std::size_t tick = 1; tick * kInterval <= seconds + 1e-9; ++tick) {
    std::this_thread::sleep_until(offset(start, tick * kInterval));
    const auto now = Clock::now();
    const std::uint64_t ok = ok_total.load(std::memory_order_relaxed);
    result.interval_rps.push_back(static_cast<double>(ok - last_ok) /
                                  std::chrono::duration<double>(now - last).count());
    result.threads_peak = std::max(result.threads_peak, read_self().threads);
    last_ok = ok;
    last = now;
  }
  stop.store(true);
  for (auto& thread : threads) thread.join();
  return result;
}

FleetSnapshot snapshot(router::Router& router) {
  const auto metrics = router.fleet_metrics();
  FleetSnapshot snap;
  snap.registry = metrics.registry;
  for (const auto& [address, report] : metrics.engines) {
    snap.engine_stats.requests += report.stats.requests;
    snap.engine_stats.shed += report.stats.shed;
    snap.engine_stats.batches += report.stats.batches;
    snap.engine_stats.batch_rows += report.stats.batch_rows;
  }
  return snap;
}

void traced_read_layers(RunResult& result, const OpenLoopResult& phase,
                        const FleetSnapshot& before, const FleetSnapshot& after,
                        const std::vector<ProcSample>& proc_before,
                        const std::vector<ProcSample>& proc_after) {
  auto delta = [&](const std::string& name) {
    return histogram_delta(find_histogram(before.registry, name),
                           find_histogram(after.registry, name));
  };
  auto counter_delta = [&](const std::string& name) {
    return static_cast<double>(find_counter(after.registry, name) -
                               find_counter(before.registry, name));
  };
  auto p = [](const obs::HistogramState& h, double q) {
    return h.count == 0 ? 0.0 : obs::Histogram::percentile_of(h, q);
  };
  auto mean = [](const obs::HistogramState& h) {
    return h.count == 0 ? 0.0 : h.sum / static_cast<double>(h.count);
  };

  const auto serialize = delta("stage_wire_serialize_ms");
  const auto fanout = delta("stage_router_fanout_ms");
  const auto admission = delta("stage_admission_ms");
  const auto queue_wait = delta("stage_queue_wait_ms");
  const auto assembly = delta("stage_batch_assembly_ms");
  const auto encode = delta("stage_encode_ms");
  const auto forward = delta("stage_forward_ms");
  const auto rank = delta("stage_rank_topk_ms");

  const double ok = std::max<double>(1.0, static_cast<double>(phase.counts.ok));
  const double kreq =
      std::max<double>(1.0, static_cast<double>(phase.counts.attempted)) / 1e3;
  double serve_total = 0.0;
  for (const double ms : phase.serve_ms) serve_total += ms;
  const double serve_per_call =
      serve_total / std::max<double>(1.0, static_cast<double>(phase.serve_ms.size()));
  // Backend groups of one call are forwarded in parallel, so the router's
  // attributed time per call is one group's serialize + fan-out (the mean
  // over groups), not their sum.
  const double groups = std::max<double>(1.0, static_cast<double>(fanout.count));
  const double router_serialize = serialize.sum / groups;
  const double router_fanout = fanout.sum / groups;
  const double router_unattributed =
      serve_per_call - router_serialize - router_fanout;
  // Chunks of one exchange run in parallel on the engine's pool, so the
  // engine's time per exchange is a request's admission + queue wait plus
  // one (mean) chunk's assembly + encode + forward + rank.
  const double engine_wait = mean(admission) + mean(queue_wait);
  const double engine_chunk =
      mean(assembly) + mean(encode) + mean(forward) + mean(rank);
  const double engine_unattributed = router_fanout - engine_wait - engine_chunk;

  result.set_layer("router.serve_ms.p50", percentile(phase.serve_ms, 50), "ms");
  result.set_layer("router.serve_ms.p99", percentile(phase.serve_ms, 99), "ms");
  result.set_layer("router.fanout_ms.p50", p(fanout, 50), "ms");
  result.set_layer("router.fanout_ms.p99", p(fanout, 99), "ms");
  result.set_layer("router.serialize_ms.p50", p(serialize, 50), "ms");
  result.set_layer("router.hedges_per_kreq",
                   counter_delta("router_hedges_total") / kreq, "count");
  result.set_layer("router.retries_per_kreq",
                   counter_delta("router_retry_rounds_total") / kreq, "count");
  result.set_layer("router.unattributed_share",
                   serve_per_call > 0 ? router_unattributed / serve_per_call : 0,
                   "ratio");
  result.set_layer("router.ctx_switches_per_req",
                   (proc_after[0].voluntary_cs - proc_before[0].voluntary_cs +
                    proc_after[0].involuntary_cs - proc_before[0].involuntary_cs) /
                       ok,
                   "count");

  const double batches = static_cast<double>(after.engine_stats.batches -
                                             before.engine_stats.batches);
  const double rows = static_cast<double>(after.engine_stats.batch_rows -
                                          before.engine_stats.batch_rows);
  const double engine_requests = static_cast<double>(
      after.engine_stats.requests - before.engine_stats.requests);
  const double engine_shed =
      static_cast<double>(after.engine_stats.shed - before.engine_stats.shed);
  result.set_layer("serve.mean_batch", batches > 0 ? rows / batches : 0.0,
                   "rows");
  result.set_layer("serve.queue_wait_ms.p50", p(queue_wait, 50), "ms");
  result.set_layer("serve.queue_wait_ms.p99", p(queue_wait, 99), "ms");
  result.set_layer("serve.batch_assembly_ms.p50", p(assembly, 50), "ms");
  result.set_layer("serve.shed_per_kreq",
                   engine_requests + engine_shed > 0
                       ? 1e3 * engine_shed / (engine_requests + engine_shed)
                       : 0.0,
                   "count");
  result.set_layer("serve.unattributed_share",
                   router_fanout > 0 ? engine_unattributed / router_fanout : 0,
                   "ratio");
  double engine_cpu = 0.0;
  double engine_threads = 0.0;
  double engine_cs = 0.0;
  double engine_rss = 0.0;
  for (std::size_t i = 1; i < proc_after.size(); ++i) {
    const ProcSample d = proc_delta(proc_before[i], proc_after[i]);
    engine_cpu += d.cpu_s;
    engine_threads += d.threads;
    engine_cs += d.voluntary_cs + d.involuntary_cs;
    engine_rss += d.hwm_mb;
  }
  result.set_layer("serve.engine_cpu_us_per_req", engine_cpu * 1e6 / ok, "us");
  result.set_layer("serve.engine_threads", engine_threads, "count");
  result.set_layer("serve.engine_ctx_switches_per_req", engine_cs / ok, "count");
  result.set_layer("serve.engine_rss_mb", engine_rss, "MB");

  result.set_layer("core.encode_ms.p50", p(encode, 50), "ms");
  result.set_layer("core.forward_ms.p50", p(forward, 50), "ms");
  result.set_layer("core.forward_ms.p99", p(forward, 99), "ms");
  result.set_layer("core.rank_ms.p50", p(rank, 50), "ms");

  // The stage-share table: where one routed read's time goes, outside in.
  auto row = [&](const char* layer, const char* stage, double ms,
                 double whole) {
    std::cout << "  " << std::left << std::setw(8) << layer << std::setw(26)
              << stage << std::right << std::setw(10) << std::fixed
              << std::setprecision(4) << ms << " ms " << std::setw(7)
              << std::setprecision(1) << (whole > 0 ? 100.0 * ms / whole : 0.0)
              << " %\n"
              << std::defaultfloat;
  };
  std::cout << "stage shares of one traced serve() call (" << phase.serve_ms.size()
            << " calls, " << fanout.count << " backend exchanges):\n";
  row("router", "serve() call", serve_per_call, serve_per_call);
  row("router", "wire serialize", router_serialize, serve_per_call);
  row("router", "fan-out (wire + engine)", router_fanout, serve_per_call);
  row("router", "unattributed", router_unattributed, serve_per_call);
  std::cout << "  engine shares are of the fan-out time:\n";
  row("engine", "admission", mean(admission), router_fanout);
  row("engine", "queue wait", mean(queue_wait), router_fanout);
  row("engine", "batch assembly", mean(assembly), router_fanout);
  row("engine", "encode", mean(encode), router_fanout);
  row("engine", "forward", mean(forward), router_fanout);
  row("engine", "rank top-k", mean(rank), router_fanout);
  row("engine", "unattributed", engine_unattributed, router_fanout);
}

}  // namespace pelican::bench
