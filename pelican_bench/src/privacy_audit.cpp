// privacy_audit: the paper's A1 time-based model-inversion audit, in
// process, with no router, serve tier or store. A small world (campus,
// contributors, audited users) is simulated and its general and TL-FE
// models are trained fresh on every set-up. One audit pass attacks a fixed
// set of every audited user's training windows through core::DeployedModel
// at T = 1 and at the Pelican privacy temperature. A read phase then serves
// seeded top-k reads from both deployments, which must agree.
#include <algorithm>
#include <array>
#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>
#include <utility>

#include "attack/inversion.hpp"
#include "attack/prior.hpp"
#include "core/service.hpp"
#include "mobility/campus.hpp"
#include "mobility/persona.hpp"
#include "mobility/simulator.hpp"
#include "models/general.hpp"
#include "models/personalize.hpp"
#include "models/window_dataset.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace pelican::bench {

namespace {

constexpr std::size_t kBuildings = 20;
constexpr std::size_t kApsPerBuilding = 5;
constexpr std::size_t kContributors = 4;
constexpr std::size_t kAuditedUsers = 2;
constexpr std::size_t kHidden = 32;
constexpr int kWeeks = 3;
/// Training windows attacked per user and temperature.
constexpr std::size_t kWindowsPerUser = 8;
/// Top-k reads per temperature in the read phase.
constexpr std::size_t kReads = 1650;
constexpr std::array<double, 2> kTemperatures = {
    1.0, core::PrivacyLayer::kStrongTemperature};

/// The generated inputs: campus traces of contributors and audited users.
struct Inputs {
  mobility::EncodingSpec spec;
  std::vector<mobility::Window> pooled;  ///< contributors, for M_G
  std::vector<mobility::WindowSplit> users;
  double simulate_s = 0.0;

  [[nodiscard]] std::uint64_t hash() const {
    Fnv1a h;
    auto add = [&](const std::vector<mobility::Window>& windows) {
      for (const auto& window : windows) h.add_window(window);
    };
    add(pooled);
    for (const auto& split : users) {
      add(split.train);
      add(split.test);
    }
    return h.value();
  }
};

Inputs simulate_inputs(std::uint64_t seed) {
  const auto start = Clock::now();
  const Rng rng(seed);
  mobility::CampusConfig campus_config;
  campus_config.buildings = kBuildings;
  campus_config.mean_aps_per_building = kApsPerBuilding;
  const auto campus = mobility::Campus::generate(campus_config, rng.fork(1)());
  Inputs inputs;
  inputs.spec = mobility::EncodingSpec::for_campus(
      campus, mobility::SpatialLevel::kBuilding);
  const mobility::SimulationConfig sim{.weeks = kWeeks};
  auto windows_of = [&](std::uint32_t id) {
    Rng persona_rng = rng.fork(100 + id);
    const auto persona = mobility::generate_persona(
        campus, id, mobility::PersonaConfig{}, persona_rng);
    return mobility::make_windows(
        mobility::simulate(campus, persona, sim, rng.fork(10000 + id)),
        mobility::SpatialLevel::kBuilding);
  };
  for (std::uint32_t c = 0; c < kContributors; ++c) {
    const auto windows = windows_of(c);
    inputs.pooled.insert(inputs.pooled.end(), windows.begin(), windows.end());
  }
  for (std::uint32_t u = 0; u < kAuditedUsers; ++u) {
    inputs.users.push_back(mobility::split_windows(windows_of(1000 + u), 0.8));
    if (inputs.users.back().train.size() < kWindowsPerUser ||
        inputs.users.back().test.empty()) {
      throw std::runtime_error("audited user " + std::to_string(u) +
                               " has too few windows");
    }
  }
  inputs.simulate_s = seconds_since(start);
  return inputs;
}

/// Inputs plus the freshly trained models.
struct World {
  Inputs inputs;
  std::vector<nn::SequenceClassifier> models;  ///< TL-FE, per audited user
  double train_s = 0.0;
  double windows_trained = 0.0;
  double setup_s = 0.0;
};

World build_world(std::uint64_t seed) {
  const auto start = Clock::now();
  World world;
  world.inputs = simulate_inputs(seed);
  const auto& spec = world.inputs.spec;
  const auto train_start = Clock::now();
  models::GeneralModelConfig general_config;
  general_config.hidden_dim = kHidden;
  general_config.train.epochs = 2;
  general_config.train.lr = 2e-3;
  general_config.seed = seed;
  general_config.train.seed = seed;
  const auto general = models::train_general_model(
      models::WindowDataset(world.inputs.pooled, spec), general_config);
  world.windows_trained += static_cast<double>(world.inputs.pooled.size() *
                                               general_config.train.epochs);
  for (std::size_t u = 0; u < kAuditedUsers; ++u) {
    models::PersonalizationConfig config;
    config.method = models::PersonalizationMethod::kFeatureExtraction;
    config.train.epochs = 3;
    config.train.lr = 2e-3;
    config.seed = seed + u;
    config.train.seed = seed + u;
    const auto& train = world.inputs.users[u].train;
    world.models.push_back(
        models::personalize(general.model,
                            models::WindowDataset(train, spec), config)
            .model);
    world.windows_trained +=
        static_cast<double>(train.size() * config.train.epochs);
  }
  world.train_s = seconds_since(train_start);
  world.setup_s = seconds_since(start);
  return world;
}

/// Times every query into the deployment it wraps — the audit's view of
/// the model, measured from outside. Replicas share the totals, so the
/// parallel scorer's workers are all counted.
class TimedBlackBox final : public attack::BlackBoxModel {
 public:
  struct Totals {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> rows{0};
    std::mutex mutex;
    /// [start, end) of every query, for the time with any query in flight.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;

    [[nodiscard]] double busy_seconds() {
      const std::lock_guard lock(mutex);
      std::sort(spans.begin(), spans.end());
      double busy = 0.0;
      Clock::time_point covered{};
      for (const auto& [start, end] : spans) {
        const auto from = std::max(start, covered);
        if (end > from) busy += std::chrono::duration<double>(end - from).count();
        covered = std::max(covered, end);
      }
      return busy;
    }
  };

  TimedBlackBox(std::unique_ptr<attack::BlackBoxModel> inner,
                std::shared_ptr<Totals> totals)
      : inner_(std::move(inner)), totals_(std::move(totals)) {}

  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    return timed(input);
  }
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    return timed(input);
  }
  [[nodiscard]] std::unique_ptr<attack::BlackBoxModel> replicate() override {
    auto replica = inner_->replicate();
    if (replica == nullptr) return nullptr;
    return std::make_unique<TimedBlackBox>(std::move(replica), totals_);
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return inner_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return inner_->spec();
  }

 private:
  template <typename Input>
  nn::Matrix timed(const Input& input) {
    const auto start = Clock::now();
    nn::Matrix out = inner_->query(input);
    const auto end = Clock::now();
    totals_->ns.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count()));
    totals_->rows.fetch_add(input.empty() ? 0 : input.front().rows());
    const std::lock_guard lock(totals_->mutex);
    totals_->spans.emplace_back(start, end);
    return out;
  }

  std::unique_ptr<attack::BlackBoxModel> inner_;
  std::shared_ptr<Totals> totals_;
};

struct AuditPass {
  std::vector<double> call_ms;  ///< one run_inversion call: a user at one T
  double seconds = 0.0;
  double attack_s = 0.0;  ///< summed run_inversion wall time
  std::uint64_t queries = 0;
  std::uint64_t windows = 0;
  /// Windows hit at k = 1 and 3, per temperature.
  std::array<std::array<std::uint64_t, 2>, kTemperatures.size()> hits{};
};

AuditPass audit_pass(const World& world,
                     const std::shared_ptr<TimedBlackBox::Totals>& totals) {
  AuditPass pass;
  attack::InversionConfig config;
  config.adversary = attack::Adversary::kA1;
  config.method = attack::AttackMethod::kTimeBased;
  config.ks = {1, 3};
  config.max_windows = kWindowsPerUser;
  const auto start = Clock::now();
  for (std::size_t u = 0; u < kAuditedUsers; ++u) {
    const auto& split = world.inputs.users[u];
    for (std::size_t t = 0; t < kTemperatures.size(); ++t) {
      std::unique_ptr<attack::BlackBoxModel> box =
          std::make_unique<core::DeployedModel>(
              world.models[u].clone(), world.inputs.spec,
              core::PrivacyLayer(kTemperatures[t]),
              core::DeploymentSite::kInCloud);
      if (totals != nullptr) {
        box = std::make_unique<TimedBlackBox>(std::move(box), totals);
      }
      const auto prior = attack::make_prior(attack::PriorKind::kTrue,
                                            split.train, *box, split.test);
      const auto call = Clock::now();
      const auto result = attack::run_inversion(*box, split.train, split.test,
                                                prior, config);
      pass.call_ms.push_back(seconds_since(call) * 1e3);
      pass.attack_s += pass.call_ms.back() / 1e3;
      pass.queries += result.model_queries;
      pass.windows += result.windows_attacked;
      // Accuracies are hit fractions of the attacked windows; keep counts
      // so passes compare exactly.
      const double attacked = static_cast<double>(result.windows_attacked);
      pass.hits[t][0] += static_cast<std::uint64_t>(result.at_k(1) * attacked + 0.5);
      pass.hits[t][1] += static_cast<std::uint64_t>(result.at_k(3) * attacked + 0.5);
    }
  }
  pass.seconds = seconds_since(start);
  return pass;
}

/// The read phase: seeded top-k reads of the audited users' test windows,
/// each served by the T = 1 and the privacy-temperature deployment. Top-k
/// must be identical (the defense does not change the service). Every call
/// is timed; traced, the T = 1 calls also report their stage split.
struct ReadPhase {
  PhaseCounts counts;
  std::vector<double> latency_ms;  ///< one per predict_top_k_batch call
  std::vector<double> encode_ms;
  std::vector<double> forward_ms;
  std::vector<double> rank_ms;
};

ReadPhase read_phase(const World& world, std::uint64_t seed, bool traced) {
  ReadPhase phase;
  phase.counts.name = traced ? "topk_reads.traced" : "topk_reads";
  std::vector<std::array<core::DeployedModel, kTemperatures.size()>> deployed;
  for (std::size_t u = 0; u < kAuditedUsers; ++u) {
    auto deploy = [&](double temperature) {
      return core::DeployedModel(world.models[u].clone(), world.inputs.spec,
                                 core::PrivacyLayer(temperature),
                                 core::DeploymentSite::kInCloud);
    };
    deployed.push_back({deploy(kTemperatures[0]), deploy(kTemperatures[1])});
  }
  Rng rng = Rng(seed).fork(6);
  for (std::size_t i = 0; i < kReads; ++i) {
    const std::size_t u = rng.below(kAuditedUsers);
    const auto& test = world.inputs.users[u].test;
    const auto& window = test[rng.below(test.size())];
    std::array<std::vector<std::vector<std::uint16_t>>, kTemperatures.size()>
        answers;
    for (std::size_t t = 0; t < kTemperatures.size(); ++t) {
      core::PredictStageSeconds stages;
      const auto call = Clock::now();
      answers[t] = deployed[u][t].predict_top_k_batch(
          std::span(&window, 1), 3, traced ? &stages : nullptr);
      phase.latency_ms.push_back(seconds_since(call) * 1e3);
      if (traced && t == 0) {
        phase.encode_ms.push_back(stages.encode * 1e3);
        phase.forward_ms.push_back(stages.forward * 1e3);
        phase.rank_ms.push_back(stages.rank * 1e3);
      }
    }
    phase.counts.attempted += kTemperatures.size();
    phase.counts.ok += kTemperatures.size();
    if (answers[0] != answers[1]) ++phase.counts.wrong;
  }
  return phase;
}

/// Median over windows of kWindowReads consecutive samples of each
/// window's percentile `q`.
double windowed_percentile(const std::vector<double>& samples, double q) {
  std::vector<double> per_window;
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / kWindowReads);
  const std::size_t size = samples.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    per_window.push_back(percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(w * size),
                            samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * size)),
        q));
  }
  return median(per_window);
}

/// Audit passes until `seconds` are spent (at least two, so the accuracy
/// repeat check always has a pair).
std::vector<AuditPass> audit_for(const World& world, double seconds,
                                 const std::shared_ptr<TimedBlackBox::Totals>& totals) {
  std::vector<AuditPass> passes;
  const auto start = Clock::now();
  while (passes.size() < 2 || seconds_since(start) < seconds) {
    passes.push_back(audit_pass(world, totals));
  }
  return passes;
}

std::vector<double> call_ms_of(const std::vector<AuditPass>& passes) {
  std::vector<double> all;
  for (const auto& pass : passes) {
    all.insert(all.end(), pass.call_ms.begin(), pass.call_ms.end());
  }
  return all;
}

double users_per_s(const std::vector<AuditPass>& passes) {
  std::vector<double> rates;
  for (const auto& pass : passes) {
    rates.push_back(static_cast<double>(kAuditedUsers) / pass.seconds);
  }
  return median(rates);
}

void account(RunResult& result, const std::string& name,
             const std::vector<AuditPass>& passes) {
  PhaseCounts counts;
  counts.name = name;
  for (const auto& pass : passes) {
    const std::uint64_t planned =
        kAuditedUsers * kTemperatures.size() * kWindowsPerUser;
    counts.attempted += planned;
    counts.ok += pass.windows;
    counts.failed += planned - pass.windows;
    if (pass.hits != passes.front().hits) ++counts.wrong;
  }
  result.phases.push_back(counts);
  result.check(counts.wrong == 0,
               name + ": attack accuracy differs between audit passes");
}

}  // namespace

RunResult run_privacy_audit(const RunConfig& config) {
  RunResult result;
  std::vector<double> setup_times;
  World world;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    world = build_world(config.seed);
    setup_times.push_back(world.setup_s);
    std::cout << "setup " << rep << ": " << world.setup_s << " s (simulate "
              << world.inputs.simulate_s << ", train " << world.train_s
              << ")\n";
  }

  // Audit passes get 80% of the run; the read phase is a fixed count.
  const ProcSample before = read_self();
  const auto passes = audit_for(world, 0.8 * config.seconds, nullptr);
  const ProcSample after = read_self();
  account(result, "audit", passes);
  const ReadPhase reads = read_phase(world, config.seed, /*traced=*/false);
  result.phases.push_back(reads.counts);

  const double ups = users_per_s(passes);
  const double p50 = median(call_ms_of(passes));
  result.set_e2e("setup_s", median(setup_times), "s");
  result.set_e2e("ops_per_s", ups, "1/s");
  result.set_e2e("p50_ms", p50, "ms");
  result.set_e2e("cpu_us_per_op",
                 (after.cpu_s - before.cpu_s) * 1e6 /
                     static_cast<double>(kAuditedUsers * passes.size()),
                 "us");

  const auto& pass = passes.front();
  const double windows = static_cast<double>(kAuditedUsers * kWindowsPerUser);
  std::cout << "audit: " << passes.size() << " passes of " << kAuditedUsers
            << " users x " << kWindowsPerUser << " windows x "
            << kTemperatures.size() << " temperatures, audit_s_per_user "
            << 1.0 / ups << " s\ntop-k reads: p50 "
            << windowed_percentile(reads.latency_ms, 50) << " ms, p90 "
            << windowed_percentile(reads.latency_ms, 90) << " ms, p99 "
            << windowed_percentile(reads.latency_ms, 99)
            << " ms (medians over windows; not gated)\n";
  for (std::size_t t = 0; t < kTemperatures.size(); ++t) {
    std::cout << "  T = " << kTemperatures[t] << ": attack top-1 "
              << static_cast<double>(pass.hits[t][0]) / windows << ", top-3 "
              << static_cast<double>(pass.hits[t][1]) / windows << "\n";
  }

  if (config.trace) {
    auto totals = std::make_shared<TimedBlackBox::Totals>();
    const auto traced = audit_for(world, 0.8 * config.seconds, totals);
    account(result, "audit.traced", traced);
    const ReadPhase traced_reads =
        read_phase(world, config.seed, /*traced=*/true);
    result.phases.push_back(traced_reads.counts);
    double attack_s = 0.0;
    double queries = 0.0;
    double attacked = 0.0;
    for (const auto& p : traced) {
      attack_s += p.attack_s;
      queries += static_cast<double>(p.queries);
      attacked += static_cast<double>(p.windows);
    }
    const double model_s = static_cast<double>(totals->ns.load()) / 1e9;
    result.set_layer("core.predict_us_per_row",
                     model_s * 1e6 / static_cast<double>(totals->rows.load()),
                     "us");
    result.set_layer("core.encode_ms.p50",
                     percentile(traced_reads.encode_ms, 50), "ms");
    result.set_layer("core.forward_ms.p50",
                     percentile(traced_reads.forward_ms, 50), "ms");
    result.set_layer("core.forward_ms.p99",
                     percentile(traced_reads.forward_ms, 99), "ms");
    result.set_layer("core.rank_ms.p50", percentile(traced_reads.rank_ms, 50),
                     "ms");
    result.set_layer("attack.queries_per_window", queries / attacked, "count");
    result.set_layer("attack.queries_per_s", queries / attack_s, "1/s");
    // Share of the attack's wall time with no query in flight.
    result.set_layer("attack.self_share",
                     1.0 - totals->busy_seconds() / attack_s, "ratio");
    result.set_layer("models.train_us_per_window",
                     world.train_s * 1e6 / world.windows_trained, "us");
    result.set_layer("mobility.simulate_s", world.inputs.simulate_s, "s");
    result.set_layer("obs.traced_rps_ratio", users_per_s(traced) / ups,
                     "ratio");
    result.set_layer("obs.traced_p50_ratio", median(call_ms_of(traced)) / p50,
                     "ratio");
    nn::SequenceClassifier model = world.models.front().clone();
    probe_nn(result, model, world.inputs.users.front().train,
             world.inputs.spec);
  }

  const std::uint64_t hash = world.inputs.hash();
  const std::uint64_t replay = simulate_inputs(config.seed).hash();
  const std::uint64_t held_out =
      simulate_inputs(held_out_seed(config.seed)).hash();
  std::cout << "input hash " << std::hex << hash << " replay " << replay
            << std::dec << " held-out seed " << held_out_seed(config.seed)
            << " hash " << std::hex << held_out << std::dec << "\n";
  result.check(hash == replay, "inputs differ for the same seed");
  result.check(hash != held_out, "held-out seed gives the same inputs");
  result.set_e2e("rss_mb", read_self().hwm_mb, "MB");
  return result;
}

}  // namespace pelican::bench
