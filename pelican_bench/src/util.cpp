#include "util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace pelican::bench {

namespace {

double field_kb_to_mb(const std::string& line) {
  std::istringstream in(line.substr(line.find(':') + 1));
  double kb = 0.0;
  in >> kb;
  return kb / 1024.0;
}

double field_value(const std::string& line) {
  std::istringstream in(line.substr(line.find(':') + 1));
  double value = 0.0;
  in >> value;
  return value;
}

}  // namespace

ProcSample read_proc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  ProcSample sample;
  {
    std::ifstream stat(dir + "/stat");
    std::string text;
    if (!stat || !std::getline(stat, text)) {
      throw std::runtime_error("cannot read " + dir + "/stat");
    }
    // Fields after the parenthesised command name (which may hold spaces):
    // field 3 is the state; utime/stime are fields 14/15, num_threads 20.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::vector<std::string> fields;
    for (std::string f; rest >> f;) fields.push_back(f);
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    sample.cpu_s = (std::stod(fields.at(11)) + std::stod(fields.at(12))) / tick;
    sample.threads = std::stod(fields.at(17));
  }
  std::ifstream status(dir + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) sample.hwm_mb = field_kb_to_mb(line);
  }
  // Context switches are counted per thread: sum over the live ones.
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator(dir + "/task", ec)) {
    std::ifstream task_status(task.path() / "status");
    for (std::string line; std::getline(task_status, line);) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        sample.voluntary_cs += field_value(line);
      } else if (line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        sample.involuntary_cs += field_value(line);
      }
    }
  }
  return sample;
}

ProcSample read_self() {
  // getrusage has microsecond CPU times and also counts the switches of
  // threads that already exited (the router's per-exchange threads are
  // short-lived).
  ProcSample sample = read_proc(::getpid());
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  sample.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  sample.voluntary_cs = static_cast<double>(usage.ru_nvcsw);
  sample.involuntary_cs = static_cast<double>(usage.ru_nivcsw);
  return sample;
}

ProcSample proc_delta(const ProcSample& before, const ProcSample& after) {
  ProcSample delta = after;
  delta.cpu_s = after.cpu_s - before.cpu_s;
  delta.voluntary_cs = after.voluntary_cs - before.voluntary_cs;
  delta.involuntary_cs = after.involuntary_cs - before.involuntary_cs;
  return delta;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi]) || lo == hi) return values[hi];
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

obs::HistogramState histogram_delta(const obs::HistogramState& before,
                                    const obs::HistogramState& after) {
  obs::HistogramState delta = after;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  delta.invalid = after.invalid - before.invalid;
  if (!before.buckets.empty()) {
    for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= before.buckets[i];
    }
  }
  return delta;
}

obs::HistogramState find_histogram(const obs::RegistryState& state,
                                   const std::string& name) {
  for (const auto& [key, histogram] : state.histograms) {
    if (key == name) return histogram;
  }
  return {};
}

std::uint64_t find_counter(const obs::RegistryState& state,
                           const std::string& name) {
  for (const auto& [key, value] : state.counters) {
    if (key == name) return value;
  }
  return 0;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double exponential_gap(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform()) / rate;
}

void Fnv1a::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::add_window(const mobility::Window& window) {
  for (const auto& step : window.steps) {
    add_value(step.entry_bin);
    add_value(step.duration_bin);
    add_value(step.day_of_week);
    add_value(step.location);
  }
  add_value(window.next_location);
}

void PhaseCounts::add(const PhaseCounts& other) {
  attempted += other.attempted;
  ok += other.ok;
  failed += other.failed;
  shed += other.shed;
  wrong += other.wrong;
}

PhaseCounts RunResult::totals() const {
  PhaseCounts total;
  total.name = "total";
  for (const auto& phase : phases) total.add(phase);
  return total;
}

void print_metrics(const std::string& title,
                   const std::map<std::string, Metric>& metrics) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << "  " << std::left << std::setw(34) << name << std::right
              << std::setw(16) << std::setprecision(6) << metric.value << " "
              << metric.unit << "\n";
  }
}

void print_phase(const PhaseCounts& phase) {
  std::cout << "phase " << std::left << std::setw(22) << phase.name
            << std::right << " attempted " << phase.attempted << "  ok "
            << phase.ok << "  failed " << phase.failed << "  shed "
            << phase.shed << "  wrong " << phase.wrong << "\n";
}

}  // namespace pelican::bench
