#include "support.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "arch/device.hpp"
#include "core/pchase.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

thread_local std::uint64_t t_current_span = 0;
thread_local int t_thread_index = -1;
std::atomic<int> g_next_thread_index{0};

int thread_index() {
  if (t_thread_index < 0) t_thread_index = g_next_thread_index.fetch_add(1);
  return t_thread_index;
}

std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b) : state_(seed) {
  std::uint64_t mix = seed;
  state_ = splitmix(mix) ^ (a * 0xD1B54A32D192ED03ULL);
  mix = state_;
  state_ = splitmix(mix) ^ (b * 0x8CB92BA72F3D8DD7ULL);
}

std::uint64_t Rng::next() { return splitmix(state_); }

std::uint64_t Rng::below(std::uint64_t bound) {
  const auto wide = static_cast<unsigned __int128>(next()) * bound;
  return static_cast<std::uint64_t>(wide >> 64);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint32_t Rng::log_uniform(std::uint32_t lo, std::uint32_t hi) {
  return log_stratum(lo, hi, 1, 0);
}

std::uint32_t Rng::log_stratum(std::uint32_t lo, std::uint32_t hi,
                               std::uint64_t strata, std::uint64_t index) {
  const double a = std::log(static_cast<double>(lo));
  const double width = (std::log(static_cast<double>(hi) + 1) - a) /
                       static_cast<double>(strata);
  const double v = std::exp(
      a + width * (static_cast<double>(index % strata) + uniform()));
  return std::clamp(static_cast<std::uint32_t>(v), lo, hi);
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }

Digest& Digest::add(std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  return add(static_cast<std::uint64_t>(bytes.size()));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Round before flooring so 1000 * (1 - 0.99) counts as 10, not 9.
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

double highest_supported_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

Tracer::Tracer() : origin_(Clock::now()) {}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back((s.end_us - s.start_us) / 1000.0);
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans_) children[s.parent].push_back(&s);
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    // Children may run on other threads and overlap: subtract the union of
    // their intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const double a = std::max(c->start_us, s.start_us);
        const double b = std::min(c->end_us, s.end_us);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0, reach = s.start_us;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    out[layer_of(s.name)] += (s.end_us - s.start_us - covered) / 1000.0;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << format_number(s.start_us)
        << ",\"dur\":" << format_number(s.end_us - s.start_us)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
                       std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.op = op;
  span_.id = tracer_->next_id_.fetch_add(1);
  span_.parent = parent == Tracer::kInherit ? t_current_span : parent;
  span_.thread = thread_index();
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const auto end = Clock::now();
  span_.start_us = ms_between(tracer_->origin_, start_) * 1000.0;
  span_.end_us = ms_between(tracer_->origin_, end) * 1000.0;
  t_current_span = saved_current_;
  tracer_->record(span_);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"ops_per_s", "1/s"},
      {"sim_insts_per_s", "inst/s"}, {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},       {"peak_rss_mb", "MiB"},
      {"model_err_pct", "%"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.point_ms_p50", "ms"},      {"sim.pool_busy_share", "share"},
      {"sim.self_share", "share"},     {"mem.setup_ms_p50", "ms"},
      {"mem.transactions", "count"},   {"mem.l1_hit_ratio", "ratio"},
      {"mem.l2_hit_ratio", "ratio"},   {"mem.self_share", "share"},
      {"sm.setup_ms_p50", "ms"},       {"sm.setup_share", "share"},
      {"sm.run_ms_p50", "ms"},         {"sm.insts_per_host_s", "inst/s"},
      {"sm.issue_ratio", "ratio"},     {"sm.self_share", "share"},
      {"ff.sample_ms_p50", "ms"},      {"ff.speedup_vs_exact", "x"},
      {"ff.err_pct", "%"},             {"ff.detail_fraction", "ratio"},
      {"ff.self_share", "share"},      {"gpu.launch_ms_p50", "ms"},
      {"gpu.epochs", "count"},         {"gpu.us_per_epoch", "us"},
      {"gpu.solo_ratio", "x"},         {"gpu.thread_speedup", "x"},
      {"gpu.insts_per_host_s", "inst/s"}, {"gpu.self_share", "share"},
      {"prof.pmu_overhead", "x"},      {"serve.hit_ratio", "ratio"},
      {"serve.evictions", "count"},    {"serve.hit_ms_p50", "ms"},
      {"serve.miss_ms_p50", "ms"},     {"serve.overhead_ms_p50", "ms"},
      {"serve.request_ms_p99", "ms"},  {"serve.rejected", "count"},
      {"serve.timeouts", "count"},     {"serve.errors", "count"},
      {"serve.self_share", "share"},   {"trace.ops_per_s_delta", "1/s"},
      {"trace.overhead_pct", "%"},     {"trace.spans", "count"},
  };
  return kMetrics;
}

void RunReport::fail(const std::string& why) {
  checks_passed = false;
  note("CHECK FAILED: " + why);
}

void TimedPhase::close_window(double elapsed_s) {
  const double dt = elapsed_s - window_start_s_;
  if (dt <= 0) return;
  window_ops_per_s.push_back(static_cast<double>(op_ms.size() - window_start_ops_) / dt);
  window_insts_per_s.push_back((sim_insts - window_start_insts_) / dt);
  window_start_s_ = elapsed_s;
  window_start_ops_ = op_ms.size();
  window_start_insts_ = sim_insts;
}

void report_end_to_end(RunReport& report, const TimedPhase& phase, double rss_mb,
                       double model_err_pct, bool smoke) {
  const std::size_t n = phase.op_ms.size();
  const std::vector<double>& setup_s = phase.setup_s;
  report.set("setup_s", percentile(setup_s, 50));
  const std::size_t windows = phase.window_ops_per_s.size();
  if (windows >= 3) {
    report.set("ops_per_s", percentile(phase.window_ops_per_s, 50));
    report.set("sim_insts_per_s", percentile(phase.window_insts_per_s, 50));
  } else {
    report.set("ops_per_s", phase.wall_s > 0 ? static_cast<double>(n) / phase.wall_s : 0);
    report.set("sim_insts_per_s", phase.wall_s > 0 ? phase.sim_insts / phase.wall_s : 0);
  }
  report.set("op_p50_ms", percentile(phase.op_ms, 50));
  report.set("op_p90_ms", percentile(phase.op_ms, 90));
  report.set("peak_rss_mb", rss_mb);
  report.set("model_err_pct", model_err_pct);
  const double top = highest_supported_percentile(n);
  std::ostringstream line;
  line << "ops " << n << " in " << phase.wall_s << " s; p50 "
       << percentile(phase.op_ms, 50) << " ms, p90 " << percentile(phase.op_ms, 90)
       << " ms (" << samples_beyond(n, 90) << " samples beyond p90)";
  if (top > 90) {
    line << ", p" << top << " " << percentile(phase.op_ms, top) << " ms ("
         << samples_beyond(n, top) << " beyond)";
  }
  line << "; rates: median of " << windows << " windows (quartiles "
       << percentile(phase.window_ops_per_s, 25) << " / "
       << percentile(phase.window_ops_per_s, 75) << " ops/s; whole run "
       << (phase.wall_s > 0 ? static_cast<double>(n) / phase.wall_s : 0) << " ops/s)";
  report.note(line.str());
  std::ostringstream setup;
  setup << "setup: median of " << setup_s.size() << " set-ups (quartiles "
        << percentile(setup_s, 25) << " / " << percentile(setup_s, 75) << " s, first "
        << (setup_s.empty() ? 0 : setup_s.front()) << " s)";
  report.note(setup.str());
  if (setup_s.empty() || (!smoke && setup_s.size() < static_cast<std::size_t>(kSetupReps))) {
    report.fail("only " + std::to_string(setup_s.size()) + " set-ups timed");
  }
  if (rss_mb <= 0) report.fail("the peak RSS probe did not finish");
  if (top < 90 && !smoke) {
    report.fail("only " + std::to_string(n) +
                " ops: p90 needs at least 10 samples beyond it");
  }
}

double probe_rss_mb(const RunOptions& options) {
  const std::string seed = std::to_string(kDefaultSeed);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return 0;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execl(options.self_bin.c_str(), "perfbench", "--rss-probe", "1", "--workload",
            options.workload.c_str(), "--seed", seed.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::string line;
  char c = 0;
  pollfd pfd{pipe_fds[0], POLLIN, 0};
  while (pid > 0 && ::poll(&pfd, 1, 60000) > 0 && ::read(pipe_fds[0], &c, 1) == 1 &&
         c != '\n') {
    line.push_back(c);
  }
  ::close(pipe_fds[0]);
  int status = 0;
  if (pid > 0) ::waitpid(pid, &status, 0);
  if (pid <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return 0;
  return std::strtod(line.c_str(), nullptr);
}

double table4_model_err_pct() {
  double l2_over_l1 = 0, dram_over_l2 = 0;
  for (const auto* device : hsim::arch::all_devices()) {
    const auto chase = [&](hsim::mem::MemLevel level) {
      const auto r = hsim::core::pchase(*device, level);
      return r ? r.value().avg_latency_cycles : 0.0;
    };
    const double l1 = chase(hsim::mem::MemLevel::kL1);
    const double l2 = chase(hsim::mem::MemLevel::kL2);
    const double dram = chase(hsim::mem::MemLevel::kDram);
    if (l1 <= 0 || l2 <= 0) return 100.0;
    l2_over_l1 += l2 / l1;
    dram_over_l2 += dram / l2;
  }
  const double a = std::abs(l2_over_l1 / 3.0 - 6.5) / 6.5;
  const double b = std::abs(dram_over_l2 / 3.0 - 1.9) / 1.9;
  return 100.0 * (a + b) / 2.0;
}

void report_self_shares(RunReport& report, const Tracer& tracer) {
  const auto self = tracer.self_ms_by_layer();
  double total = 0;
  for (const auto& [layer, ms] : self) total += ms;
  for (const auto& [layer, ms] : self) {
    report.set(layer + ".self_share", total > 0 ? ms / total : 0);
  }
  report.set("trace.spans", static_cast<double>(tracer.spans().size()));
}

void report_trace_overhead(RunReport& report, double untraced_ops_per_s,
                           double traced_ops_per_s) {
  report.set("trace.ops_per_s_delta", traced_ops_per_s - untraced_ops_per_s);
  report.set("trace.overhead_pct",
             untraced_ops_per_s > 0
                 ? 100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s
                 : 0);
  std::ostringstream line;
  line << "tracing: untraced " << untraced_ops_per_s << " ops/s, traced "
       << traced_ops_per_s << " ops/s";
  report.note(line.str());
}

void check_reference_digest(RunReport& report, std::string_view what,
                            std::uint64_t got, std::uint64_t recorded) {
  char line[160];
  std::snprintf(line, sizeof line, "%.*s digest %016llx (recorded %016llx)",
                static_cast<int>(what.size()), what.data(),
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(recorded));
  if (got != recorded) {
    report.fail(line);
  } else {
    report.note(line);
  }
}

std::string result_json(const RunReport& report, bool trace) {
  const auto& catalogue = trace ? per_layer_catalogue() : end_to_end_catalogue();
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct() ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const auto& [name, unit] = catalogue[i];
    const auto it = report.values.find(name);
    double v = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    out << (i ? ", " : "") << '"' << name << "\": {\"value\": " << format_number(v)
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
