// Shared machinery of the hoppersim benchmark: the seeded generator, the
// per-op digest, percentiles, the span recorder used by traced runs, the
// metric catalogue and the result line.
//
// Everything here is the benchmark's own code.  Workload inputs come from
// this file's generator (not the simulator's RNG), so the same seed gives
// the same op list whatever the simulator's version.
#pragma once
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// The seed the recorded reference digests were taken with.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// A seed never run while the benchmark was built: keep it for held-out
/// checks of a claimed gain.
inline constexpr std::uint64_t kHeldOutSeed = 90210;

/// splitmix64 stream: small, fast, and owned by the benchmark.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  /// Independent stream for (seed, a, b): e.g. (seed, workload, round).
  Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);
  std::uint64_t next();
  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double uniform();
  /// Integer drawn log-uniformly from [lo, hi].
  std::uint32_t log_uniform(std::uint32_t lo, std::uint32_t hi);
  /// Integer drawn log-uniformly from stratum `index % strata` of [lo, hi]
  /// cut into `strata` equal log-width strata.  Rotating the index by round
  /// gives every cell of an op list each stratum once per `strata` rounds,
  /// so the work of a run barely depends on the seed.
  std::uint32_t log_stratum(std::uint32_t lo, std::uint32_t hi,
                            std::uint64_t strata, std::uint64_t index);
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the simulated outputs of a run.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted values; 0 for
/// an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);
/// How many of n samples lie beyond the p-th percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);
/// The highest of 50, 90, 99 and 99.9 that has at least ten samples beyond
/// it among n, or 0 when even the median has fewer.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// Peak resident set of a process (this one when pid is 0), in MiB.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Span recorder for traced runs.  A span covers one call into a layer:
/// its name is "<layer>.<call>", its parent is the enclosing span on the
/// same thread unless given, and spans of one op share the op id.  Spans
/// stay in memory until write_chrome_trace().
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: root
    std::uint64_t op = 0;
    int thread = 0;
  };
  static constexpr std::uint64_t kInherit = ~0ULL;

  Tracer();
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Self time (span minus the union of its children) summed per layer, ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class ScopedSpan;
  void record(const Span& span);
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
             std::uint64_t parent = Tracer::kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
  Clock::time_point start_;
  std::uint64_t saved_current_ = 0;
};

/// Names and units of every end-to-end metric (untraced runs) and every
/// per-layer metric (traced runs).  BENCHMARK.json lists the same names.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_catalogue();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalogue();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  int threads = 1;  // chip threads / sweep pool / serve clients
  std::string hsim_bin;
  std::string self_bin = "/proc/self/exe";  // this program, for RSS probes
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  /// Self-test mode: tiny probes and no minimum op count.
  bool smoke = false;
};

/// Ops a timed phase must complete so p90 has ten samples beyond it.
inline constexpr std::size_t kMinOps = 100;
/// Set-ups a run must time; setup_s is their median.  serve_mix spawns
/// this many servers; the simulation workloads time one set-up per round
/// or launch, which gives more.
inline constexpr int kSetupReps = 21;

/// True while a timed phase that started at t0 should keep going: before
/// its deadline, or (up to a hard cap) while it has too few ops.
[[nodiscard]] inline bool keep_timing(Clock::time_point t0, double seconds,
                                      std::size_t ops, bool smoke) {
  const double elapsed = ms_since(t0) / 1000.0;
  if (elapsed < seconds) return true;
  return !smoke && ops < kMinOps && elapsed < 3 * seconds + 10;
}

/// What one run of a workload produced.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_passed = true;
  std::map<std::string, double> values;  // metric name -> value
  std::vector<std::string> notes;        // human-readable report lines
  std::map<std::string, std::string> stamp;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Record a failed check: it fails the run and is reported.
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const { return checks_passed && failed == 0; }
};

/// Per-op latencies and counts of a timed phase, reduced to the end-to-end
/// metrics every workload reports.
class TimedPhase {
 public:
  std::vector<double> op_ms;
  double wall_s = 0;
  double sim_insts = 0;
  /// Rates of each whole window: a full rotation of the op list's strata,
  /// or one second of the closed loop.  Their medians are the reported
  /// rates, robust to a burst of host interference inside one window.
  std::vector<double> window_ops_per_s;
  std::vector<double> window_insts_per_s;
  /// Set-ups timed during the phase (see time_setup), in seconds.
  std::vector<double> setup_s;

  void add(double ms, double insts) {
    op_ms.push_back(ms);
    sim_insts += insts;
  }
  /// Close the window that began at the previous close (or at 0).
  void close_window(double elapsed_s);

 private:
  double window_start_s_ = 0;
  std::size_t window_start_ops_ = 0;
  double window_start_insts_ = 0;
};
void report_end_to_end(RunReport& report, const TimedPhase& phase, double rss_mb,
                       double model_err_pct, bool smoke);

/// Seconds one set-up takes: `setup` builds what the workload's user
/// builds before the first op (the catalogue and its engines).  What it
/// returns is torn down after the time is taken.  The simulation workloads
/// time one set-up after each round or launch of their timed phase, so the
/// median covers the whole run rather than one instant of the host.
template <typename Setup>
[[nodiscard]] double time_setup(Setup&& setup) {
  const auto t0 = Clock::now();
  [[maybe_unused]] const auto ready = setup();
  return ms_since(t0) / 1000.0;
}
/// peak_rss_mb of a simulation workload: the peak RSS of this program run
/// in a fresh process with "--rss-probe", which sets up and runs one
/// rotation of the default seed's strata on one thread.  The same
/// single-threaded work in every run, so it repeats run to run, where the
/// timed process's peak depends on thread timing and the largest op of its
/// seed.  0 if the probe failed.
[[nodiscard]] double probe_rss_mb(const RunOptions& options);

/// Mean absolute error (%) of the Table IV chase ratios (L2/L1, DRAM/L2,
/// averaged over the three devices) against the paper's 6.5x and 1.9x.
[[nodiscard]] double table4_model_err_pct();

/// Self-time share of each layer among all traced spans, as
/// "<layer>.self_share" per-layer metrics.
void report_self_shares(RunReport& report, const Tracer& tracer);
/// Tracing overhead: traced minus untraced ops/s, and as a share.
void report_trace_overhead(RunReport& report, double untraced_ops_per_s,
                           double traced_ops_per_s);

/// Fold the digest of a reference op list and compare it to the recorded
/// value; a mismatch fails the run.
void check_reference_digest(RunReport& report, std::string_view what,
                            std::uint64_t got, std::uint64_t recorded);

/// The result line: the last line of stdout.
[[nodiscard]] std::string result_json(const RunReport& report, bool trace);

}  // namespace perfbench
