// The four benchmark workloads.  Each one generates its op list from the
// seed, times calls into the simulator's public module APIs, checks every
// simulated output, and reports either the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).  See perfbench/README.md.
#pragma once
#include <cstdint>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "isa/program.hpp"
#include "prof/pmu.hpp"
#include "sm/sm_core.hpp"
#include "support.hpp"

namespace perfbench {

/// A catalogue kernel instantiated at `iters`.
struct KernelInstance {
  hsim::isa::Program program;
  bool needs_mem = false;  // global-memory kernel: attach a MemorySystem
};
/// A trace kernel by name, or "dpx_fig07": the fig07 DPX throughput body
/// (eight independent VIMNMX chains).
[[nodiscard]] KernelInstance make_kernel(const std::string& name,
                                         const hsim::arch::DeviceSpec& device,
                                         std::uint32_t iters);

/// One kernel on one SM, as a single-SM paper point runs it: a
/// MemorySystem (memory kernels only), an SmCore, then SmCore::run.
struct SoloRun {
  hsim::sm::RunResult result;
  double setup_ms = 0;  // MemorySystem + SmCore construction
  double run_ms = 0;    // SmCore::run
};
/// Spans mem.setup, sm.setup and sm.run when traced; counts into `pmu`
/// (core and memory system) when given.
[[nodiscard]] SoloRun run_solo(const hsim::arch::DeviceSpec& device,
                               const KernelInstance& kernel, int warps,
                               Tracer* tracer, std::uint64_t op,
                               hsim::prof::PmuCounters* pmu = nullptr);

/// Simulated counts and PMU cost over a fixed probe set: each probe op runs
/// once plain and once counting into `pmu`.  Reports mem.transactions,
/// mem.l1_hit_ratio, mem.l2_hit_ratio, sm.issue_ratio and prof.pmu_overhead.
class CounterProbe {
 public:
  hsim::prof::PmuCounters pmu;
  void add(double plain_ms, double counted_ms, const hsim::sm::RunResult& counted);
  void add(double plain_ms, double counted_ms, double insts, double stalls,
           double transactions);
  void report(RunReport& report) const;

 private:
  double with_ms_ = 0, without_ms_ = 0;
  double insts_ = 0, stalls_ = 0, transactions_ = 0;
};

// --- paper_sweep -------------------------------------------------------------

/// One single-SM point.  kernel indexes paper_kernel_names(); the last name
/// is the fig07 DPX program.
struct PointSpec {
  int device = 0;
  int kernel = 0;
  int warps = 1;
  std::uint32_t iters = 128;
  bool sampled = false;  // through ff::FastForwardEngine::sample
  bool operator==(const PointSpec&) const = default;
};
[[nodiscard]] const std::vector<std::string>& paper_kernel_names();
/// Round r of the op list: every kernel x device x warps point once (iters
/// drawn per point) plus the sampled points, in seeded order.
[[nodiscard]] std::vector<PointSpec> paper_sweep_round(std::uint64_t seed,
                                                       std::uint64_t round);
/// Digest of the reference op list (the default seed's first points).
[[nodiscard]] std::uint64_t paper_sweep_reference_digest();
inline constexpr std::uint64_t kPaperSweepRecordedDigest = 0x1696b2cee16db2b3ULL;

// --- chip_latency / chip_dense ------------------------------------------------

enum class ChipKind { kLatency, kDense };
struct LaunchSpec {
  int device = 0;
  int kernel = 0;  // indexes chip_kernel_names(kind)
  int warps = 1;   // per block
  int waves = 1;
  std::uint32_t iters = 128;
  bool operator==(const LaunchSpec&) const = default;
};
[[nodiscard]] std::vector<std::string> chip_kernel_names(ChipKind kind);
[[nodiscard]] std::vector<LaunchSpec> chip_round(ChipKind kind,
                                                 std::uint64_t seed,
                                                 std::uint64_t round);
[[nodiscard]] std::uint64_t chip_reference_digest(ChipKind kind);
inline constexpr std::uint64_t kChipLatencyRecordedDigest = 0xc90e9595739ad377ULL;
inline constexpr std::uint64_t kChipDenseRecordedDigest = 0xb0681f9b789658c9ULL;

// --- serve_mix ----------------------------------------------------------------

inline constexpr std::size_t kServeCacheCapacity = 64;
inline constexpr std::size_t kServeUniverse = 4 * kServeCacheCapacity;
/// One query of the universe and its request line.  The line's id is the
/// query's index, so its reply bytes are the same every time it is answered.
struct ServeQuery {
  std::string verb;  // simulate | profile | trace | sweep
  std::string device;
  std::string kernel;
  std::uint32_t iters = 0;
  int warps = 1;
  std::string line;
};
[[nodiscard]] std::vector<ServeQuery> serve_universe(std::uint64_t seed);
/// Zipf-popular query indices for one client's closed loop (client
/// kWarmupClient is the untimed warm-up prefix).
inline constexpr int kWarmupClient = -1;
[[nodiscard]] std::vector<std::uint32_t> serve_sequence(std::uint64_t seed,
                                                        int client,
                                                        std::size_t length);
/// Digest of the simulated statistics in a reply (not its bytes).
[[nodiscard]] std::uint64_t serve_reply_digest(std::string_view reply);
[[nodiscard]] std::uint64_t serve_reference_digest();
inline constexpr std::uint64_t kServeRecordedDigest = 0x2d228ce5588b5511ULL;

// --- runs ---------------------------------------------------------------------

/// The RSS probe of a simulation workload, run in a fresh process (see
/// probe_rss_mb).  It builds what the workload builds before its first op,
/// the catalogue (devices, seeded op list) and the engines, then runs one
/// full rotation of the strata (every cell at every iteration stratum) on
/// one thread: a fixed amount of work whose peak RSS repeats run to run and
/// hardly depends on the seed.
void rss_probe_paper_sweep(const RunOptions& options);
void rss_probe_chip(const RunOptions& options, ChipKind kind);

[[nodiscard]] RunReport run_paper_sweep(const RunOptions& options);
[[nodiscard]] RunReport run_chip(const RunOptions& options, ChipKind kind);
[[nodiscard]] RunReport run_serve_mix(const RunOptions& options);

}  // namespace perfbench
