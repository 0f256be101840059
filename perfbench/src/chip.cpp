// chip_latency and chip_dense: full-chip gpu::GpuEngine launches at a fixed
// ChipOptions::threads.  chip_latency launches the dependent-load chase
// kernels with one warp per block and one block per SM: thousands of epoch
// barriers and almost no per-SM work.  chip_dense launches issue-bound
// kernels at 16-32 warps per block over 1-2 waves: few barriers, and
// SmCore issue inside each epoch dominates.
#include <unistd.h>

#include <algorithm>
#include <memory>

#include "arch/device.hpp"
#include "gpu/gpu_engine.hpp"
#include "prof/pmu.hpp"
#include "sm/launcher.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hsim;

constexpr std::size_t kReferenceLaunches = 3;
constexpr std::size_t kRecheckLaunches = 4;
constexpr std::uint64_t kStrata = 3;  // size strata; a window is one rotation

struct Catalogue {
  ChipKind kind = ChipKind::kLatency;
  int threads = 1;  // ChipOptions::threads of the engines
  std::vector<std::string> kernels;
  std::vector<const arch::DeviceSpec*> devices;
  std::vector<std::unique_ptr<gpu::GpuEngine>> engines;  // per device
  std::vector<LaunchSpec> first_round;
};

/// One block per SM, so a wave is one block on every SM.
gpu::ChipOptions chip_options(int threads, prof::PmuCounters* pmu = nullptr) {
  gpu::ChipOptions options;
  options.threads = threads;
  options.max_blocks_per_sm = 1;
  options.pmu = pmu;
  return options;
}

Catalogue build_catalogue(ChipKind kind, std::uint64_t seed, int threads) {
  Catalogue cat;
  cat.kind = kind;
  cat.threads = threads;
  cat.kernels = chip_kernel_names(kind);
  for (const auto* d : arch::all_devices()) {
    cat.devices.push_back(d);
    cat.engines.push_back(std::make_unique<gpu::GpuEngine>(*d, chip_options(threads)));
  }
  cat.first_round = chip_round(kind, seed, 0);
  return cat;
}

struct Launch {
  KernelInstance kernel;
  sm::LaunchConfig config;
};

Launch make_launch(const Catalogue& cat, const LaunchSpec& s) {
  const auto& device = *cat.devices[static_cast<std::size_t>(s.device)];
  Launch l;
  l.kernel = make_kernel(cat.kernels[static_cast<std::size_t>(s.kernel)], device,
                         s.iters);
  l.config.threads_per_block = s.warps * 32;
  l.config.total_blocks = device.sm_count * s.waves;
  return l;
}

struct LaunchOut {
  bool ok = false;
  double ms = 0;
  double insts = 0;
  int epochs = 0;
  std::uint64_t digest = 0;
};

LaunchOut run_launch(const Catalogue& cat, const LaunchSpec& s,
                     const gpu::GpuEngine& engine, Tracer* tracer,
                     std::uint64_t op) {
  const auto t0 = Clock::now();
  const Launch l = make_launch(cat, s);
  Expected<gpu::ChipResult> r = [&] {
    ScopedSpan span(tracer, "gpu.launch", op);
    return engine.run(l.kernel.program, l.config);
  }();
  LaunchOut out;
  out.ms = ms_since(t0);
  if (!r) return out;
  const gpu::ChipResult& c = r.value();
  Digest d;
  d.add(c.cycles).add(c.instructions_issued).add(c.stall_cycles);
  d.add(c.mem_transactions).add(c.warps_retired).add(static_cast<std::uint64_t>(c.epochs));
  for (const auto& sm : c.per_sm) d.add(sm.cycles);
  out.digest = d.value();
  out.insts = static_cast<double>(c.instructions_issued);
  out.epochs = c.epochs;
  out.ok = c.warps_retired ==
               static_cast<std::uint64_t>(l.config.total_blocks) *
                   static_cast<std::uint64_t>(s.warps) &&
           c.cycles > 0 && c.per_sm.size() == static_cast<std::size_t>(c.sms);
  return out;
}

struct Executed {
  std::vector<LaunchSpec> specs;
  std::vector<LaunchOut> outs;
  TimedPhase phase;
};

Executed timed_phase(const Catalogue& cat, std::uint64_t seed, double seconds,
                     Tracer* tracer, bool smoke) {
  Executed ex;
  const auto t0 = Clock::now();
  for (std::uint64_t round = 0;
       keep_timing(t0, seconds, ex.outs.size(), smoke); ++round) {
    const auto specs = round == 0 ? cat.first_round : chip_round(cat.kind, seed, round);
    for (const auto& s : specs) {
      const auto out = run_launch(cat, s, *cat.engines[static_cast<std::size_t>(s.device)],
                                  tracer, ex.specs.size());
      ex.specs.push_back(s);
      ex.outs.push_back(out);
      ex.phase.add(out.ms, out.insts);
      // Set-up: the catalogue with one engine per device.
      ex.phase.setup_s.push_back(time_setup(
          [&] { return build_catalogue(cat.kind, seed, cat.threads); }));
      if (!keep_timing(t0, seconds, ex.outs.size(), smoke)) break;
    }
    if ((round + 1) % kStrata == 0) ex.phase.close_window(ms_since(t0) / 1000.0);
  }
  ex.phase.wall_s = ms_since(t0) / 1000.0;
  return ex;
}

LaunchOut run_at(const Catalogue& cat, const LaunchSpec& s, int threads) {
  const gpu::GpuEngine engine(*cat.devices[static_cast<std::size_t>(s.device)],
                              chip_options(threads));
  return run_launch(cat, s, engine, nullptr, 0);
}

/// The thread count a seeded subset is re-run at: the other side of the
/// workload's, so the check covers the serial and the parallel engine.
int recheck_threads(int threads) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  return threads == 1 ? static_cast<int>(std::clamp(nproc, 1L, 4L)) : 1;
}

/// Every launch's invariants, then a seeded subset re-run at
/// recheck_threads() must reproduce its digests.  Returns the time at one
/// thread over the time at min(4, nproc) threads on that subset
/// (gpu.thread_speedup).
double verify(RunReport& report, const Catalogue& cat, const Executed& ex,
              std::uint64_t seed, int threads, bool smoke) {
  for (const auto& o : ex.outs) {
    if (!o.ok) ++report.failed;
  }
  const int other = recheck_threads(threads);
  Rng rng(seed, 0x7665726966ULL);
  std::size_t mismatches = 0, checked = 0;
  double timed_ms = 0, again_ms = 0;
  for (std::size_t i = 0; i < (smoke ? 1 : kRecheckLaunches) && !ex.specs.empty(); ++i) {
    const std::size_t pick = rng.below(ex.specs.size());
    const LaunchOut again = run_at(cat, ex.specs[pick], other);
    again_ms += again.ms;
    timed_ms += ex.outs[pick].ms;
    ++checked;
    if (again.digest != ex.outs[pick].digest) ++mismatches;
  }
  report.failed += mismatches;
  report.note("threads=" + std::to_string(other) + " re-run of " + std::to_string(checked) +
              " launches: " + std::to_string(mismatches) + " digest mismatches");
  if (mismatches > 0) report.fail("launch digests differ between thread counts");
  check_reference_digest(report,
                         cat.kind == ChipKind::kLatency ? "chip_latency reference"
                                                        : "chip_dense reference",
                         chip_reference_digest(cat.kind),
                         cat.kind == ChipKind::kLatency ? kChipLatencyRecordedDigest
                                                        : kChipDenseRecordedDigest);
  const double serial_ms = threads == 1 ? timed_ms : again_ms;
  const double parallel_ms = threads == 1 ? again_ms : timed_ms;
  return parallel_ms > 0 ? serial_ms / parallel_ms : 0;
}

/// Untimed probes over the first round: simulated counts (PMU), PMU
/// overhead, and one block of each launch run alone on a single SmCore.
void probe_counters(RunReport& report, const Catalogue& cat, int threads, Tracer& tracer,
                    bool smoke) {
  CounterProbe counters;
  double epochs = 0, launch_ms = 0, solo_ms = 0;
  const std::size_t limit = smoke ? 1 : cat.first_round.size();
  for (std::size_t i = 0; i < limit; ++i) {
    const LaunchSpec& s = cat.first_round[i];
    const auto& device = *cat.devices[static_cast<std::size_t>(s.device)];
    const Launch l = make_launch(cat, s);
    const gpu::GpuEngine counting(device, chip_options(threads, &counters.pmu));
    const auto timed = [&](const gpu::GpuEngine& engine, double& ms) {
      const auto t0 = Clock::now();
      auto r = engine.run(l.kernel.program, l.config);
      ms = ms_since(t0);
      return r;
    };
    // Alternate which side runs first so drift does not favour one.
    double plain_ms = 0, counted_ms = 0;
    const auto& plain = *cat.engines[static_cast<std::size_t>(s.device)];
    if (i % 2 != 0) (void)timed(plain, plain_ms);
    const auto r = timed(counting, counted_ms);
    if (i % 2 == 0) (void)timed(plain, plain_ms);
    if (r) {
      counters.add(plain_ms, counted_ms,
                   static_cast<double>(r.value().instructions_issued),
                   static_cast<double>(r.value().stall_cycles),
                   static_cast<double>(r.value().mem_transactions));
      epochs += r.value().epochs;
    }
    // One block alone on one SM, as the single-SM paper points run it.
    const SoloRun solo = run_solo(device, l.kernel, s.warps, &tracer, i);
    solo_ms += solo.run_ms * l.config.total_blocks;
    launch_ms += plain_ms;
  }
  counters.report(report);
  report.set("gpu.epochs", epochs / static_cast<double>(limit));
  report.set("gpu.solo_ratio", solo_ms > 0 ? launch_ms / solo_ms : 0);
}

}  // namespace

std::vector<std::string> chip_kernel_names(ChipKind kind) {
  if (kind == ChipKind::kLatency) return {"mem_l1", "mem_l2", "mem_global"};
  return {"ffma_tput", "dpx_fig07", "mma"};
}

std::vector<LaunchSpec> chip_round(ChipKind kind, std::uint64_t seed,
                                   std::uint64_t round) {
  // Each (kernel, device, waves) cell rotates through the size strata from
  // a seeded starting stratum (on chip_dense warps and iters share it), so
  // every window of kStrata rounds holds the same work whatever the seed;
  // the seed draws the offsets, the exact values and the order.
  const std::uint64_t tag = kind == ChipKind::kLatency ? 0x6c6174ULL : 0x64656eULL;
  Rng offsets(seed, tag, ~0ULL);
  Rng rng(seed, tag, round);
  std::vector<LaunchSpec> launches;
  const int kernels = static_cast<int>(chip_kernel_names(kind).size());
  const int devices = static_cast<int>(arch::all_devices().size());
  for (int k = 0; k < kernels; ++k) {
    for (int d = 0; d < devices; ++d) {
      if (kind == ChipKind::kLatency) {
        const std::uint64_t stratum = offsets.below(kStrata) + round;
        launches.push_back({.device = d, .kernel = k, .warps = 1, .waves = 1,
                            .iters = rng.log_stratum(128, 512, kStrata, stratum)});
        continue;
      }
      for (const int waves : {1, 2}) {
        const std::uint64_t stratum = offsets.below(kStrata) + round;
        // The DPX body issues several times the instructions per iteration
        // (emulated off Hopper), so it runs fewer iterations.
        const bool dpx = k == 1;
        launches.push_back(
            {.device = d, .kernel = k,
             .warps = static_cast<int>(rng.log_stratum(16, 32, kStrata, stratum)),
             .waves = waves,
             .iters = dpx ? rng.log_stratum(2, 6, kStrata, stratum)
                          : rng.log_stratum(8, 24, kStrata, stratum)});
      }
    }
  }
  rng.shuffle(launches);
  return launches;
}

void rss_probe_chip(const RunOptions& options, ChipKind kind) {
  const Catalogue cat = build_catalogue(kind, options.seed, options.threads);
  for (std::uint64_t round = 0; round < kStrata; ++round) {
    for (const auto& s : chip_round(kind, options.seed, round)) (void)run_at(cat, s, 1);
  }
}

std::uint64_t chip_reference_digest(ChipKind kind) {
  const Catalogue cat = build_catalogue(kind, kDefaultSeed, 1);
  Digest digest;
  for (std::size_t i = 0; i < kReferenceLaunches; ++i) {
    digest.add(run_at(cat, cat.first_round[i], 1).digest);
  }
  return digest.value();
}

RunReport run_chip(const RunOptions& options, ChipKind kind) {
  RunReport report;
  report.stamp["threads"] = std::to_string(options.threads);
  const Catalogue cat = build_catalogue(kind, options.seed, options.threads);
  // Warm-up: one untimed launch so lazy statics and the allocator settle.
  (void)run_launch(cat, cat.first_round[0],
                   *cat.engines[static_cast<std::size_t>(cat.first_round[0].device)],
                   nullptr, 0);

  if (!options.trace) {
    const Executed ex = timed_phase(cat, options.seed, options.seconds, nullptr,
                                    options.smoke);
    report.note("timed process peak RSS " + std::to_string(peak_rss_mb()) + " MiB");
    report.attempted = ex.outs.size();
    (void)verify(report, cat, ex, options.seed, options.threads, options.smoke);
    report_end_to_end(report, ex.phase, probe_rss_mb(options),
                      table4_model_err_pct(), options.smoke);
    return report;
  }

  const double half = options.seconds / 2;
  const Executed plain = timed_phase(cat, options.seed, half, nullptr, options.smoke);
  Tracer tracer;
  const Executed traced = timed_phase(cat, options.seed, half, &tracer, options.smoke);
  report.attempted = plain.outs.size() + traced.outs.size();
  for (const auto& o : plain.outs) {
    if (!o.ok) ++report.failed;
  }
  report.set("gpu.thread_speedup",
             verify(report, cat, traced, options.seed, options.threads, options.smoke));

  const auto launch_ms = tracer.durations_ms("gpu.launch");
  double launch_total = 0, epochs = 0;
  for (const double v : launch_ms) launch_total += v;
  for (const auto& o : traced.outs) epochs += o.epochs;
  report.set("gpu.launch_ms_p50", percentile(launch_ms, 50));
  report.set("gpu.us_per_epoch", epochs > 0 ? launch_total * 1000.0 / epochs : 0);
  report.set("gpu.insts_per_host_s",
             launch_total > 0 ? traced.phase.sim_insts / launch_total * 1000.0 : 0);
  report_trace_overhead(report,
                        static_cast<double>(plain.outs.size()) / plain.phase.wall_s,
                        static_cast<double>(traced.outs.size()) / traced.phase.wall_s);
  probe_counters(report, cat, options.threads, tracer, options.smoke);
  report.set("mem.setup_ms_p50", percentile(tracer.durations_ms("mem.setup"), 50));
  report.set("sm.setup_ms_p50", percentile(tracer.durations_ms("sm.setup"), 50));
  report.set("sm.run_ms_p50", percentile(tracer.durations_ms("sm.run"), 50));
  report_self_shares(report, tracer);
  tracer.write_chrome_trace(options.out_dir + "/spans-" +
                            (kind == ChipKind::kLatency ? "chip_latency" : "chip_dense") +
                            "-seed" + std::to_string(options.seed) + ".json");
  return report;
}

}  // namespace perfbench
