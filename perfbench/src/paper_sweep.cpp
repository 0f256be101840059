// paper_sweep: seeded single-SM points through sim::sweep, the shape of
// every `--quick` paper-table bench.  Each point builds its program, a
// MemorySystem (memory kernels only) and an SmCore, then runs it; about one
// point in eight instead goes through ff::FastForwardEngine::sample.
#include <algorithm>
#include <memory>

#include "arch/device.hpp"
#include "dpx/functions.hpp"
#include "ff/fast_forward.hpp"
#include "mem/memory_system.hpp"
#include "prof/pmu.hpp"
#include "sim/sweep.hpp"
#include "sm/sm_core.hpp"
#include "trace/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hsim;

constexpr int kWarps[] = {1, 4, 8, 32};
constexpr int kSampledPerRound = 16;
constexpr std::uint64_t kStrata = 4;  // iters strata; a window is one rotation
constexpr std::size_t kReferencePoints = 24;
constexpr std::size_t kRecheckPoints = 24;

struct Catalogue {
  std::vector<const arch::DeviceSpec*> devices;
  std::vector<std::unique_ptr<ff::FastForwardEngine>> ff;  // per device
  ff::SampleOptions sample;
  std::vector<PointSpec> first_round;
};

Catalogue build_catalogue(std::uint64_t seed) {
  Catalogue cat;
  for (const auto* d : arch::all_devices()) cat.devices.push_back(d);
  for (const auto* d : cat.devices) {
    cat.ff.push_back(std::make_unique<ff::FastForwardEngine>(*d));
  }
  cat.sample.interval = 1024;
  cat.sample.detail = 2;
  cat.sample.warmup = 2;
  cat.first_round = paper_sweep_round(seed, 0);
  return cat;
}

struct PointOut {
  bool ok = false;
  double ms = 0;
  double insts = 0;  // issued (exact) or functional count (sampled)
  std::uint64_t digest = 0;
};

KernelInstance point_kernel(const Catalogue& cat, const PointSpec& p) {
  return make_kernel(paper_kernel_names()[static_cast<std::size_t>(p.kernel)],
                     *cat.devices[static_cast<std::size_t>(p.device)], p.iters);
}

std::uint64_t digest_of(const sm::RunResult& r) {
  return Digest()
      .add(r.cycles)
      .add(r.instructions_issued)
      .add(r.stall_cycles)
      .add(r.mem_transactions)
      .add(r.warps_retired)
      .value();
}

std::uint64_t digest_of(const ff::SampleResult& r) {
  return Digest()
      .add(r.cycles_est)
      .add(r.instructions)
      .add(r.detailed_instructions)
      .add(static_cast<std::uint64_t>(r.windows.size()))
      .value();
}

/// One point, exactly as a paper bench runs it; spans around each layer
/// call when traced.
PointOut run_point(const Catalogue& cat, const PointSpec& p, Tracer* tracer,
                   std::uint64_t op, std::uint64_t parent) {
  const auto t0 = Clock::now();
  PointOut out;
  {
    ScopedSpan point_span(tracer, "sim.point", op, parent);
    const auto& device = *cat.devices[static_cast<std::size_t>(p.device)];
    const KernelInstance kernel = point_kernel(cat, p);
    if (p.sampled) {
      ScopedSpan span(tracer, "ff.sample", op);
      const auto r = cat.ff[static_cast<std::size_t>(p.device)]->sample(
          kernel.program, {.threads_per_block = p.warps * 32, .blocks = 1},
          kernel.needs_mem, cat.sample);
      out.ok = r.cycles_est > 0 && r.instructions > 0;
      out.insts = static_cast<double>(r.instructions);
      out.digest = digest_of(r);
    } else {
      const sm::RunResult r = run_solo(device, kernel, p.warps, tracer, op).result;
      out.ok = r.warps_retired == static_cast<std::uint64_t>(p.warps) &&
               r.instructions_issued > 0 && r.cycles > 0;
      out.insts = static_cast<double>(r.instructions_issued);
      out.digest = digest_of(r);
    }
  }
  out.ms = ms_since(t0);
  return out;
}

/// Threads that run points: sim::sweep's calling thread works alongside
/// its pool, so a pool of n - 1 workers uses n threads.  A pool of one is
/// the serial path, so two threads are not expressible and run serially.
int sweep_threads(int threads) { return threads >= 3 ? threads : 1; }

struct Executed {
  std::vector<PointSpec> specs;
  std::vector<PointOut> outs;
  TimedPhase phase;
};

/// Run whole rounds through sim::sweep until the phase's time is up.
Executed timed_phase(const Catalogue& cat, std::uint64_t seed, double seconds,
                     int threads, Tracer* tracer, bool smoke) {
  Executed ex;
  sim::SweepOptions options;
  options.threads = static_cast<std::size_t>(std::max(1, sweep_threads(threads) - 1));
  const auto t0 = Clock::now();
  for (std::uint64_t round = 0;
       keep_timing(t0, seconds, ex.outs.size(), smoke); ++round) {
    auto specs = round == 0 ? cat.first_round : paper_sweep_round(seed, round);
    const std::uint64_t base = ex.specs.size();
    ScopedSpan sweep_span(tracer, "sim.sweep", round);
    const std::uint64_t parent = sweep_span.id();
    const auto outs = sim::sweep(
        specs.size(),
        [&](sim::SweepContext& ctx) {
          return run_point(cat, specs[ctx.index()], tracer, base + ctx.index(),
                           parent);
        },
        options);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      ex.specs.push_back(specs[i]);
      ex.outs.push_back(outs[i]);
      ex.phase.add(outs[i].ms, outs[i].insts);
    }
    // Set-up: the catalogue with its engines.  sim::sweep starts a pool
    // of its own on every call, so pool start is op cost, paid per round.
    ex.phase.setup_s.push_back(time_setup([&] { return build_catalogue(seed); }));
    if ((round + 1) % kStrata == 0) ex.phase.close_window(ms_since(t0) / 1000.0);
  }
  ex.phase.wall_s = ms_since(t0) / 1000.0;
  return ex;
}

std::vector<PointOut> run_serial(const Catalogue& cat,
                                 const std::vector<PointSpec>& specs) {
  sim::SweepOptions serial;
  serial.threads = 1;
  return sim::sweep(
      specs.size(),
      [&](sim::SweepContext& ctx) {
        return run_point(cat, specs[ctx.index()], nullptr, ctx.index(), 0);
      },
      serial);
}

/// Correctness of a timed phase: every point's own invariants, then a
/// seeded subset re-run serially must reproduce its digest.
void verify(RunReport& report, const Catalogue& cat, const Executed& ex,
            std::uint64_t seed) {
  for (const auto& o : ex.outs) {
    if (!o.ok) ++report.failed;
  }
  Rng rng(seed, 0x7665726966ULL);
  std::vector<std::size_t> picks;
  std::vector<PointSpec> specs;
  for (std::size_t i = 0; i < kRecheckPoints && !ex.specs.empty(); ++i) {
    picks.push_back(rng.below(ex.specs.size()));
    specs.push_back(ex.specs[picks.back()]);
  }
  const auto again = run_serial(cat, specs);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (again[i].digest != ex.outs[picks[i]].digest) ++mismatches;
  }
  report.failed += mismatches;
  report.note("threads=1 re-run of " + std::to_string(picks.size()) +
              " points: " + std::to_string(mismatches) + " digest mismatches");
  if (mismatches > 0) report.fail("point digests differ between thread counts");
  check_reference_digest(report, "paper_sweep reference",
                         paper_sweep_reference_digest(), kPaperSweepRecordedDigest);
}

/// Untimed probes over the first round, for the per-layer metrics that are
/// simulated counts (identical on every run of a seed) or need a second
/// run of the same point (PMU on/off, sampled vs exact).
void probe_counters(RunReport& report, const Catalogue& cat, bool smoke) {
  CounterProbe counters;
  double exact_ms = 0, sample_ms = 0, err_sum = 0, detailed = 0, functional = 0;
  int sampled_points = 0;
  const std::size_t limit = smoke ? 12 : cat.first_round.size();
  for (std::size_t i = 0; i < limit && i < cat.first_round.size(); ++i) {
    const PointSpec& p = cat.first_round[i];
    const auto& device = *cat.devices[static_cast<std::size_t>(p.device)];
    const KernelInstance kernel = point_kernel(cat, p);
    if (p.sampled) {
      if (sampled_points >= (smoke ? 1 : 8)) continue;
      ++sampled_points;
      // Both sides on the same engine and the same bound global image.
      const auto& engine = *cat.ff[static_cast<std::size_t>(p.device)];
      const sm::BlockShape shape{.threads_per_block = p.warps * 32, .blocks = 1};
      ff::ExactOptions same_image;
      same_image.global_seed = cat.sample.global_seed;
      const auto t0 = Clock::now();
      const auto s = engine.sample(kernel.program, shape, kernel.needs_mem, cat.sample);
      const auto t1 = Clock::now();
      const auto exact = engine.exact(kernel.program, shape, kernel.needs_mem, same_image);
      sample_ms += ms_between(t0, t1);
      exact_ms += ms_since(t1);
      const double cycles = exact.result.cycles;
      err_sum += cycles > 0 ? 100.0 * std::abs(s.cycles_est - cycles) / cycles : 0;
      detailed += static_cast<double>(s.detailed_instructions);
      functional += static_cast<double>(s.instructions);
      continue;
    }
    // Alternate which side runs first so drift does not favour one.
    const bool pmu_first = i % 2 == 0;
    SoloRun plain;
    if (!pmu_first) plain = run_solo(device, kernel, p.warps, nullptr, i);
    const SoloRun counted = run_solo(device, kernel, p.warps, nullptr, i, &counters.pmu);
    if (pmu_first) plain = run_solo(device, kernel, p.warps, nullptr, i);
    counters.add(plain.run_ms, counted.run_ms, counted.result);
  }
  counters.report(report);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report.set("ff.speedup_vs_exact", ratio(exact_ms, sample_ms));
  report.set("ff.err_pct", ratio(err_sum, sampled_points));
  report.set("ff.detail_fraction", ratio(detailed, functional));
}

}  // namespace

KernelInstance make_kernel(const std::string& name, const arch::DeviceSpec& device,
                           std::uint32_t iters) {
  KernelInstance k;
  if (name == "dpx_fig07") {
    for (int c = 0; c < 8; ++c) {
      dpx::append(k.program, dpx::Func::kViMax3S32, 20 + c, 1, 2, 3,
                  device.dpx.hardware, 40 + 8 * c);
    }
    k.program.set_iterations(iters);
    return k;
  }
  auto kernel = trace::make_trace_kernel(name, iters);
  if (kernel) {
    k.program = std::move(kernel->program);
    k.needs_mem = kernel->needs_mem;
  }
  return k;
}

SoloRun run_solo(const arch::DeviceSpec& device, const KernelInstance& kernel,
                 int warps, Tracer* tracer, std::uint64_t op,
                 prof::PmuCounters* pmu) {
  SoloRun out;
  const auto t0 = Clock::now();
  std::unique_ptr<mem::MemorySystem> memsys;
  if (kernel.needs_mem) {
    ScopedSpan span(tracer, "mem.setup", op);
    memsys = std::make_unique<mem::MemorySystem>(device, 1);
    memsys->set_pmu(pmu);
  }
  std::unique_ptr<sm::SmCore> core;
  {
    ScopedSpan span(tracer, "sm.setup", op);
    core = std::make_unique<sm::SmCore>(device, memsys.get());
    core->set_pmu(pmu);
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan span(tracer, "sm.run", op);
    out.result = core->run(kernel.program, {.threads_per_block = warps * 32, .blocks = 1});
  }
  out.run_ms = ms_since(t1);
  out.setup_ms = ms_between(t0, t1);
  return out;
}

void CounterProbe::add(double plain_ms, double counted_ms,
                       const sm::RunResult& counted) {
  add(plain_ms, counted_ms, static_cast<double>(counted.instructions_issued),
      static_cast<double>(counted.stall_cycles),
      static_cast<double>(counted.mem_transactions));
}

void CounterProbe::add(double plain_ms, double counted_ms, double insts,
                       double stalls, double transactions) {
  without_ms_ += plain_ms;
  with_ms_ += counted_ms;
  insts_ += insts;
  stalls_ += stalls;
  transactions_ += transactions;
}

void CounterProbe::report(RunReport& report) const {
  using prof::Counter;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report.set("mem.transactions", transactions_);
  report.set("mem.l1_hit_ratio", ratio(pmu.get(Counter::kL1SectorHits),
                                       pmu.get(Counter::kL1SectorAccesses)));
  report.set("mem.l2_hit_ratio", ratio(pmu.get(Counter::kL2SectorHits),
                                       pmu.get(Counter::kL2SectorAccesses)));
  report.set("sm.issue_ratio", ratio(insts_, insts_ + stalls_));
  report.set("prof.pmu_overhead", ratio(with_ms_, without_ms_));
}

const std::vector<std::string>& paper_kernel_names() {
  static const std::vector<std::string> kNames = [] {
    // The eight single-SM paper kernels of the trace catalogue (the cluster
    // and TMA kernels need multi-SM or async set-up a paper point lacks).
    std::vector<std::string> names;
    for (const auto name : trace::trace_kernel_names()) {
      if (name != "dsm" && name != "tma") names.emplace_back(name);
    }
    names.emplace_back("dpx_fig07");
    return names;
  }();
  return kNames;
}

std::vector<PointSpec> paper_sweep_round(std::uint64_t seed, std::uint64_t round) {
  // Each (kernel, device, warps) cell rotates through four iters strata,
  // from a seeded starting stratum; the sampled points rotate through every
  // (kernel, warps) pair.  The seed draws the strata offsets, the exact
  // iters, the devices of sampled points and the order.
  Rng offsets(seed, 0x7061706572ULL, ~0ULL);
  Rng rng(seed, 0x7061706572ULL, round);
  std::vector<PointSpec> points;
  const int kernels = static_cast<int>(paper_kernel_names().size());
  const int devices = static_cast<int>(arch::all_devices().size());
  for (int k = 0; k < kernels; ++k) {
    for (int d = 0; d < devices; ++d) {
      for (const int w : kWarps) {
        const std::uint64_t stratum = offsets.below(kStrata) + round;
        points.push_back({.device = d, .kernel = k, .warps = w,
                          .iters = rng.log_stratum(128, 2048, kStrata, stratum)});
      }
    }
  }
  const std::uint64_t pairs = static_cast<std::uint64_t>(kernels) * std::size(kWarps);
  const std::uint64_t first_pair = offsets.below(pairs);
  for (std::uint64_t i = 0; i < kSampledPerRound; ++i) {
    const std::uint64_t pair = (first_pair + round * kSampledPerRound + i) % pairs;
    points.push_back({.device = static_cast<int>(rng.below(devices)),
                      .kernel = static_cast<int>(pair % kernels),
                      .warps = kWarps[pair / kernels],
                      .iters = rng.log_stratum(4096, 8192, 2, round + i),
                      .sampled = true});
  }
  rng.shuffle(points);
  return points;
}

void rss_probe_paper_sweep(const RunOptions& options) {
  const Catalogue cat = build_catalogue(options.seed);
  for (std::uint64_t round = 0; round < kStrata; ++round) {
    (void)run_serial(cat, round == 0 ? cat.first_round
                                     : paper_sweep_round(options.seed, round));
  }
}

std::uint64_t paper_sweep_reference_digest() {
  const Catalogue cat = build_catalogue(kDefaultSeed);
  std::vector<PointSpec> specs(cat.first_round.begin(),
                               cat.first_round.begin() + kReferencePoints);
  Digest digest;
  for (const auto& o : run_serial(cat, specs)) digest.add(o.digest);
  return digest.value();
}

RunReport run_paper_sweep(const RunOptions& options) {
  RunReport report;
  report.stamp["threads"] = std::to_string(sweep_threads(options.threads));
  const Catalogue cat = build_catalogue(options.seed);
  // Warm-up: a few untimed points, so lazy statics are built before timing.
  for (std::size_t i = 0; i < 9 && i < cat.first_round.size(); ++i) {
    (void)run_point(cat, cat.first_round[i], nullptr, 0, 0);
  }

  if (!options.trace) {
    const Executed ex = timed_phase(cat, options.seed, options.seconds,
                                    options.threads, nullptr, options.smoke);
    report.note("timed process peak RSS " + std::to_string(peak_rss_mb()) + " MiB");
    report.attempted = ex.outs.size();
    verify(report, cat, ex, options.seed);
    report_end_to_end(report, ex.phase, probe_rss_mb(options),
                      table4_model_err_pct(), options.smoke);
    return report;
  }

  const double half = options.seconds / 2;
  const Executed plain = timed_phase(cat, options.seed, half, options.threads,
                                     nullptr, options.smoke);
  Tracer tracer;
  const Executed traced = timed_phase(cat, options.seed, half, options.threads,
                                      &tracer, options.smoke);
  report.attempted = plain.outs.size() + traced.outs.size();
  verify(report, cat, traced, options.seed);
  for (const auto& o : plain.outs) {
    if (!o.ok) ++report.failed;
  }

  const auto point_ms = tracer.durations_ms("sim.point");
  double point_total = 0, setup_total = 0, run_total = 0, exact_insts = 0;
  for (const double v : point_ms) point_total += v;
  for (const double v : tracer.durations_ms("mem.setup")) setup_total += v;
  for (const double v : tracer.durations_ms("sm.setup")) setup_total += v;
  for (const double v : tracer.durations_ms("sm.run")) run_total += v;
  for (std::size_t i = 0; i < traced.specs.size(); ++i) {
    if (!traced.specs[i].sampled) exact_insts += traced.outs[i].insts;
  }
  report.set("sim.point_ms_p50", percentile(point_ms, 50));
  report.set("sim.pool_busy_share",
             point_total /
                 (traced.phase.wall_s * 1000.0 * sweep_threads(options.threads)));
  report.set("mem.setup_ms_p50", percentile(tracer.durations_ms("mem.setup"), 50));
  report.set("sm.setup_ms_p50", percentile(tracer.durations_ms("sm.setup"), 50));
  report.set("sm.setup_share", point_total > 0 ? setup_total / point_total : 0);
  report.set("sm.run_ms_p50", percentile(tracer.durations_ms("sm.run"), 50));
  report.set("sm.insts_per_host_s", run_total > 0 ? exact_insts / run_total * 1000.0 : 0);
  report.set("ff.sample_ms_p50", percentile(tracer.durations_ms("ff.sample"), 50));
  report_self_shares(report, tracer);
  report_trace_overhead(report,
                        static_cast<double>(plain.outs.size()) / plain.phase.wall_s,
                        static_cast<double>(traced.outs.size()) / traced.phase.wall_s);
  probe_counters(report, cat, options.smoke);
  tracer.write_chrome_trace(options.out_dir + "/spans-paper_sweep-seed" +
                            std::to_string(options.seed) + ".json");
  return report;
}

}  // namespace perfbench
