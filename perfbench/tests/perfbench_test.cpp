// The benchmark's own tests: generator determinism, the percentile helper,
// digest stability, the span recorder, the metric catalogue against
// BENCHMARK.json, and a tiny smoke pass of every workload.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Generators, SameSeedSameOps) {
  EXPECT_EQ(paper_sweep_round(7, 3), paper_sweep_round(7, 3));
  EXPECT_NE(paper_sweep_round(7, 3), paper_sweep_round(8, 3));
  EXPECT_NE(paper_sweep_round(7, 3), paper_sweep_round(7, 4));
  for (const auto kind : {ChipKind::kLatency, ChipKind::kDense}) {
    EXPECT_EQ(chip_round(kind, 7, 2), chip_round(kind, 7, 2));
    EXPECT_NE(chip_round(kind, 7, 2), chip_round(kind, 8, 2));
  }
  const auto a = serve_universe(7);
  const auto b = serve_universe(7);
  ASSERT_EQ(a.size(), kServeUniverse);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].line, b[i].line);
  EXPECT_NE(serve_universe(8)[0].line + serve_universe(8)[1].line,
            a[0].line + a[1].line);
  EXPECT_EQ(serve_sequence(7, 0, 500), serve_sequence(7, 0, 500));
  EXPECT_NE(serve_sequence(7, 0, 500), serve_sequence(7, 1, 500));
}

TEST(Generators, PaperRoundCoversEveryPointOnce) {
  const auto round = paper_sweep_round(kHeldOutSeed + 1, 0);
  std::set<std::tuple<int, int, int>> exact;
  int sampled = 0;
  for (const auto& p : round) {
    if (p.sampled) {
      ++sampled;
      EXPECT_GE(p.iters, 4096u);
      continue;
    }
    EXPECT_GE(p.iters, 128u);
    EXPECT_LE(p.iters, 2048u);
    EXPECT_TRUE(exact.emplace(p.device, p.kernel, p.warps).second);
  }
  EXPECT_EQ(exact.size(), paper_kernel_names().size() * 3 * 4);
  EXPECT_EQ(sampled, 16);  // about one point in eight
}

TEST(Generators, ChipShapes) {
  for (const auto& l : chip_round(ChipKind::kLatency, 5, 0)) {
    EXPECT_EQ(l.warps, 1);
    EXPECT_GE(l.iters, 128u);
    EXPECT_LE(l.iters, 512u);
  }
  for (const auto& l : chip_round(ChipKind::kDense, 5, 0)) {
    EXPECT_GE(l.warps, 16);
    EXPECT_LE(l.warps, 32);
    EXPECT_TRUE(l.waves == 1 || l.waves == 2);
  }
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({3}, 90), 3);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(highest_supported_percentile(19), 0);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(99), 50);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Digest, OrderAndValueSensitive) {
  EXPECT_EQ(Digest().add(1.5).add(std::uint64_t{2}).value(),
            Digest().add(1.5).add(std::uint64_t{2}).value());
  EXPECT_NE(Digest().add(1.5).add(std::uint64_t{2}).value(),
            Digest().add(std::uint64_t{2}).add(1.5).value());
  EXPECT_NE(Digest().add(std::string_view("ab")).value(),
            Digest().add(std::string_view("ba")).value());
}

TEST(Digest, ReferenceDigestsMatchRecorded) {
  EXPECT_EQ(paper_sweep_reference_digest(), kPaperSweepRecordedDigest);
  EXPECT_EQ(chip_reference_digest(ChipKind::kLatency), kChipLatencyRecordedDigest);
  EXPECT_EQ(chip_reference_digest(ChipKind::kDense), kChipDenseRecordedDigest);
  EXPECT_EQ(serve_reference_digest(), kServeRecordedDigest);
  // Stable within a process too (no hidden state between runs).
  EXPECT_EQ(paper_sweep_reference_digest(), kPaperSweepRecordedDigest);
}

TEST(Digest, ServeReplyDigestIgnoresBytesOutsideSimulatedStats) {
  const std::string a =
      R"({"id":1,"ok":true,"result":{"cycles":10,"instructions":4,"key":"x"}})";
  const std::string b =
      R"({"id":9,"ok":true,"result":{"cycles":10,"instructions":4,"key":"y"}})";
  const std::string c =
      R"({"id":1,"ok":true,"result":{"cycles":11,"instructions":4,"key":"x"}})";
  EXPECT_EQ(serve_reply_digest(a), serve_reply_digest(b));
  EXPECT_NE(serve_reply_digest(a), serve_reply_digest(c));
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "a.outer", 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Two overlapping children on other threads: their union is covered once.
    std::thread t1([&] {
      ScopedSpan child(&tracer, "b.child", 1, outer.id());
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    std::thread t2([&] {
      ScopedSpan child(&tracer, "b.child", 1, outer.id());
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    t1.join();
    t2.join();
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  const auto self = tracer.self_ms_by_layer();
  const double outer_ms = tracer.durations_ms("a.outer")[0];
  EXPECT_GE(self.at("a"), 19.0);
  EXPECT_LT(self.at("a"), outer_ms - 25.0);
  EXPECT_GE(self.at("b"), 59.0);  // children have no children: all self
  ScopedSpan off(nullptr, "a.none", 2);  // untraced: no-op
  EXPECT_EQ(tracer.spans().size(), 3u);
}

TEST(Catalogue, BenchmarkJsonNamesEveryMetric) {
  std::ifstream in(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();
  for (const auto* catalogue : {&end_to_end_catalogue(), &per_layer_catalogue()}) {
    for (const auto& [name, unit] : *catalogue) {
      EXPECT_NE(text.str().find("\"name\": \"" + name + "\", \"unit\": \"" + unit + "\""),
                std::string::npos)
          << name;
    }
  }
}

RunOptions smoke_options(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 3;
  o.seconds = 0.3;
  o.trace = trace;
  o.threads = 2;
  o.smoke = true;
  o.hsim_bin = PERFBENCH_HSIM_BIN;
  o.self_bin = PERFBENCH_BIN;
  o.out_dir = (std::filesystem::temp_directory_path() / "perfbench_test").string();
  std::filesystem::create_directories(o.out_dir);
  return o;
}

RunReport run(const RunOptions& o) {
  if (o.workload == "paper_sweep") return run_paper_sweep(o);
  if (o.workload == "chip_latency") return run_chip(o, ChipKind::kLatency);
  if (o.workload == "chip_dense") return run_chip(o, ChipKind::kDense);
  return run_serve_mix(o);
}

class Smoke : public testing::TestWithParam<std::string> {};

TEST_P(Smoke, UntracedRunIsCorrectAndReportsEveryEndToEndMetric) {
  const RunReport r = run(smoke_options(GetParam(), false));
  for (const auto& note : r.notes) std::cerr << note << "\n";
  EXPECT_TRUE(r.correct());
  EXPECT_GE(r.attempted, 1u);
  EXPECT_EQ(r.failed, 0u);
  for (const auto& [name, unit] : end_to_end_catalogue()) {
    ASSERT_TRUE(r.values.count(name)) << name;
    EXPECT_GT(r.values.at(name), 0) << name;
  }
}

TEST_P(Smoke, TracedRunReportsItsLayers) {
  const RunReport r = run(smoke_options(GetParam(), true));
  for (const auto& note : r.notes) std::cerr << note << "\n";
  EXPECT_TRUE(r.correct());
  const std::string layer = GetParam() == "paper_sweep"  ? "sim.point_ms_p50"
                            : GetParam() == "serve_mix" ? "serve.miss_ms_p50"
                                                        : "gpu.launch_ms_p50";
  ASSERT_TRUE(r.values.count(layer));
  EXPECT_GT(r.values.at(layer), 0);
  EXPECT_GT(r.values.at("trace.spans"), 0);
  const std::string line = result_json(r, true);
  for (const auto& [name, unit] : per_layer_catalogue()) {
    EXPECT_NE(line.find('"' + name + '"'), std::string::npos) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         testing::Values("paper_sweep", "chip_latency", "chip_dense",
                                         "serve_mix"));

}  // namespace
}  // namespace perfbench
