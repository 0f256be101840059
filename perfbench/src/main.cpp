// perfbench: run one workload of the hoppersim benchmark.
//
//   perfbench --workload <paper_sweep|chip_latency|chip_dense|serve_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// The human-readable report (stamp, checks, sample counts) goes to stderr
// and to <out-dir>/result-<workload>-seed<n>-trace<t>.json; the last line
// of stdout is the result line: correct, attempted, failed and the metrics
// (end-to-end untraced, per-layer traced).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "common/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload <paper_sweep|chip_latency|chip_dense|"
               "serve_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--commit <id>]\n";
  return 2;
}

void write_record(const RunOptions& options, const RunReport& report,
                  const std::string& result_line) {
  hsim::json::Object stamp;
  for (const auto& [key, value] : report.stamp) {
    stamp.emplace(key, hsim::json::Value::string(value));
  }
  hsim::json::Array notes;
  for (const auto& note : report.notes) notes.push_back(hsim::json::Value::string(note));
  hsim::json::Object record;
  record.emplace("stamp", hsim::json::Value::object(std::move(stamp)));
  record.emplace("notes", hsim::json::Value::array(std::move(notes)));
  const auto result = hsim::json::parse(result_line);
  record.emplace("result", result ? result.value() : hsim::json::Value::null());
  std::ofstream(options.out_dir + "/result-" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
                ".json")
      << hsim::json::Value::object(std::move(record)).dump() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  options.hsim_bin = PERFBENCH_HSIM_BIN;
  int trace = -1;
  bool rss_probe = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--out-dir") options.out_dir = value;
    else if (flag == "--commit") options.commit = value;
    else if (flag == "--rss-probe") rss_probe = true;
    else return usage();
  }
  // Chip launches fork and join their threads at every epoch barrier, and
  // on a shared virtual host a waking thread waits for its vCPU: two
  // threads ran up to 2x slower for minutes at a time where one thread held
  // steady.  The timed chip runs use one thread; thread scaling is the
  // traced gpu.thread_speedup.
  const bool chip = options.workload.rfind("chip_", 0) == 0;
  options.threads = static_cast<int>(std::min(chip ? 1L : 4L, nproc));
  if (rss_probe) {
    // A fresh process for the peak-RSS probe (see probe_rss_mb).
    if (options.workload == "paper_sweep") {
      rss_probe_paper_sweep(options);
    } else if (chip) {
      rss_probe_chip(options, options.workload == "chip_latency" ? ChipKind::kLatency
                                                                 : ChipKind::kDense);
    } else {
      return usage();
    }
    std::cout << peak_rss_mb() << std::endl;
    return 0;
  }
  if (argc % 2 == 0 || (trace != 0 && trace != 1) || options.seconds <= 0) {
    return usage();
  }
  options.trace = trace == 1;
  std::filesystem::create_directories(options.out_dir);

  RunReport report;
  if (options.workload == "paper_sweep") {
    report = run_paper_sweep(options);
  } else if (options.workload == "chip_latency") {
    report = run_chip(options, ChipKind::kLatency);
  } else if (options.workload == "chip_dense") {
    report = run_chip(options, ChipKind::kDense);
  } else if (options.workload == "serve_mix") {
    report = run_serve_mix(options);
  } else {
    return usage();
  }

  report.stamp["workload"] = options.workload;
  report.stamp["seed"] = std::to_string(options.seed);
  report.stamp["seconds"] = std::to_string(options.seconds);
  report.stamp["trace"] = options.trace ? "1" : "0";
  report.stamp["nproc"] = std::to_string(nproc);
  report.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
  report.stamp["compiler"] = PERFBENCH_COMPILER;
  report.stamp["commit"] = options.commit;

  const std::string line = result_json(report, options.trace);
  for (const auto& [key, value] : report.stamp) {
    std::cerr << "[perfbench] " << key << ": " << value << "\n";
  }
  for (const auto& note : report.notes) std::cerr << "[perfbench] " << note << "\n";
  for (const auto& [name, value] : report.values) {
    std::cerr << "[perfbench] " << name << " = " << value << "\n";
  }
  write_record(options, report, line);
  std::cout << line << std::endl;
  return 0;
}
