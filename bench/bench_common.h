// Shared helpers for the experiment benches (one binary per paper
// table/figure), which print the paper-shaped rows/series to stdout and
// write a CSV under ./results/ for plotting, and for the perf-gate benches
// (bench_codec, bench_step), which write a BENCH_*.json file.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "compress/factory.h"
#include "obs/json.h"
#include "train/experiment.h"

namespace threelc::bench {

// Standard step budget, overridable for quick runs:
//   THREELC_STEPS=200 ./bench_table1
inline std::int64_t StandardSteps(const train::ExperimentConfig& config) {
  if (const char* env = std::getenv("THREELC_STEPS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return v;
  }
  return config.standard_steps;
}

// Ensure ./results exists; returns the CSV path for a given name.
inline std::string ResultsPath(const std::string& name) {
  std::filesystem::create_directories("results");
  return "results/" + name;
}

// The nine designs plotted in Figures 4–6 (Table 1 minus the s=1.5/1.9
// rows), in legend order.
inline std::vector<compress::CodecConfig> FigureDesigns() {
  return {
      compress::CodecConfig::Float32(),
      compress::CodecConfig::EightBit(),
      compress::CodecConfig::StochThreeQE(),
      compress::CodecConfig::MqeOneBit(),
      compress::CodecConfig::Sparsification(0.25f),
      compress::CodecConfig::Sparsification(0.05f),
      compress::CodecConfig::TwoLocalSteps(),
      compress::CodecConfig::ThreeLC(1.00f),
      compress::CodecConfig::ThreeLC(1.75f),
  };
}

// Step budgets used throughout §5.3: 25/50/75/100% of standard steps.
inline std::vector<std::int64_t> StepBudgets(std::int64_t standard) {
  return {standard / 4, standard / 2, standard * 3 / 4, standard};
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

// One entry of a BENCH_*.json file.
struct Metric {
  std::string key;
  double value = 0.0;
  std::string unit;
  bool higher_is_better = true;
};

// "<cpu model>, <n> cores, <compiler>": the numbers are only comparable on
// the same hardware.
inline std::string HostFingerprint() {
  std::string cpu = "unknown cpu";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu = line.substr(colon + 2);
      }
      break;
    }
  }
  return cpu + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " cores, " +
#if defined(__clang__)
         "clang " __clang_version__;
#elif defined(__GNUC__)
         "g++ " __VERSION__;
#else
         "unknown compiler";
#endif
}

// Write the threelc-bench-v1 document tools/check_perf.py reads, stamped
// with $THREELC_COMMIT (or "unknown") and the host. Returns false, with a
// message on stderr, if `path` cannot be opened.
inline bool WriteBenchJson(const std::string& path, const std::string& bench,
                           const std::vector<Metric>& metrics) {
  const char* commit = std::getenv("THREELC_COMMIT");
  std::string json = "{\n  \"schema\": \"threelc-bench-v1\",\n  \"bench\": ";
  obs::AppendJsonEscaped(json, bench);
  json += ",\n  \"commit\": ";
  obs::AppendJsonEscaped(json, commit != nullptr ? commit : "unknown");
  json += ",\n  \"host\": ";
  obs::AppendJsonEscaped(json, HostFingerprint());
  json += ",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += "    ";
    obs::AppendJsonEscaped(json, m.key);
    json += ": {\"value\": " + std::to_string(m.value) + ", \"unit\": ";
    obs::AppendJsonEscaped(json, m.unit);
    json += ", \"higher_is_better\": ";
    json += m.higher_is_better ? "true" : "false";
    json += i + 1 < metrics.size() ? "},\n" : "}\n";
  }
  json += "  }\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_" << bench << ": cannot open " << path << "\n";
    return false;
  }
  out << json;
  std::cerr << "bench_" << bench << ": wrote " << path << "\n";
  return true;
}

}  // namespace threelc::bench
