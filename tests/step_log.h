// Reads back the step log and trace spans a Telemetry records, so tests
// can pin the schema that downstream tools (perfbench, run_report.py,
// merge_traces.py) parse.
#pragma once

#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace threelc::testutil {

struct StepPhases {
  std::vector<std::string> names;  // phases_ms keys, in emitted order
  double sum_ms = 0.0;             // sum of the phases_ms values
  double step_wall_ms = 0.0;
};

// One entry per "type":"step" line of a metrics JSONL file.
inline std::vector<StepPhases> ReadStepPhases(const std::string& path) {
  std::ifstream in(path);
  std::vector<StepPhases> steps;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"step\"") == std::string::npos) continue;
    StepPhases s;
    const std::string wall_key = "\"step_wall_ms\":";
    const std::size_t wall = line.find(wall_key);
    if (wall != std::string::npos) {
      s.step_wall_ms = std::strtod(line.c_str() + wall + wall_key.size(),
                                   nullptr);
    }
    const std::string phases_key = "\"phases_ms\":{";
    std::size_t pos = line.find(phases_key);
    if (pos == std::string::npos) continue;
    pos += phases_key.size();
    while (pos < line.size() && line[pos] == '"') {
      const std::size_t close = line.find('"', pos + 1);
      s.names.push_back(line.substr(pos + 1, close - pos - 1));
      char* end = nullptr;
      s.sum_ms += std::strtod(line.c_str() + close + 2, &end);
      pos = static_cast<std::size_t>(end - line.c_str());
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    steps.push_back(std::move(s));
  }
  return steps;
}

// Distinct span names recorded on tracks [first_track, last_track].
inline std::set<std::string> SpanNames(const obs::Tracer& tracer,
                                       int first_track, int last_track) {
  std::set<std::string> names;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    if (e.track >= first_track && e.track <= last_track) names.insert(e.name);
  }
  return names;
}

}  // namespace threelc::testutil
