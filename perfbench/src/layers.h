// Per-layer measurements for the traced mode.
//
// Each module is timed from outside, through its public functions, on the
// workload's own model, batch and gradients (recorded from the trained
// reference model, at the workload's tensor shapes): compress and
// blockcodec kernels, ps server and worker step halves, nn compute and
// checkpoints (through util::Fs), util CRC, rpc framing, data sampling.
// The rpc step phases come from the step log the server already writes
// when obs::Telemetry is on. Host probes (memcpy, loopback) are taken in
// the same run so figures from two hosts are never compared raw.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using MetricList = std::vector<Metric>;

// Value of `name` in `metrics`; throws std::out_of_range when absent.
double Get(const MetricList& metrics, const std::string& name);

// Per-step records of the server step log (obs::Telemetry JSONL).
struct StepLog {
  std::vector<double> step_ms;
  std::map<std::string, std::vector<double>> phase_ms;
};
// Append the step records of `path` to `log`. False when the file cannot
// be read or holds no step record.
bool AppendStepLog(const std::string& path, StepLog* log);

// The server phases RpcServer reports per step, in step order.
const std::vector<std::string>& ServerPhases();

// memcpy bandwidth, loopback TCP round trip and loopback TCP throughput.
void ProbeHost(MetricList* out);

// Time the public functions of compress, blockcodec, ps, nn, util, rpc
// and data on `workload`'s model and recorded gradients.
void MeasureModules(const Workload& workload,
                    const tl::train::ExperimentConfig& config,
                    Reference& reference, MetricList* out);

// Exact quantile (linear interpolation) of unsorted samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

}  // namespace perfbench
