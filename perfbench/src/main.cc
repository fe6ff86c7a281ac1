// perfbench: end-to-end training benchmark of the 3LC parameter server.
//
//   perfbench --workload <lan-3lc|lan-f32-ckpt|wan-3lc> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--work-dir <d>]
//   perfbench --selftest
//
// --trace 0 runs training episodes through the real TCP runtime with
// telemetry off for --seconds and reports the end-to-end metrics. --trace 1
// alternates untraced and traced episodes (server step log on), then times
// each module from outside and reports the per-layer metrics. Both modes
// check every episode's final model bitwise against the in-process
// DistributedTrainer reference and exit non-zero when any check fails.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --selftest checks the shaped-link relay.
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "layers.h"
#include "train/time_model.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload.h"

using namespace perfbench;
using namespace threelc;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit;
  std::string work_dir = ".";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      *error = "malformed value for " + flag + ": " + value;
      return false;
    }
  }
  if (!args->selftest && FindWorkload(args->workload) == nullptr) {
    *error = "unknown --workload '" + args->workload + "'";
    return false;
  }
  if (args->trace != 0 && args->trace != 1) {
    *error = "--trace must be 0 or 1";
    return false;
  }
  if (!(args->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// JSON number with every digit needed to round-trip the double.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const std::size_t first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  utsname u{};
  return uname(&u) == 0 ? std::string(u.machine) + " (no CPU brand string)"
                        : std::string("unidentified CPU");
}

// Host, build and run identity, printed before the result so numbers from
// two hosts or builds are never compared unknowingly.
std::string Fingerprint(const Args& args) {
  std::string json = "{\"fingerprint\":{";
  json += "\"cpu_model\":" + Quote(CpuModel());
  json += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  json += ",\"compiler\":" + Quote(std::string(PERFBENCH_COMPILER) + " (" +
                                   __VERSION__ + ")");
  json += ",\"flags\":" + Quote(PERFBENCH_CXX_FLAGS);
  json += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  json += ",\"commit\":" + Quote(args.commit.empty()
                                     ? "not supplied (run through run.py)"
                                     : args.commit);
  json += ",\"checkpoint_dir\":" +
          Quote(std::string("memfs:") + kCheckpointPath +
                " (in-process util::Fs, no disk)");
  json += ",\"workload\":" + Quote(args.workload);
  json += ",\"seed\":" + std::to_string(args.seed);
  json += ",\"seconds\":" + Num(args.seconds);
  json += ",\"trace\":" + std::to_string(args.trace);
  return json + "}}";
}

// A run's outcome: counts steps, keeps each stream's first final model and
// checks every later episode of that stream, then the in-process
// reference, against it byte for byte.
struct Verdict {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::vector<std::uint8_t>> first_model;  // [stream]

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }

  void Add(const EpisodeResult& ep, std::size_t stream, std::int64_t steps) {
    attempted += steps;
    failed += steps - ep.steps_completed;
    first_model.resize(std::max(first_model.size(), stream + 1));
    std::vector<std::uint8_t>& first = first_model[stream];
    if (!ep.ok) {
      Fail("episode failed: " + ep.error);
    } else if (first.empty()) {
      first = ep.model_bytes;
    } else if (ep.model_bytes != first) {
      Fail("episodes of one stream ended in different models");
    }
  }

  // A run failing any check counts as wholly failed.
  void Finish(const std::vector<Reference>& refs) {
    for (std::size_t k = 0; k < first_model.size() && correct; ++k) {
      if (first_model[k] != refs[k].model_bytes) {
        Fail("stream " + std::to_string(k) +
             ": TCP model differs from the in-process reference");
      } else if (!AllFinite(*refs[k].model)) {
        Fail("stream " + std::to_string(k) + ": non-finite model");
      }
    }
    if (!correct) failed = attempted;
  }
};

int Emit(const Args& args, const Verdict& verdict, const MetricList& metrics) {
  std::cout << Fingerprint(args) << "\n";
  for (const std::string& p : verdict.problems) {
    std::cout << "FAIL " << p << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << Num(m.value) << " " << m.unit << "\n";
  }
  std::string json = "{\"correct\":";
  json += verdict.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(verdict.attempted);
  json += ",\"failed\":" + std::to_string(verdict.failed);
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += Quote(metrics[i].name) + ":{\"value\":" + Num(metrics[i].value) +
            ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return verdict.correct ? 0 : 1;
}

double SamplesPerSecond(const EpisodeResult& ep) {
  return static_cast<double>(kWorkers * kBatch * ep.steps_completed) /
         ep.run_s;
}

// Training streams per run. Codec bits and loss after a short run depend
// on the batch order; each run trains kStreams seed-derived streams in turn
// and reports figures over all of them, so one run measures more than one
// trajectory.
constexpr std::size_t kStreams = 3;
constexpr std::size_t kMinEpisodes = kStreams;
constexpr std::size_t kMinTracedPairs = 2;  // untraced + traced episodes

// The run's streams: same model and data, batch order from `seed`.
std::vector<train::ExperimentConfig> StreamConfigs(const Workload& workload,
                                                   std::uint64_t seed) {
  util::Rng seeds(seed);
  std::vector<train::ExperimentConfig> configs;
  for (std::size_t k = 0; k < kStreams; ++k) {
    configs.push_back(MakeConfig(workload, seeds.Next()));
  }
  return configs;
}

// References for the streams the episodes used (the first `count`).
std::vector<Reference> RunReferences(
    const std::vector<train::ExperimentConfig>& configs, std::size_t count) {
  std::vector<Reference> refs;
  for (std::size_t k = 0; k < count; ++k) {
    refs.push_back(RunReference(configs[k]));
  }
  return refs;
}

int RunUntraced(const Args& args, const Workload& workload) {
  const auto configs = StreamConfigs(workload, args.seed);
  const std::int64_t steps = workload.episode_steps;
  Verdict verdict;
  std::vector<double> sps, setup_s, rss_mb;
  util::WallTimer clock;
  for (std::size_t i = 0;
       i < kMinEpisodes || clock.ElapsedSeconds() < args.seconds; ++i) {
    EpisodeResult ep =
        RunEpisodeIsolated(workload, configs[i % kStreams], "");
    verdict.Add(ep, i % kStreams, steps);
    if (!ep.ok) break;
    sps.push_back(SamplesPerSecond(ep));
    setup_s.push_back(ep.setup_s);
    rss_mb.push_back(ep.peak_rss_mb);
  }

  const std::vector<Reference> refs =
      RunReferences(configs, verdict.first_model.size());
  verdict.Finish(refs);
  // Table 2 accounting pooled over the streams; loss as their median.
  double codec_bytes = 0.0, codec_values = 0.0;
  std::vector<double> bits, loss;
  for (const Reference& ref : refs) {
    codec_bytes += static_cast<double>(ref.result.CodecBytes());
    codec_values += static_cast<double>(ref.result.CodecValues());
    bits.push_back(ref.result.CodecBitsPerValue());
    loss.push_back(HeldOutLoss(*ref.model, ref.data.test));
  }
  MetricList metrics = {
      {"samples_per_s", Median(sps), "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"bits_per_value", codec_bytes * 8.0 / codec_values, "bits"},
      {"final_loss", Median(loss), "nats"},
      {"peak_rss_mb", Median(rss_mb), "MiB"},
      {"steps_completed_frac",
       static_cast<double>(verdict.attempted - verdict.failed) /
           static_cast<double>(std::max<std::int64_t>(verdict.attempted, 1)),
       "frac"},
  };
  std::cout << "episodes of " << steps << " steps (samples_per_s setup_s "
            << "peak_rss_mb):";
  for (std::size_t i = 0; i < sps.size(); ++i) {
    std::cout << " " << Num(sps[i]) << "/" << Num(setup_s[i]) << "/"
              << Num(rss_mb[i]);
  }
  std::cout << "\nstreams (bits_per_value final_loss):";
  for (std::size_t k = 0; k < bits.size(); ++k) {
    std::cout << " " << Num(bits[k]) << "/" << Num(loss[k]);
  }
  std::cout << "\n";
  return Emit(args, verdict, metrics);
}

int RunTraced(const Args& args, const Workload& workload) {
  const auto configs = StreamConfigs(workload, args.seed);
  const std::int64_t steps = workload.episode_steps;
  Verdict verdict;
  std::vector<double> untraced_sps, traced_sps, step_s, busy_frac;
  std::vector<double> wire_bytes_per_step;
  StepLog log;
  util::WallTimer clock;
  // Alternate untraced and traced episodes so drift hits both alike.
  for (std::size_t i = 0;
       i < 2 * kMinTracedPairs || clock.ElapsedSeconds() < args.seconds; ++i) {
    const bool traced = i % 2 == 1;
    const std::size_t stream = (i / 2) % kStreams;  // one stream per pair
    const std::string log_path =
        traced ? args.work_dir + "/steps-" + workload.name + "-" +
                     std::to_string(i) + ".jsonl"
               : std::string();
    EpisodeResult ep = RunEpisodeIsolated(workload, configs[stream], log_path);
    verdict.Add(ep, stream, steps);
    if (!ep.ok) break;
    if (!traced) {
      untraced_sps.push_back(SamplesPerSecond(ep));
      step_s.push_back(ep.run_s / static_cast<double>(steps));
      if (workload.relay) busy_frac.push_back(ep.link_busy_s / ep.run_s);
      continue;
    }
    traced_sps.push_back(SamplesPerSecond(ep));
    const double server_bytes = ep.server_wire_bytes;
    if (!AppendStepLog(log_path, &log)) {
      verdict.Fail("no step records in " + log_path);
    }
    std::remove(log_path.c_str());
    double wire = server_bytes;
    if (workload.relay) {
      double relay_bytes = 0.0;
      for (const LinkCount& c : ep.link_counts) {
        relay_bytes += static_cast<double>(c.up_bytes + c.down_bytes);
      }
      if (relay_bytes != server_bytes) {
        verdict.Fail("relay counted " + Num(relay_bytes) +
                     " bytes, the server " + Num(server_bytes));
      }
      wire = relay_bytes;
    }
    wire_bytes_per_step.push_back(wire / static_cast<double>(steps));
  }

  std::vector<Reference> refs =
      RunReferences(configs, verdict.first_model.size());
  verdict.Finish(refs);
  MetricList metrics;
  if (verdict.correct) {
    Reference& ref = refs[0];
    MeasureModules(workload, configs[0], ref, &metrics);
    ProbeHost(&metrics);

    metrics.push_back({"rpc.step_ms.p50", Quantile(log.step_ms, 0.5), "ms"});
    metrics.push_back({"rpc.step_ms.p99", Quantile(log.step_ms, 0.99), "ms"});
    for (const std::string& phase : ServerPhases()) {
      double sum = 0.0;
      for (double ms : log.phase_ms[phase]) sum += ms;
      metrics.push_back({"rpc.phase." + phase + "_ms",
                         sum / static_cast<double>(log.step_ms.size()), "ms"});
    }

    // Link: exact bytes per step; busy share of the step at the link rate
    // (the relay's paced rate, or the loopback throughput probe).
    const double wire = Median(wire_bytes_per_step);
    const double step = Median(step_s);
    const double link_bps = workload.relay
                                ? workload.link_bps
                                : Get(metrics, "host.loopback_gbps") * 8e9;
    metrics.push_back({"link.wire_bytes_per_step", wire, "bytes"});
    metrics.push_back(
        {"link.busy_frac",
         workload.relay ? Median(busy_frac)
                        : wire / kWorkers * 8.0 / link_bps / step,
         "frac"});

    // §5.2 time model for this topology: one link of link_bps per worker,
    // no fixed protocol overhead, measured compute and codec seconds.
    train::TimeModelConfig tm;
    tm.link = net::LinkConfig{link_bps, 0.0};
    tm.compute_seconds_per_step = Get(metrics, "nn.forward_backward_ms") / 1e3;
    tm.workers_per_machine = 1;
    const double predicted = train::EstimatePerStepSeconds(ref.result, tm);
    metrics.push_back({"train.time_model_step_ms", predicted * 1e3, "ms"});
    metrics.push_back({"train.time_model_ratio", step / predicted, "x"});
    metrics.push_back({"obs.tracing_overhead_frac",
                       1.0 - Median(traced_sps) / Median(untraced_sps),
                       "frac"});

    // Which layer this workload stresses (reported, not enforced).
    const double ps_ms = Get(metrics, "ps.worker_encode_push_ms") +
                         Get(metrics, "ps.server_receive_push_ms") +
                         Get(metrics, "ps.server_update_ms") +
                         Get(metrics, "ps.server_prepare_pulls_ms") +
                         Get(metrics, "ps.worker_apply_pull_ms");
    std::string largest;
    double largest_ms = -1.0;
    for (const std::string& phase : ServerPhases()) {
      if (phase == "step_barrier") continue;  // waiting, not server work
      const double ms = Get(metrics, "rpc.phase." + phase + "_ms");
      if (ms > largest_ms) {
        largest_ms = ms;
        largest = phase;
      }
    }
    std::cout << "stress ps+compress " << Num(ps_ms)
              << " ms/step vs nn.forward_backward_ms "
              << Num(Get(metrics, "nn.forward_backward_ms"))
              << "; largest server work phase " << largest
              << "; link.busy_frac "
              << Num(Get(metrics, "link.busy_frac")) << "\n";
  }
  return Emit(args, verdict, metrics);
}

}  // namespace

int RunSelftest();  // selftest.cc

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  // Per-episode connect/shutdown lines would bury the result.
  util::SetLogLevel(util::LogLevel::kWarn);
  try {
    if (args.selftest) return RunSelftest();
    const Workload& workload = *FindWorkload(args.workload);
    return args.trace == 1 ? RunTraced(args, workload)
                           : RunUntraced(args, workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
