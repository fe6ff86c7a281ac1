// One timed phase, reported to every sink it is given.
//
// A phase of the training step is usually wanted in three places: a span in
// the Chrome trace, a stage in the hierarchical profiler (/metricsz), and a
// number in the step record. Phase times the interval once — one pair of
// steady_clock reads — and feeds each sink from that same interval, so the
// three views can never drift apart. Adding a timed phase is one line:
//
//   obs::Phase phase({.tracer = tracer, .span = "rpc/optimize", .step = step,
//                     .profiler = prof, .stage = "optimize",
//                     .ms = &optimize_ms});
//
// Every sink is optional. A null or disabled tracer or profiler is skipped,
// as is a null output slot; with nothing to feed, a Phase reads no clock.
// ScopedSpan and ScopedStage are the span-only and stage-only forms.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/stage_profiler.h"
#include "obs/trace.h"

namespace threelc::obs {

struct PhaseSinks {
  Tracer* tracer = nullptr;
  const char* span = nullptr;  // span name on `tracer`
  int track = 0;               // trace track (0 = server, 1+w = worker w)
  std::int64_t step = -1;      // logical step stamped on the span
  StageProfiler* profiler = nullptr;
  // Stage name under the innermost live stage of this thread. Must be a
  // string literal: the profiler's child cache keys on pointer identity.
  const char* stage = nullptr;
  double* ms = nullptr;         // receives the elapsed milliseconds
  std::uint64_t* ns = nullptr;  // receives the elapsed nanoseconds
};

class Phase {
 public:
  explicit Phase(const PhaseSinks& sinks)
      : tracer_(sinks.tracer != nullptr && sinks.tracer->enabled()
                    ? sinks.tracer
                    : nullptr),
        span_(sinks.span),
        track_(sinks.track),
        step_(sinks.step),
        ms_(sinks.ms),
        ns_(sinks.ns) {
    if (sinks.profiler != nullptr && sinks.profiler->enabled()) {
      ts_ = sinks.profiler->GetThreadState();
      parent_ = ts_->current;
      id_ = sinks.profiler->ResolveChild(*ts_, parent_, sinks.stage);
      ts_->current = id_;
    }
    active_ = tracer_ != nullptr || ts_ != nullptr || ms_ != nullptr ||
              ns_ != nullptr;
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  ~Phase() {
    if (!active_) return;
    const auto end = std::chrono::steady_clock::now();
    const auto raw =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    const std::uint64_t ns = raw > 0 ? static_cast<std::uint64_t>(raw) : 0;
    if (ts_ != nullptr) {
      ts_->Record(id_, ns);
      ts_->current = parent_;
    }
    if (tracer_ != nullptr) {
      tracer_->RecordSpan(span_, track_, tracer_->SinceOriginUs(start_),
                          static_cast<double>(ns) * 1e-3, step_);
    }
    if (ms_ != nullptr) *ms_ = static_cast<double>(ns) * 1e-6;
    if (ns_ != nullptr) *ns_ = ns;
  }

 private:
  Tracer* tracer_;
  const char* span_;
  int track_;
  std::int64_t step_;
  double* ms_;
  std::uint64_t* ns_;
  StageProfiler::ThreadState* ts_ = nullptr;
  int parent_ = -1;
  int id_ = -1;
  bool active_ = false;
  std::chrono::steady_clock::time_point start_;
};

// Span only: construction-to-destruction on `tracer`'s track.
class ScopedSpan : public Phase {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int track,
             std::int64_t step = -1)
      : Phase({.tracer = tracer, .span = name, .track = track, .step = step}) {}
};

// Stage only: `name` nests under this thread's innermost live stage.
class ScopedStage : public Phase {
 public:
  ScopedStage(StageProfiler* profiler, const char* name)
      : Phase({.profiler = profiler, .stage = name}) {}
};

}  // namespace threelc::obs
