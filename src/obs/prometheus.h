// Prometheus text exposition (version 0.0.4) for MetricsRegistry.
//
// The registry's `/`-style metric names ("traffic/push_bytes") are not
// legal Prometheus names, so every exported series goes through
// SanitizeMetricName first: illegal characters become '_', a leading
// digit gets a '_' prefix, and the result is prefixed with "threelc_".
// Sanitization is idempotent (sanitize(sanitize(x)) == sanitize(x)), which
// the round-trip unit test in obs_test relies on.
//
// Mapping:
//   counter   -> <name>_total (sum) and <name>_events_total (event count)
//   gauge     -> <name>
//   histogram -> summary-style series: <name>{quantile="0.5"|"0.9"|"0.99"},
//                <name>_sum, <name>_count
// Every series is preceded by # HELP and # TYPE lines.
#pragma once

#include <iosfwd>
#include <string>

namespace threelc::obs {

class MetricsRegistry;

// Rewrite `name` into a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*). Empty input becomes "_".
std::string SanitizeMetricName(const std::string& name);

// True iff `name` already satisfies the Prometheus metric-name grammar.
bool IsValidMetricName(const std::string& name);

// Escape a label value per the exposition format: backslash, double quote,
// and newline are escaped.
std::string EscapeLabelValue(const std::string& value);

// One sample value in the exposition format: the shortest text that
// parses back to exactly `v`, or the literals NaN, +Inf and -Inf. Every
// exporter (registry, stage profiler, cluster view) prints through it.
std::string FormatSampleValue(double v);

// Write the full registry in Prometheus text exposition format. `prefix`
// is prepended to every (sanitized) metric name.
void WritePrometheus(const MetricsRegistry& registry, std::ostream& out,
                     const std::string& prefix = "threelc_");

}  // namespace threelc::obs
