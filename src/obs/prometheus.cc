#include "obs/prometheus.h"

#include <charconv>
#include <cmath>
#include <ostream>

#include "obs/metrics.h"

namespace threelc::obs {

namespace {

bool IsNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

void AppendHeader(std::string& out, const std::string& name,
                  const char* type, const std::string& help) {
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " ";
  out += type;
  out += "\n";
}

void AppendSample(std::string& out, const std::string& name, double v) {
  out += name + " " + FormatSampleValue(v) + "\n";
}

void AppendQuantileSample(std::string& out, const std::string& name,
                          const char* quantile, double v) {
  out += name + "{quantile=\"";
  out += quantile;
  out += "\"} " + FormatSampleValue(v) + "\n";
}

}  // namespace

std::string FormatSampleValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!IsNameChar(name[i], i == 0)) return false;
  }
  return true;
}

std::string SanitizeMetricName(const std::string& name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  for (std::size_t i = 0; i < name.size(); ++i) {
    out.push_back(IsNameChar(name[i], /*first=*/false) ? name[i] : '_');
  }
  if (!IsNameChar(out[0], /*first=*/true)) out.insert(out.begin(), '_');
  return out;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void WritePrometheus(const MetricsRegistry& registry, std::ostream& out,
                     const std::string& prefix) {
  const MetricSnapshot snap = registry.Snapshot();
  std::string text;
  text.reserve(256 + 160 * (snap.counters.size() + snap.gauges.size() +
                            2 * snap.histograms.size()));
  for (const auto& c : snap.counters) {
    const std::string base = prefix + SanitizeMetricName(c.name);
    AppendHeader(text, base + "_total",
                 "counter", "Accumulated sum of registry counter " + c.name);
    AppendSample(text, base + "_total", c.value);
    AppendHeader(text, base + "_events_total", "counter",
                 "Number of Add() calls on registry counter " + c.name);
    AppendSample(text, base + "_events_total",
                 static_cast<double>(c.events));
  }
  for (const auto& g : snap.gauges) {
    const std::string base = prefix + SanitizeMetricName(g.name);
    AppendHeader(text, base, "gauge", "Registry gauge " + g.name);
    AppendSample(text, base, g.value);
  }
  for (const auto& h : snap.histograms) {
    const std::string base = prefix + SanitizeMetricName(h.name);
    AppendHeader(text, base, "summary", "Registry histogram " + h.name);
    AppendQuantileSample(text, base, "0.5", h.p50);
    AppendQuantileSample(text, base, "0.9", h.p90);
    AppendQuantileSample(text, base, "0.99", h.p99);
    AppendSample(text, base + "_sum", h.sum);
    AppendSample(text, base + "_count", static_cast<double>(h.count));
  }
  out << text;
}

}  // namespace threelc::obs
