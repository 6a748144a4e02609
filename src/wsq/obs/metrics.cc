#include "wsq/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "wsq/obs/json_lite.h"

namespace wsq {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = LatencyBucketsMs();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (Shard& shard : shards_) {
    shard.counts.assign(bounds_.size() + 1, 0);
  }
}

std::vector<double> Histogram::LatencyBucketsMs() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

void Histogram::Record(double value) {
  Shard& shard = shards_[ThreadShardIndex()];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  shard.counts[static_cast<size_t>(it - bounds_.begin())] += 1;
  shard.stats.Add(value);
}

Histogram::Merged Histogram::MergeShards() const {
  Merged merged;
  merged.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < merged.counts.size(); ++i) {
      merged.counts[i] += shard.counts[i];
    }
    merged.stats.Merge(shard.stats);
  }
  return merged;
}

int64_t Histogram::count() const {
  return static_cast<int64_t>(MergeShards().stats.count());
}

double Histogram::mean() const { return MergeShards().stats.mean(); }

double Histogram::min() const { return MergeShards().stats.min(); }

double Histogram::max() const { return MergeShards().stats.max(); }

double Histogram::Percentile(double q) const {
  const Merged merged = MergeShards();
  const int64_t total = static_cast<int64_t>(merged.stats.count());
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);

  int64_t cumulative = 0;
  for (size_t i = 0; i < merged.counts.size(); ++i) {
    if (merged.counts[i] == 0) continue;
    const int64_t next = cumulative + merged.counts[i];
    if (rank <= static_cast<double>(next)) {
      // Interpolate inside bucket i. Clip the nominal edges to the
      // observed extremes so quantiles never leave the sampled range.
      if (i == merged.counts.size() - 1) return merged.stats.max();
      double lo = i == 0 ? merged.stats.min() : bounds_[i - 1];
      double hi = bounds_[i];
      lo = std::max(lo, merged.stats.min());
      hi = std::min(hi, merged.stats.max());
      if (hi <= lo) return hi;
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(merged.counts[i]);
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  return merged.stats.max();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[std::string(name)];
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[std::string(name)];
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(std::string(name));
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

namespace {

/// Percent-escapes the label convention's structural characters (and
/// '%' itself, keeping the encoding injective) inside a key or value.
void AppendEscapedLabelPart(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '%': out->append("%25"); break;
      case '{': out->append("%7B"); break;
      case '}': out->append("%7D"); break;
      case '=': out->append("%3D"); break;
      case ',': out->append("%2C"); break;
      default: out->push_back(c);
    }
  }
}

}  // namespace

std::string LabeledName(std::string_view base, std::string_view label_key,
                        std::string_view label_value) {
  return LabeledName(base, {{label_key, label_value}});
}

std::string LabeledName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out;
  out.reserve(base.size() + 16 * labels.size() + 2);
  out.append(base);
  if (labels.size() == 0) return out;
  out.push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    AppendEscapedLabelPart(key, &out);
    out.push_back('=');
    AppendEscapedLabelPart(value, &out);
  }
  out.push_back('}');
  return out;
}

namespace {

std::string FormatValue(double v) {
  if (std::isnan(v)) return "nan";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += name + " counter " + std::to_string(counter.value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += name + " gauge " + FormatValue(gauge.value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out += name + " histogram count=" + std::to_string(histogram->count()) +
           " mean=" + FormatValue(histogram->mean()) +
           " min=" + FormatValue(histogram->min()) +
           " max=" + FormatValue(histogram->max()) +
           " p50=" + FormatValue(histogram->p50()) +
           " p90=" + FormatValue(histogram->p90()) +
           " p99=" + FormatValue(histogram->p99()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ToCsv() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "name,kind,field,value\n";
  for (const auto& [name, counter] : counters_) {
    out += name + ",counter,value," + std::to_string(counter.value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += name + ",gauge,value," + FormatValue(gauge.value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const auto row = [&out, &name = name](std::string_view field, double v) {
      out += name + ",histogram," + std::string(field) + "," + FormatValue(v) +
             "\n";
    };
    row("count", static_cast<double>(histogram->count()));
    row("mean", histogram->mean());
    row("min", histogram->min());
    row("max", histogram->max());
    row("p50", histogram->p50());
    row("p90", histogram->p90());
    row("p99", histogram->p99());
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(counter.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":" + JsonNumber(gauge.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(name) + "\":{";
    out += "\"count\":" + std::to_string(histogram->count());
    out += ",\"mean\":" + JsonNumber(histogram->mean());
    out += ",\"min\":" + JsonNumber(histogram->min());
    out += ",\"max\":" + JsonNumber(histogram->max());
    out += ",\"p50\":" + JsonNumber(histogram->p50());
    out += ",\"p90\":" + JsonNumber(histogram->p90());
    out += ",\"p99\":" + JsonNumber(histogram->p99());
    out += '}';
  }
  out += "}}";
  return out;
}

Status MetricsRegistry::WriteFile(const std::string& path) const {
  std::string body;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    body = ToJson();
  } else if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    body = ToCsv();
  } else {
    body = ToText();
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open metrics file: " + path);
  }
  out << body;
  out.close();
  if (!out) return Status::Unavailable("metrics write failed: " + path);
  return Status::Ok();
}

bool MetricsRegistry::Erase(std::string_view name) {
  const std::string key(name);
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.erase(key) + gauges_.erase(key) + histograms_.erase(key) >
         0;
}

}  // namespace wsq
