#include "wsq/obs/trace.h"

#include <fstream>

#include "wsq/obs/json_lite.h"

namespace wsq {

void Tracer::Append(TraceEvent event) {
  const int shard_index = ThreadShardIndex();
  event.tid += TraceLane::kLaneStride * shard_index;
  Shard& shard = shards_[static_cast<size_t>(shard_index)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(std::move(event));
}

void Tracer::AddComplete(std::string_view name, std::string_view category,
                         int64_t ts_micros, int64_t dur_micros, int tid,
                         std::string args_json) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'X';
  event.ts_micros = ts_micros;
  event.dur_micros = dur_micros;
  event.tid = tid;
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

void Tracer::AddInstant(std::string_view name, std::string_view category,
                        int64_t ts_micros, int tid, std::string args_json) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.phase = 'i';
  event.ts_micros = ts_micros;
  event.tid = tid;
  event.args_json = std::move(args_json);
  Append(std::move(event));
}

void Tracer::AddCounterSample(std::string_view name, int64_t ts_micros,
                              int tid, double value) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = "counter";
  event.phase = 'C';
  event.ts_micros = ts_micros;
  event.tid = tid;
  event.args_json = "{\"value\":" + JsonNumber(value) + "}";
  Append(std::move(event));
}

void Tracer::SetLaneName(int tid, std::string_view name) {
  TraceEvent event;
  event.name = "thread_name";
  event.category = "__metadata";
  event.phase = 'M';
  event.tid = tid;
  event.args_json = "{\"name\":\"" + JsonEscape(name) + "\"}";
  Append(std::move(event));
}

size_t Tracer::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.events.size();
  }
  return total;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.insert(merged.end(), shard.events.begin(), shard.events.end());
  }
  return merged;
}

std::string Tracer::EventJson(const TraceEvent& event) {
  std::string out = "{\"name\":\"" + JsonEscape(event.name) + "\"";
  if (!event.category.empty()) {
    out += ",\"cat\":\"" + JsonEscape(event.category) + "\"";
  }
  out += ",\"ph\":\"";
  out += event.phase;
  out += "\",\"ts\":" + std::to_string(event.ts_micros);
  if (event.phase == 'X') {
    out += ",\"dur\":" + std::to_string(event.dur_micros);
  }
  out += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
  if (!event.args_json.empty()) {
    out += ",\"args\":" + event.args_json;
  }
  out += "}";
  return out;
}

std::string Tracer::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events()) {
    if (!first) out += ',';
    first = false;
    out += EventJson(event);
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string Tracer::ToJsonl() const {
  std::string out;
  for (const TraceEvent& event : events()) {
    out += EventJson(event);
    out += '\n';
  }
  return out;
}

namespace {

Status WriteWholeFile(const std::string& path, const std::string& body,
                      std::string_view what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open " + std::string(what) +
                               " file: " + path);
  }
  out << body;
  out.close();
  if (!out) {
    return Status::Unavailable(std::string(what) + " write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace

Status Tracer::WriteChromeJson(const std::string& path) const {
  return WriteWholeFile(path, ToChromeJson(), "trace");
}

Status Tracer::WriteJsonl(const std::string& path) const {
  return WriteWholeFile(path, ToJsonl(), "trace");
}

}  // namespace wsq
