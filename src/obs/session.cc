// Copyright (c) 2026 madnet authors. All rights reserved.

#include "obs/session.h"

#include <algorithm>
#include <fstream>

#include "util/json.h"
#include "util/logging.h"

namespace madnet::obs {
namespace {

std::unique_ptr<Session>& GlobalSession() {
  static std::unique_ptr<Session> session;
  return session;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

void WritePhasesField(const std::map<std::string, PhaseStat>& phases,
                      JsonWriter* json) {
  json->Key("phases");
  json->BeginObject();
  for (const auto& [name, stat] : phases) {
    json->Key(name);
    json->BeginObject();
    json->Key("seconds");
    json->Value(stat.seconds);
    json->Key("count");
    json->Value(stat.count);
    json->EndObject();
  }
  json->EndObject();
}

}  // namespace

void Session::Configure(const SessionOptions& options) {
  MADNET_DCHECK(GlobalSession() == nullptr);
  GlobalSession() = std::make_unique<Session>(options);
}

Session* Session::Get() { return GlobalSession().get(); }

void Session::Shutdown() { GlobalSession().reset(); }

void Session::AddRun(std::string sort_key, std::unique_ptr<RunContext> run) {
  const std::lock_guard<std::mutex> lock(mutex_);
  runs_.emplace_back(std::move(sort_key), std::move(run));
}

size_t Session::run_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

Status Session::Flush(const Manifest& manifest) {
  std::vector<std::pair<std::string, std::unique_ptr<RunContext>>> runs;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    runs.swap(runs_);
  }
  // Keys embed the full per-replication config (seed included), so equal
  // keys mean identical runs and a stable sort makes the emission order —
  // and therefore every artifact below — independent of --jobs.
  std::stable_sort(runs.begin(), runs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  if (!options_.trace_path.empty()) {
    std::string text;
    for (const auto& [key, run] : runs) {
      text += run->trace.text();
    }
    if (Status status = WriteFile(options_.trace_path, text); !status.ok()) {
      return status;
    }
  }

  // Merge metrics and phases across all runs, seed order.
  MetricsRegistry merged_metrics;
  RunContext merged_phases{TraceOptions{}};
  uint64_t sampled_out = 0;
  uint64_t kept = 0;
  for (const auto& [key, run] : runs) {
    merged_metrics.MergeFrom(run->metrics);
    merged_phases.MergePhasesFrom(*run);
    sampled_out += run->trace.records_sampled_out();
    kept += run->trace.records_kept();
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("manifest");
  manifest.WriteJson(&json);
  json.Key("runs");
  json.Value(static_cast<uint64_t>(runs.size()));
  json.Key("trace_records_kept");
  json.Value(kept);
  json.Key("trace_records_sampled_out");
  json.Value(sampled_out);
  WritePhasesField(merged_phases.phases(), &json);
  merged_metrics.WriteJsonFields(&json);
  json.EndObject();
  std::string report = json.TakeString();
  report += '\n';

  if (!options_.metrics_path.empty()) {
    return WriteFile(options_.metrics_path, report);
  }
  if (!options_.trace_path.empty()) {
    // Trace-only invocation: still record provenance next to the trace.
    return WriteFile(options_.trace_path + ".manifest.json", report);
  }
  return Status::Ok();
}

}  // namespace madnet::obs
