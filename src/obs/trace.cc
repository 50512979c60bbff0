// Copyright (c) 2026 madnet authors. All rights reserved.

#include "obs/trace.h"

#include <cstdio>

#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace madnet::obs {
namespace {

/// Index of a single-bit category in [0, kTraceCategoryCount).
int CategoryIndex(uint32_t category) {
  int index = 0;
  while ((category >> index) != 1u) ++index;
  return index;
}

}  // namespace

const char* TraceCategoryName(uint32_t category) {
  switch (category) {
    case kTraceEvent: return "event";
    case kTraceTx: return "tx";
    case kTraceRx: return "rx";
    case kTraceSuppress: return "suppress";
    case kTraceSketch: return "sketch";
    case kTraceFault: return "fault";
    case kTraceDeliver: return "deliver";
  }
  return "?";
}

StatusOr<uint32_t> ParseTraceCategories(const std::string& csv) {
  uint32_t mask = 0;
  std::string name;
  for (size_t i = 0; i <= csv.size(); ++i) {
    if (i < csv.size() && csv[i] != ',') {
      if (csv[i] != ' ') name += csv[i];
      continue;
    }
    if (name.empty()) continue;
    if (name == "all") mask |= kTraceAll;
    else if (name == "none") mask |= 0;
    else if (name == "event") mask |= kTraceEvent;
    else if (name == "tx") mask |= kTraceTx;
    else if (name == "rx") mask |= kTraceRx;
    else if (name == "suppress") mask |= kTraceSuppress;
    else if (name == "sketch") mask |= kTraceSketch;
    else if (name == "fault") mask |= kTraceFault;
    else if (name == "deliver") mask |= kTraceDeliver;
    else {
      return Status::InvalidArgument(
          "unknown trace category '" + name +
          "' (want event, tx, rx, suppress, sketch, fault, deliver, all, "
          "none)");
    }
    name.clear();
  }
  return mask;
}

Trace::Trace(const TraceOptions& options) : options_(options) {
  if (options_.sample_period == 0) options_.sample_period = 1;
  // A run's trace is typically tens of thousands of small records; start
  // with a page-sized buffer so early appends don't reallocate repeatedly.
  if (options_.categories != 0) text_.reserve(4096);
}

void Trace::SetFlightRecorder(FlightRecorder* recorder) {
  recorder_ = recorder;
  recorder_categories_ = recorder != nullptr ? kTraceAll : 0u;
}

bool Trace::Sample(uint32_t category) {
  if (options_.sample_period == 1) {
    ++records_kept_;
    return true;
  }
  uint64_t& counter = sample_counters_[CategoryIndex(category)];
  const bool keep = (counter % options_.sample_period) == 0;
  ++counter;
  if (keep) {
    ++records_kept_;
  } else {
    ++records_sampled_out_;
  }
  return keep;
}

void Trace::BeginRun(uint64_t seed, const std::string& config_hash_hex) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = 0;
    note.a = seed;
    recorder_->Note(note);
  }
  if (options_.categories == 0) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"run\",\"seed\":%llu,\"config\":\"%s\"}\n",
                static_cast<unsigned long long>(seed),
                config_hash_hex.c_str());
  text_ += buf;
  ++records_kept_;
}

void Trace::Event(double t, uint64_t seq) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceEvent;
    note.t = t;
    note.a = seq;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceEvent) || !Sample(kTraceEvent)) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"event\",\"t\":%.9f,\"seq\":%llu}\n", t,
                static_cast<unsigned long long>(seq));
  text_ += buf;
}

void Trace::Tx(double t, uint32_t node, double x, double y, uint32_t bytes,
               uint64_t tx_seq) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceTx;
    note.t = t;
    note.a = node;
    note.b = bytes;
    note.c = tx_seq;
    note.v = x;
    note.w = y;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceTx) || !Sample(kTraceTx)) return;
  char buf[160];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cat\":\"tx\",\"t\":%.9f,\"node\":%u,\"x\":%.3f,\"y\":%.3f,"
      "\"bytes\":%u,\"seq\":%llu}\n",
      t, node, x, y, bytes, static_cast<unsigned long long>(tx_seq));
  text_ += buf;
}

void Trace::Rx(double t, uint32_t from, uint32_t to, uint32_t bytes,
               uint64_t ad_key, uint64_t tx_seq) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceRx;
    note.t = t;
    note.a = from;
    note.b = to;
    note.c = ad_key;
    note.d = tx_seq;
    note.v = bytes;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceRx) || !Sample(kTraceRx)) return;
  char buf[176];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"rx\",\"t\":%.9f,\"from\":%u,\"node\":%u,"
                "\"bytes\":%u,\"ad\":%llu,\"seq\":%llu}\n",
                t, from, to, bytes, static_cast<unsigned long long>(ad_key),
                static_cast<unsigned long long>(tx_seq));
  text_ += buf;
}

void Trace::Deliver(double t, uint32_t node, uint64_t ad_key, uint32_t hop,
                    uint64_t tx_seq, uint32_t parent) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceDeliver;
    note.t = t;
    note.a = node;
    note.b = ad_key;
    note.c = tx_seq;
    note.d = parent;
    note.v = hop;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceDeliver) || !Sample(kTraceDeliver)) return;
  char buf[176];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"deliver\",\"t\":%.9f,\"node\":%u,\"ad\":%llu,"
                "\"hop\":%u,\"seq\":%llu,\"parent\":%u}\n",
                t, node, static_cast<unsigned long long>(ad_key), hop,
                static_cast<unsigned long long>(tx_seq), parent);
  text_ += buf;
}

void Trace::Suppress(double t, uint32_t node, uint64_t ad_key,
                     const char* reason, double value) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceSuppress;
    note.t = t;
    note.a = node;
    note.b = ad_key;
    note.v = value;
    note.reason = reason;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceSuppress) || !Sample(kTraceSuppress)) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"suppress\",\"t\":%.9f,\"node\":%u,\"ad\":%llu,"
                "\"reason\":\"%s\",\"v\":%.9g}\n",
                t, node, static_cast<unsigned long long>(ad_key), reason,
                value);
  text_ += buf;
}

void Trace::SketchMerge(double t, uint32_t node, uint64_t ad_key) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceSketch;
    note.t = t;
    note.a = node;
    note.b = ad_key;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceSketch) || !Sample(kTraceSketch)) return;
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"sketch\",\"t\":%.9f,\"node\":%u,\"ad\":%llu}\n", t,
                node, static_cast<unsigned long long>(ad_key));
  text_ += buf;
}

void Trace::Fault(double t, uint32_t node, const char* kind, double value) {
  if (recorder_ != nullptr) {
    FlightRecord note;
    note.category = kTraceFault;
    note.t = t;
    note.a = node;
    note.v = value;
    note.reason = kind;
    recorder_->Note(note);
  }
  if (!TextEnabled(kTraceFault) || !Sample(kTraceFault)) return;
  char buf[144];
  std::snprintf(buf, sizeof(buf),
                "{\"cat\":\"fault\",\"t\":%.9f,\"node\":%u,"
                "\"reason\":\"%s\",\"v\":%.9g}\n",
                t, node, kind, value);
  text_ += buf;
}

}  // namespace madnet::obs
