#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int SpanRecorder::Begin(const std::string& name, int parent, int worker) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, now, now, worker});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

int SpanRecorder::Add(const std::string& name, int parent, double start_s,
                      double end_s, int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, start_s, end_s, worker});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_s,
                                                              span.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, spans[i].start_s);
      end = std::min(end, spans[i].end_s);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max(0.0, spans[i].end_s - spans[i].start_s - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.count += 1;
    t.total_s += spans[i].end_s - spans[i].start_s;
    t.self_s += self[i];
  }
  return totals;
}

bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"worker\":%d,"
                 "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}\n",
                 i, s.parent, s.name.c_str(), s.worker, s.start_s, s.end_s,
                 self[i]);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
