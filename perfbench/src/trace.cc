#include <chrono>
#include <cstdio>

#include "bench.h"

namespace darbench {

double Now() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  SpanRecord span;
  span.name = name;
  span.id = ++log_->next_id_;
  span.parent = log_->open_.empty() ? -1 : log_->spans_[log_->open_.back()].id;
  span.op = log_->op_;
  index_ = log_->spans_.size();
  log_->spans_.push_back(span);
  log_->open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  log_->spans_[index_].start = Now();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const double end = Now();
  SpanRecord& span = log_->spans_[index_];
  span.end = end;
  log_->open_.pop_back();
  if (!log_->open_.empty()) {
    log_->spans_[log_->open_.back()].child_seconds += end - span.start;
  }
}

LayerTimes SelfTimes(std::span<const SpanLog* const> logs) {
  LayerTimes out;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& span : log->spans()) {
      LayerTime& layer = out[span.name];
      layer.self_seconds += span.end - span.start - span.child_seconds;
      ++layer.calls;
    }
  }
  return out;
}

double PerCall(const LayerTimes& times, const std::string& name) {
  auto it = times.find(name);
  if (it == times.end() || it->second.calls == 0) return 0;
  return it->second.self_seconds / static_cast<double>(it->second.calls);
}

void WriteSpans(const std::string& path, const std::string& label,
                std::span<const SpanLog* const> logs) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;  // the dump is diagnostic; the run goes on
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans()) {
      std::fprintf(f,
                   "{\"run\":\"%s\",\"name\":\"%s\",\"id\":%lld,"
                   "\"parent\":%lld,\"op\":%lld,\"start\":%.9f,"
                   "\"end\":%.9f}\n",
                   label.c_str(), s.name, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.op), s.start, s.end);
    }
  }
  std::fclose(f);
}

}  // namespace darbench
