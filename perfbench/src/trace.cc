#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

using streamcover::JsonValue;

TraceRecorder::TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

double TraceRecorder::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint32_t TraceRecorder::ThreadIndexLocked() {
  auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<uint32_t>(threads_.size()));
  return it->second;
}

int64_t TraceRecorder::Begin(std::string name, std::string layer,
                             int64_t parent) {
  const double now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_us = now;
  span.end_us = now;
  span.parent = parent;
  span.thread = ThreadIndexLocked();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceRecorder::End(int64_t id) {
  const double now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 0 && static_cast<size_t>(id) < spans_.size()) {
    spans_[static_cast<size_t>(id)].end_us = now;
  }
}

std::vector<Span> TraceRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> TraceRecorder::SelfSecondsByLayer() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& span : all) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < all.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_us,
                                                               span.end_us);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    // Union of the children's intervals, clipped to this span: children
    // on several threads may overlap each other.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = span.start_us;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, span.end_us);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[span.layer] += (span.end_us - span.start_us - covered) * 1e-6;
  }
  return self;
}

std::map<std::string, uint64_t> TraceRecorder::CountByLayer() const {
  std::map<std::string, uint64_t> counts;
  for (const Span& span : spans()) ++counts[span.layer];
  return counts;
}

JsonValue TraceRecorder::ToChromeJson(JsonValue metadata) const {
  JsonValue events = JsonValue::Array();
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    JsonValue event = JsonValue::Object();
    event.Set("name", span.name);
    event.Set("cat", span.layer);
    event.Set("ph", "X");
    event.Set("ts", span.start_us);
    event.Set("dur", span.end_us - span.start_us);
    event.Set("pid", 1);
    event.Set("tid", static_cast<uint64_t>(span.thread));
    JsonValue args = JsonValue::Object();
    args.Set("id", static_cast<uint64_t>(i));
    args.Set("parent", span.parent);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  doc.Set("otherData", std::move(metadata));
  return doc;
}

}  // namespace perfbench
