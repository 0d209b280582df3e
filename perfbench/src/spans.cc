#include "spans.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

uint32_t SpanRecorder::intern(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

size_t SpanRecorder::push(uint32_t name, int64_t start, bool unit) {
  const uint32_t parent =
      stack_.empty() ? 0 : static_cast<uint32_t>(stack_.back().index + 1);
  spans_.push_back({name, parent, cell_, start, start});
  stack_.push_back({spans_.size() - 1, unit});
  unit_depth_ += unit;
  return spans_.size() - 1;
}

size_t SpanRecorder::open_at(uint32_t name, int64_t start) {
  if (skip_depth_ > 0) {
    ++skip_depth_;
    return kSkipped;
  }
  return push(name, start, false);
}

size_t SpanRecorder::open_unit_at(uint32_t name, int64_t start) {
  if (skip_depth_ > 0) {
    ++skip_depth_;
    return kSkipped;
  }
  if (unit_depth_ > 0) return push(name, start, false);
  if (unit_calls_++ % stride_ != 0) {
    ++skipped_units_;
    skip_depth_ = 1;
    return kSkipped;
  }
  return push(name, start, true);
}

void SpanRecorder::close_at(size_t index, int64_t end) {
  if (index == kSkipped) {
    if (skip_depth_ > 0) --skip_depth_;
    return;
  }
  // A recorded span closing means nothing inside it is still open.
  skip_depth_ = 0;
  while (!stack_.empty()) {
    const Frame top = stack_.back();
    stack_.pop_back();
    spans_[top.index].end = end;
    unit_depth_ -= top.unit;
    if (top.index == index) return;
  }
}

std::vector<int64_t> SpanRecorder::self_times() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent != 0) self[s.parent - 1] -= s.end - s.start;
  }
  return self;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"",
                  i ? "," : "", static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3);
    os << buf << names_.at(s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"args\":{\"id\":%zu,\"parent\":%" PRIu32
                  ",\"cell\":%" PRIu32 "}}",
                  i + 1, s.parent, s.cell);
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
