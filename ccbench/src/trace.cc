#include "trace.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace ccbench {

SpanRecorder::SpanRecorder(std::string workload, std::uint64_t seed)
    : workload_(std::move(workload)), seed_(seed), origin_(Clock::now()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = open_.empty() ? -1 : open_.back();
  s.sim = sim_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order: " + spans_[id].name);
  }
  spans_[id].end_ns = NowNs();
  open_.pop_back();
}

int SpanRecorder::AddDerived(const std::string& name, int parent,
                             std::int64_t start_ns, std::int64_t end_ns) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.sim = sim_;
  s.derived = true;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                   1e-9;
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace ccbench
