#include "trace.h"

#include <fstream>

#include "stats.h"

namespace tsbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Now();
  spans_.push_back(std::move(span));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Now();
  // Spans close innermost first; ScopedSpan guarantees it.
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_seconds += span.seconds();
  }
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end >= span.start) {
      out.push_back(span.self_seconds());
    }
  }
  return out;
}

double Tracer::MedianSelf(const std::string& name) const {
  return Median(SelfTimes(name));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << s.start * 1e6 << ", \"dur\": " << s.seconds() * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"self_us\": " << s.self_seconds() * 1e6 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace tsbench
