#ifndef TSBENCH_TRACE_H_
#define TSBENCH_TRACE_H_

// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer of the program (name, start, end,
// parent); spans stay in memory and are written out once, at the end, as
// a Chrome trace. A span's self time is its duration minus the time its
// child spans cover (children nest strictly, so that is the sum of their
// durations).

#include <chrono>
#include <string>
#include <vector>

namespace tsbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = -1;   // < start while open
    int parent = -1;
    double child_seconds = 0;

    double seconds() const { return end - start; }
    double self_seconds() const { return seconds() - child_seconds; }
  };

  Tracer();

  // Opens a span whose parent is the innermost open span; returns its id.
  int Begin(std::string name);
  void End(int id);

  // Self times of every closed span named `name`, in start order.
  std::vector<double> SelfTimes(const std::string& name) const;
  // Median of SelfTimes(name); 0 when there is none.
  double MedianSelf(const std::string& name) const;

  // Writes every span as a Chrome trace ("X" events, one thread); false
  // when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(std::move(name))) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace tsbench

#endif  // TSBENCH_TRACE_H_
