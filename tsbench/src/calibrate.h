#ifndef TSBENCH_CALIBRATE_H_
#define TSBENCH_CALIBRATE_H_

// Host-speed normalization of the end-to-end timings.
//
// The host runs at speeds that change by up to ~2x over seconds to minutes
// (other tenants share it): a slow phase slows every layer of the program
// together, and a whole 30 s run can land in one, so no statistic over one
// run's raw times is steady from run to run (raw step medians of 20 s
// runs spread 30-50%). A run therefore also times, every few operations,
// a fixed piece of work that does not use the program — the calibrator —
// and scales each raw time by the calibrator's quiet-phase time / (the
// median of the calibrator times nearest to it). The result reads as
// seconds on this host in its quiet phase, where the scale is ~1. Runs
// print the raw median step time and the median scale on their "# " lines.

#include <vector>

#include "workloads.h"

namespace tsbench {

// The calibrator: `float_loops` passes of a cache-resident float loop
// (latency-bound arithmetic) and `map_churns` passes of hash-map and
// allocation churn. Each workload uses the mix whose speed tracked its own
// operations most closely on this host (measured over 70-90 s next to the
// workload): the tiny ResNet's steps and the planner follow the float
// loop, GPT's steps follow the allocation churn.
struct CalibratorMix {
  int float_loops = 0;
  int map_churns = 0;

  // The mix's time in the host's quiet phase (2.1 GHz vCPU).
  double ReferenceSeconds() const {
    return float_loops * 0.00067 + map_churns * 0.0006;
  }
};

// Wall time of one run of the calibrator.
double CalibrationSample(const CalibratorMix& mix);

class HostSpeed {
 public:
  explicit HostSpeed(CalibratorMix mix) : mix_(mix) {}

  // Times the calibrator once.
  void Sample();

  // The mix's reference time / the median of the kNearest calibrator times
  // taken nearest to `at`; 1 when there are none.
  double ScaleAt(Clock::time_point at) const;

  // Median scale over all calibrator samples.
  double MedianScale() const;

 private:
  static constexpr size_t kNearest = 5;
  CalibratorMix mix_;
  std::vector<Clock::time_point> at_;  // midpoints, in time order
  std::vector<double> seconds_;
};

// Raw operation times with their midpoints, scaled on request.
class TimedSeries {
 public:
  // Records an operation of `seconds` that started at `start`.
  void Add(Clock::time_point start, double seconds) {
    mid_.push_back(start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds / 2)));
    seconds_.push_back(seconds);
  }
  // Records the operation that started at `start` and ends now.
  void AddSince(Clock::time_point start) { Add(start, SecondsSince(start)); }
  const std::vector<double>& raw() const { return seconds_; }
  std::vector<double> Scaled(const HostSpeed& speed) const;
  size_t size() const { return seconds_.size(); }

 private:
  std::vector<Clock::time_point> mid_;
  std::vector<double> seconds_;
};

}  // namespace tsbench

#endif  // TSBENCH_CALIBRATE_H_
