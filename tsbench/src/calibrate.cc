#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "stats.h"

namespace tsbench {

namespace {

volatile float float_sink = 0;
volatile size_t size_sink = 0;

void FloatLoop() {
  static std::vector<float> buffer(16384, 1.0f);  // 64 KiB: cache-resident
  float acc = 0;
  for (int rep = 0; rep < 60; ++rep) {
    for (float& x : buffer) {
      acc += x * 1.0001f;
      x = acc * 1e-9f + 1.0f;
    }
  }
  float_sink = acc;
}

void MapChurn() {
  std::unordered_map<uint32_t, std::vector<float>> map;
  uint32_t x = 1;
  for (int i = 0; i < 3000; ++i) {
    x = x * 1664525u + 1013904223u;
    map[x >> 12].resize((x >> 20) % 256 + 1);
  }
  size_sink = map.size();
}

}  // namespace

double CalibrationSample(const CalibratorMix& mix) {
  auto t0 = Clock::now();
  for (int i = 0; i < mix.float_loops; ++i) FloatLoop();
  for (int i = 0; i < mix.map_churns; ++i) MapChurn();
  return SecondsSince(t0);
}

void HostSpeed::Sample() {
  auto t0 = Clock::now();
  double seconds = CalibrationSample(mix_);
  at_.push_back(t0 + (Clock::now() - t0) / 2);
  seconds_.push_back(seconds);
}

double HostSpeed::ScaleAt(Clock::time_point at) const {
  if (seconds_.empty()) return 1.0;
  // The kNearest samples nearest `at` form a contiguous window of the
  // time-ordered samples; widen it from the insertion point.
  size_t hi = static_cast<size_t>(
      std::lower_bound(at_.begin(), at_.end(), at) - at_.begin());
  size_t lo = hi;
  while (hi - lo < kNearest && (lo > 0 || hi < at_.size())) {
    if (lo == 0 || (hi < at_.size() && at_[hi] - at <= at - at_[lo - 1])) {
      ++hi;
    } else {
      --lo;
    }
  }
  return mix_.ReferenceSeconds() /
         Median(std::vector<double>(seconds_.begin() + static_cast<long>(lo),
                                    seconds_.begin() + static_cast<long>(hi)));
}

double HostSpeed::MedianScale() const {
  return seconds_.empty() ? 1.0
                          : mix_.ReferenceSeconds() / Median(seconds_);
}

std::vector<double> TimedSeries::Scaled(const HostSpeed& speed) const {
  std::vector<double> out(seconds_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = seconds_[i] * speed.ScaleAt(mid_[i]);
  }
  return out;
}

}  // namespace tsbench
