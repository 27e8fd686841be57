#ifndef TSBENCH_STATS_H_
#define TSBENCH_STATS_H_

// Order statistics and the result line of one benchmark run.
//
// Percentile rule: nearest rank. The p-quantile of n samples is the
// smallest sample with at least ceil(p * n) samples at or below it, and
// n - ceil(p * n) samples lie beyond it. A tail percentile is reported
// only when at least kMinBeyond samples lie beyond it; with fewer it would
// describe a handful of samples, not a tail.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "metrics.h"

namespace tsbench {

inline constexpr size_t kMinBeyond = 10;

// Median (mean of the two middle samples for even n). 0 for no samples.
double Median(std::vector<double> samples);

// Nearest-rank p-quantile, p in (0, 1]. 0 for no samples.
double Percentile(std::vector<double> samples, double p);

// Samples that lie strictly beyond the nearest-rank p-quantile of n.
size_t SamplesBeyond(size_t n, double p);

// The p90 of `samples`, or nullopt when fewer than kMinBeyond samples lie
// beyond it.
std::optional<double> TailP90(const std::vector<double>& samples);

double Sum(const std::vector<double>& samples);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One run's result: the JSON object the benchmark prints as the last line
// of its standard output. Values keep all their digits.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  // Appends a metric with its unit from metrics.h.
  void Add(const std::string& name, double value) {
    metrics.push_back({name, value, UnitOf(name)});
  }
  std::string ToJson() const;
};

// Runs the statistics self-check; prints one line per failed case to
// stderr and returns false if any failed.
bool SelfCheckStats();

}  // namespace tsbench

#endif  // TSBENCH_STATS_H_
