#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

namespace tsbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace {

// ceil(p * n) as a rank in [1, n]; the small epsilon keeps p * n = 90.0
// from rounding up to 91 through floating-point error.
size_t NearestRank(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) -
                                            1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::optional<double> TailP90(const std::vector<double>& samples) {
  if (SamplesBeyond(samples.size(), 0.9) < kMinBeyond) return std::nullopt;
  return Percentile(samples, 0.9);
}

double Sum(const std::vector<double>& samples) {
  double sum = 0;
  for (double s : samples) sum += s;
  return sum;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

bool SelfCheckStats() {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::cerr << "self-check failed: " << what << "\n";
      ok = false;
    }
  };
  auto iota = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;  // descending, so every function must sort
  };

  expect(Median({}) == 0, "median of nothing is 0");
  expect(Median({3, 1, 2}) == 2, "odd median is the middle sample");
  expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle two");

  // Nearest rank: p90 of 1..100 is 90, with 10 samples beyond it.
  expect(Percentile(iota(100), 0.9) == 90, "p90 of 1..100 is 90");
  expect(SamplesBeyond(100, 0.9) == 10, "10 of 100 lie beyond p90");
  expect(Percentile(iota(10), 0.9) == 9, "p90 of 1..10 is 9");
  expect(Percentile(iota(7), 0.5) == 4, "p50 of 1..7 is 4");
  expect(Percentile(iota(1), 0.9) == 1, "p90 of one sample is that sample");
  expect(Percentile(iota(5), 1.0) == 5, "p100 is the maximum");
  expect(SamplesBeyond(101, 0.9) == 10, "10 of 101 lie beyond p90");

  // The tail rule: p90 needs >= 10 samples beyond it, so >= 100 samples.
  expect(!TailP90(iota(99)).has_value(), "p90 withheld at 99 samples");
  expect(TailP90(iota(100)).value_or(0) == 90, "p90 reported at 100");
  expect(TailP90(iota(250)).value_or(0) == 225, "p90 of 1..250 is 225");
  expect(!TailP90({}).has_value(), "p90 withheld with no samples");

  RunResult r;
  r.attempted = 3;
  r.Add("setup_s", 0.1);
  r.Add("peak_device_bytes", std::numeric_limits<double>::infinity());
  r.metrics.push_back({"a\"b", 2, "1/s"});
  const std::string json = r.ToJson();
  expect(json ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 0.10000000000000001, "
             "\"unit\": \"s\"}, \"peak_device_bytes\": {\"value\": null, "
             "\"unit\": \"B\"}, \"a\\\"b\": {\"value\": 2, "
             "\"unit\": \"1/s\"}}}",
         "result JSON shape and escaping");
  if (!ok) std::cerr << "result JSON: " << json << "\n";
  return ok;
}

}  // namespace tsbench
