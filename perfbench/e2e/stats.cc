#include "e2e/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<int64_t>& samples, double p) {
  if (samples.empty()) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + lo, samples.end());
  const double lo_value = static_cast<double>(samples[lo]);
  if (hi == lo) return lo_value;
  // After nth_element the (lo+1)-th order statistic is the minimum of the
  // upper partition.
  const double hi_value = static_cast<double>(
      *std::min_element(samples.begin() + hi, samples.end()));
  return lo_value + (rank - static_cast<double>(lo)) * (hi_value - lo_value);
}

int64_t UnionLength(std::vector<Interval> intervals, Interval clip) {
  for (Interval& interval : intervals) {
    interval.start = std::max(interval.start, clip.start);
    interval.end = std::min(interval.end, clip.end);
  }
  std::erase_if(intervals,
                [](const Interval& i) { return i.end <= i.start; });
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  int64_t covered_to = clip.start;
  for (const Interval& interval : intervals) {
    const int64_t from = std::max(interval.start, covered_to);
    if (interval.end > from) {
      total += interval.end - from;
      covered_to = interval.end;
    }
  }
  return total;
}

int64_t SelfTime(Interval parent, const std::vector<Interval>& children) {
  return (parent.end - parent.start) - UnionLength(children, parent);
}

}  // namespace perfbench
