#ifndef PERFBENCH_E2E_STATS_H_
#define PERFBENCH_E2E_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Exact percentile of `samples`, p in [0, 100], by linear interpolation
// between the two closest ranks (rank = p/100 * (n - 1), as numpy's
// default). Computed from every sample, not from histogram buckets, so a
// percentile moves smoothly with the data instead of jumping between bucket
// edges. Returns 0 for an empty sample set. Reorders `samples`.
double Percentile(std::vector<int64_t>& samples, double p);

// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// Length of the union of `intervals` after clipping each to `clip`:
// overlapping and nested intervals count once, and the parts outside `clip`
// do not count.
int64_t UnionLength(std::vector<Interval> intervals, Interval clip);

// Self time of a span: its duration minus the part of it that the union of
// its children covers. Children may overlap one another (parallel RPCs to
// two replicas) or run past the parent's end; neither is counted twice or
// outside the parent.
int64_t SelfTime(Interval parent, const std::vector<Interval>& children);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_STATS_H_
