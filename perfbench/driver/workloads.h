// The workloads. Each runs its measured phase (two half-length
// phases, untraced then traced, when tracing is requested), checks
// every output, and fills the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// The planner portfolio's candidates, as its win counters label them.
inline constexpr const char* kPortfolioAlgorithms[] = {
    "auto",          "equal-grouping", "binpack-pairing",
    "binpack-triples", "binpack-4groups", "big-small",
    "binpack-cross", "binpack-cross-tuned",
};

void RunOnline(const Options& options, Report* report);
void RunServe(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
