// Output checks: each compares what the program reported with a
// computation made apart from it, or with a property its output must
// have. A check returns one message per failure; an empty list passes.
// perfbench/tests/checks_test.cc feeds each one a corrupted input.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "replay.h"
#include "stats/metrics.h"
#include "svc/server.h"

namespace perfbench {

using Failures = std::vector<std::string>;

/// The simulator saw and completed every generated request.
Failures CheckSimCounts(uint64_t generated, const csfc::RunMetrics& m);

/// `order` holds each id of 0..generated-1 exactly once.
Failures CheckDispatchedOnce(std::span<const csfc::RequestId> order,
                             uint64_t generated);

/// No request was dispatched before it arrived.
Failures CheckNoEarlyDispatch(const ReplayRecord& rec);

/// `m`'s inversion counts equal the replay's own recount.
Failures CheckInversions(const ReplayRecord& rec, const csfc::RunMetrics& m);

/// `m`'s deadline counts equal a recount from the replay's completion
/// times.
Failures CheckDeadlineMisses(const ReplayRecord& rec,
                             const csfc::RunMetrics& m);

/// `m`'s completion count, makespan and seek / service / response totals
/// equal the replay's own sums (doubles to a relative 1e-9).
Failures CheckTotals(const ReplayRecord& rec, const csfc::RunMetrics& m);

/// Total modelled service fits between the first arrival and the
/// makespan, and mean response is at least mean service (each allowing
/// the half-tick rounding of every service time).
Failures CheckSimBounds(const csfc::RunMetrics& m, csfc::SimTime first_arrival);

/// `a` and `b` agree field for field, doubles bit for bit.
Failures CheckRunMetricsEqual(const csfc::RunMetrics& a,
                              const csfc::RunMetrics& b);

/// Every generated request was offered, admitted, drained, dispatched and
/// completed; `refused` counts offers Offer() turned away.
Failures CheckServeCounts(uint64_t generated, uint64_t refused,
                          const csfc::svc::ServiceStats& s);

/// Two dispatch orders are the same sequence.
Failures CheckSameOrder(std::span<const csfc::RequestId> virtual_order,
                        std::span<const csfc::RequestId> offline_order);

/// All replay checks against a run of the simulator over the same trace.
Failures CheckReplayAgainstRun(const ReplayRecord& rec,
                               const csfc::RunMetrics& m, uint64_t generated);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
