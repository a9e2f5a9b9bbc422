#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::string Str(uint64_t v) { return std::to_string(v); }

std::string Str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void ExpectEq(Failures& f, const std::string& what, uint64_t got,
              uint64_t want) {
  if (got != want) f.push_back(what + ": " + Str(got) + " != " + Str(want));
}

void ExpectNear(Failures& f, const std::string& what, double got,
                double want) {
  const double tol = 1e-9 * std::max(1.0, std::fabs(want));
  if (!(std::fabs(got - want) <= tol)) {
    f.push_back(what + ": " + Str(got) + " != " + Str(want));
  }
}

void ExpectBits(Failures& f, const std::string& what, double a, double b) {
  if (std::memcmp(&a, &b, sizeof a) != 0) {
    f.push_back(what + ": " + Str(a) + " != " + Str(b));
  }
}

void ExpectStatEqual(Failures& f, const std::string& what,
                     const csfc::RunningStat& a, const csfc::RunningStat& b) {
  ExpectEq(f, what + ".count", a.count(), b.count());
  ExpectBits(f, what + ".mean", a.mean(), b.mean());
  ExpectBits(f, what + ".variance", a.variance(), b.variance());
  ExpectBits(f, what + ".min", a.min(), b.min());
  ExpectBits(f, what + ".max", a.max(), b.max());
  ExpectBits(f, what + ".sum", a.sum(), b.sum());
}

void ExpectGridEqual(Failures& f, const std::string& what,
                     const std::vector<std::vector<uint64_t>>& a,
                     const std::vector<std::vector<uint64_t>>& b) {
  if (a != b) f.push_back(what + " differs");
}

}  // namespace

Failures CheckSimCounts(uint64_t generated, const csfc::RunMetrics& m) {
  Failures f;
  ExpectEq(f, "sim arrivals vs generated", m.arrivals, generated);
  ExpectEq(f, "sim completions vs generated", m.completions, generated);
  return f;
}

Failures CheckDispatchedOnce(std::span<const csfc::RequestId> order,
                             uint64_t generated) {
  Failures f;
  std::vector<uint8_t> seen(generated, 0);
  uint64_t unknown = 0;
  uint64_t repeated = 0;
  for (csfc::RequestId id : order) {
    if (id >= generated) {
      ++unknown;
    } else if (seen[id]++ != 0) {
      ++repeated;
    }
  }
  uint64_t missing = 0;
  for (uint8_t s : seen) missing += s == 0 ? 1 : 0;
  if (unknown != 0) f.push_back("dispatched unknown ids: " + Str(unknown));
  if (repeated != 0) f.push_back("ids dispatched twice: " + Str(repeated));
  if (missing != 0) f.push_back("ids never dispatched: " + Str(missing));
  return f;
}

Failures CheckNoEarlyDispatch(const ReplayRecord& rec) {
  Failures f;
  ExpectEq(f, "dispatches before arrival", rec.early_dispatches, 0);
  return f;
}

Failures CheckInversions(const ReplayRecord& rec, const csfc::RunMetrics& m) {
  Failures f;
  if (rec.inversions_per_dim.size() != m.inversions_per_dim.size()) {
    f.push_back("inversion dimensions: " + Str(m.inversions_per_dim.size()) +
                " != " + Str(rec.inversions_per_dim.size()));
    return f;
  }
  for (size_t k = 0; k < m.inversions_per_dim.size(); ++k) {
    ExpectEq(f, "inversions on dimension " + Str(uint64_t{k}) + " vs recount",
             m.inversions_per_dim[k], rec.inversions_per_dim[k]);
  }
  return f;
}

Failures CheckDeadlineMisses(const ReplayRecord& rec,
                             const csfc::RunMetrics& m) {
  Failures f;
  ExpectEq(f, "deadline misses vs recount", m.deadline_misses,
           rec.deadline_misses);
  ExpectEq(f, "deadline total vs recount", m.deadline_total,
           rec.deadline_total);
  return f;
}

Failures CheckTotals(const ReplayRecord& rec, const csfc::RunMetrics& m) {
  Failures f;
  ExpectEq(f, "completions vs replay", m.completions, rec.completions);
  ExpectEq(f, "arrivals vs replay", m.arrivals, rec.arrivals);
  ExpectEq(f, "makespan vs replay", static_cast<uint64_t>(m.makespan),
           static_cast<uint64_t>(rec.makespan));
  ExpectNear(f, "total seek vs replay", m.total_seek_ms, rec.seek_ms);
  ExpectNear(f, "total service vs replay", m.total_service_ms,
             rec.service_ms);
  ExpectNear(f, "total response vs replay", m.response_ms.sum(),
             rec.response_ms);
  return f;
}

Failures CheckSimBounds(const csfc::RunMetrics& m,
                        csfc::SimTime first_arrival) {
  Failures f;
  if (m.completions == 0) {
    f.push_back("no completions");
    return f;
  }
  // Each service time enters the clock rounded to the nearest tick.
  const double slack_ms =
      0.5 * static_cast<double>(m.completions) / csfc::kMillisecond;
  const double busy_window_ms = csfc::SimToMs(m.makespan - first_arrival);
  if (m.total_service_ms > busy_window_ms + slack_ms) {
    f.push_back("total service " + Str(m.total_service_ms) +
                " ms exceeds makespan - first arrival " +
                Str(busy_window_ms) + " ms");
  }
  const double mean_service =
      m.total_service_ms / static_cast<double>(m.completions);
  if (m.response_ms.mean() + 0.5 / csfc::kMillisecond < mean_service) {
    f.push_back("mean response " + Str(m.response_ms.mean()) +
                " ms below mean service " + Str(mean_service) + " ms");
  }
  return f;
}

Failures CheckRunMetricsEqual(const csfc::RunMetrics& a,
                              const csfc::RunMetrics& b) {
  Failures f;
  ExpectEq(f, "replay arrivals", a.arrivals, b.arrivals);
  ExpectEq(f, "replay completions", a.completions, b.completions);
  if (a.inversions_per_dim != b.inversions_per_dim) {
    f.push_back("replay inversions_per_dim differs");
  }
  ExpectEq(f, "replay deadline_misses", a.deadline_misses, b.deadline_misses);
  ExpectEq(f, "replay deadline_total", a.deadline_total, b.deadline_total);
  ExpectGridEqual(f, "replay misses_per_dim_level", a.misses_per_dim_level,
                  b.misses_per_dim_level);
  ExpectGridEqual(f, "replay totals_per_dim_level", a.totals_per_dim_level,
                  b.totals_per_dim_level);
  ExpectBits(f, "replay total_seek_ms", a.total_seek_ms, b.total_seek_ms);
  ExpectBits(f, "replay total_service_ms", a.total_service_ms,
             b.total_service_ms);
  ExpectStatEqual(f, "replay response_ms", a.response_ms, b.response_ms);
  if (a.response_per_level.size() != b.response_per_level.size()) {
    f.push_back("replay response_per_level size differs");
  } else {
    for (size_t l = 0; l < a.response_per_level.size(); ++l) {
      ExpectStatEqual(f, "replay response_per_level[" + Str(uint64_t{l}) + "]",
                      a.response_per_level[l], b.response_per_level[l]);
    }
  }
  ExpectEq(f, "replay makespan", static_cast<uint64_t>(a.makespan),
           static_cast<uint64_t>(b.makespan));
  return f;
}

Failures CheckServeCounts(uint64_t generated, uint64_t refused,
                          const csfc::svc::ServiceStats& s) {
  Failures f;
  ExpectEq(f, "serve offered vs generated", s.admission.offered, generated);
  ExpectEq(f, "serve refused offers", refused, 0);
  ExpectEq(f, "serve admitted vs offered", s.admission.admitted, generated);
  ExpectEq(f, "serve enqueued vs offered", s.enqueued, generated);
  ExpectEq(f, "serve dispatched vs offered", s.dispatched, generated);
  ExpectEq(f, "serve completions vs offered", s.completions, generated);
  return f;
}

Failures CheckSameOrder(std::span<const csfc::RequestId> virtual_order,
                        std::span<const csfc::RequestId> offline_order) {
  Failures f;
  if (virtual_order.size() != offline_order.size()) {
    f.push_back("virtual mode dispatched " + Str(virtual_order.size()) +
                " requests, offline simulator " + Str(offline_order.size()));
    return f;
  }
  for (size_t i = 0; i < virtual_order.size(); ++i) {
    if (virtual_order[i] != offline_order[i]) {
      f.push_back("virtual mode dispatch " + Str(uint64_t{i}) + " is id " +
                  Str(virtual_order[i]) + ", offline simulator id " +
                  Str(offline_order[i]));
      break;
    }
  }
  return f;
}

Failures CheckReplayAgainstRun(const ReplayRecord& rec,
                               const csfc::RunMetrics& m, uint64_t generated) {
  Failures f = CheckDispatchedOnce(rec.dispatch_order, generated);
  for (Failures more :
       {CheckNoEarlyDispatch(rec), CheckInversions(rec, m),
        CheckDeadlineMisses(rec, m), CheckTotals(rec, m)}) {
    f.insert(f.end(), more.begin(), more.end());
  }
  return f;
}

}  // namespace perfbench
