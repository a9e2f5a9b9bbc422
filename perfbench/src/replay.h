// The benchmark's own replay of the offline simulator's event loop
// (sim/simulator.cc): the same arrival / dispatch / completion order,
// driven through the scheduler's public calls, with every call into a
// layer optionally timed from outside, and with the benchmark's own
// recount of what the metrics layer reports.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "disk/disk_model.h"
#include "harness.h"
#include "sched/scheduler.h"
#include "stats/metrics.h"
#include "workload/request.h"

namespace perfbench {

/// Priority inversions recounted from a per-(dimension, level) table of
/// waiting requests, independent of the metrics layer: at each dispatch,
/// for each dimension k, the waiting requests whose level on k is
/// strictly smaller (more important) than the dispatched request's.
/// Requests with fewer dimensions than tracked count on the ones they
/// have; raw levels of any size are kept as they are.
class InversionRecount {
 public:
  explicit InversionRecount(uint32_t dims);

  /// `r` joined the waiting set.
  void OnEnqueue(const csfc::Request& r);
  /// `r` left the waiting set to be served; counts its inversions.
  void OnDispatch(const csfc::Request& r);

  const std::vector<uint64_t>& inversions() const { return inversions_; }

 private:
  uint32_t dims_;
  /// waiting_[k][level]: waiting requests at `level` on dimension k.
  std::vector<std::vector<uint64_t>> waiting_;
  std::vector<uint64_t> inversions_;
};

/// Host time of each layer call the replay makes.
struct ReplaySpans {
  Span enqueue;        ///< Scheduler::Enqueue
  Span dispatch;       ///< Scheduler::Dispatch (including empty polls)
  Span on_arrival;     ///< MetricsCollector::OnArrival
  Span on_dispatch;    ///< MetricsCollector::OnDispatch
  Span on_completion;  ///< MetricsCollector::OnCompletion
  Span disk_service;   ///< SeekTimeMs + AvgRotationalLatencyMs + TransferTimeMs
};

/// What one replay observed, recounted by the benchmark itself.
struct ReplayRecord {
  /// Request ids in dispatch order.
  std::vector<csfc::RequestId> dispatch_order;
  /// Dispatches of a request whose arrival lies after the dispatch time.
  uint64_t early_dispatches = 0;
  uint64_t arrivals = 0;
  uint64_t completions = 0;
  std::vector<uint64_t> inversions_per_dim;
  uint64_t deadline_misses = 0;
  uint64_t deadline_total = 0;
  /// Modelled service split, summed over completions (ms).
  double seek_ms = 0.0;
  double rotation_ms = 0.0;
  double transfer_ms = 0.0;
  double service_ms = 0.0;
  double response_ms = 0.0;
  csfc::SimTime first_arrival = 0;
  csfc::SimTime makespan = 0;
  /// Scheduler queue depth seen by each arrival, after its Enqueue.
  double depth_sum = 0.0;
  size_t depth_max = 0;
  /// The metrics layer's own result, when the replay drove a collector.
  std::optional<csfc::RunMetrics> collected;
};

/// Replays `trace` (sorted by arrival) through `sched` on `disk` with the
/// full service model and expected rotational latency, as the simulator
/// does with SimulatorConfig defaults. With `metrics` set, a
/// MetricsCollector of that shape is driven as the simulator drives it
/// and its result lands in ReplayRecord::collected. With `spans` set,
/// every layer call is timed.
ReplayRecord Replay(const std::vector<csfc::Request>& trace,
                    const csfc::DiskModel& disk, csfc::Scheduler& sched,
                    uint32_t dims,
                    const std::optional<csfc::MetricsConfig>& metrics,
                    ReplaySpans* spans);

/// The workload-independent layers (core, stats, disk) of a traced run,
/// summed over the replays of one pass (one per stream).
class LayerTally {
 public:
  /// Adds a replay that drove a MetricsCollector through `sched`; the
  /// dispatcher counters come from the cascaded scheduler's dispatcher.
  void Add(const ReplayRecord& rec, const csfc::Scheduler& sched);
  /// Writes the tally, with the per-call means of `spans`, into `out`.
  void FillTo(const ReplaySpans& spans, LayerFigures* out) const;

 private:
  uint64_t arrivals_ = 0;
  uint64_t completions_ = 0;
  double depth_sum_ = 0.0;
  size_t depth_max_ = 0;
  uint64_t preemptions_ = 0;
  uint64_t promotions_ = 0;
  uint64_t swaps_ = 0;
  uint64_t inversions_ = 0;
  uint64_t deadline_misses_ = 0;
  double seek_ms_ = 0.0;
  double rotation_ms_ = 0.0;
  double transfer_ms_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
