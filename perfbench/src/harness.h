// Measurement plumbing shared by every perfbench workload: host clocks,
// process CPU and memory readings, per-call span accumulators, order
// statistics, and the result record perfbench prints as its last line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of the whole process (all threads), in µs.
inline double ProcessCpuUs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return us(u.ru_utime) + us(u.ru_stime);
}

/// Peak resident set size of the process so far, in MB (2^20 bytes).
inline double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Accumulates the host time of every call made into one layer function,
/// timed from outside the call.
struct Span {
  uint64_t calls = 0;
  int64_t total_ns = 0;

  void Add(int64_t ns) {
    ++calls;
    total_ns += ns;
  }
  /// Mean host ns per call (0 when never called).
  double MeanNs() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(calls);
  }
};

/// Adds the host time of its scope to a Span; a null Span reads no clock.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span* span) : span_(span), t0_(span ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (span_ != nullptr) span_->Add(NowNs() - t0_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span* span_;
  int64_t t0_;
};

/// Median of `v` (0 for an empty vector). Takes a copy so callers keep order.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile (0 <= q <= 1) of `v` by the nearest-rank rule; reorders v.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

/// The quantile of repeated timings that a time or rate figure reports: the
/// fastest tenth. On a shared 4-vCPU VM the same work runs in a fast and a
/// slow state that alternate within a second; a run's median lands
/// on whichever state dominated that run, so it spread by up to 30% between
/// runs, while the fastest tenth tracks the program's own cost.
inline constexpr double kFastQuantile = 0.1;

/// Time-like samples (lower is better): their fastest-tenth value.
inline double FastTime(std::vector<double> v) {
  return Quantile(v, kFastQuantile);
}

/// Rate-like samples (higher is better): their fastest-tenth value.
inline double FastRate(std::vector<double> v) {
  return Quantile(v, 1.0 - kFastQuantile);
}

/// When a run of whole rounds stops. After each round, another starts only
/// if, taking as long as the round just ended, it would end within the
/// budget; so a run never overruns --seconds by a whole round (serve-paced
/// rounds take 4 s), and always runs at least one round.
class RoundBudget {
 public:
  explicit RoundBudget(double seconds)
      : budget_ns_(static_cast<int64_t>(seconds * 1e9)),
        begin_ns_(NowNs()),
        round_start_ns_(begin_ns_) {}

  /// Call at the end of each round: true when another round fits.
  bool NextRound() {
    const int64_t now = NowNs();
    const int64_t round_ns = now - round_start_ns_;
    round_start_ns_ = now;
    return now - begin_ns_ + round_ns <= budget_ns_;
  }

 private:
  int64_t budget_ns_;
  int64_t begin_ns_;
  int64_t round_start_ns_;
};

/// Moves the calling thread to the next CPU it may run on, one CPU at a
/// time, and gives it back its own CPU mask when destroyed. On a shared VM
/// one vCPU can run the same single-threaded work 20-30% slower than
/// another for minutes, and an unpinned thread stays where it started, so
/// a whole run would measure one vCPU. Rotating the timed rounds over
/// every allowed vCPU lets the fastest tenth (FastTime) come from the
/// fastest of them. A no-op with fewer than two allowed CPUs.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&own_);
    if (sched_getaffinity(0, sizeof own_, &own_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &own_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof own_, &own_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next allowed CPU.
  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t own_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// One named metric of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark run reports.
struct RunResult {
  /// Operations the run attempted (whole rounds only) and those that failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check failures; the run is correct iff this stays empty.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records every failure message of one check (an empty list passes).
  void Check(const std::vector<std::string>& failures) {
    check_failures.insert(check_failures.end(), failures.begin(),
                          failures.end());
  }
};

/// Per-layer figures of a traced run. A layer a workload does not
/// exercise keeps its zeros (the svc and gen layers on sim-*).
struct LayerFigures {
  double generate_ns_per_request = 0;
  double core_enqueue_ns = 0;
  double core_dispatch_ns = 0;
  double core_queue_depth_mean = 0;
  double core_queue_depth_max = 0;
  double core_preemptions = 0;
  double core_sp_promotions = 0;
  double core_queue_swaps = 0;
  double stats_on_arrival_ns = 0;
  double stats_on_dispatch_ns = 0;
  double stats_on_completion_ns = 0;
  double stats_inversions_total = 0;
  double stats_deadline_misses = 0;
  double disk_service_ns = 0;
  double disk_seek_ms_mean = 0;
  double disk_rotation_ms_mean = 0;
  double disk_transfer_ms_mean = 0;
  double svc_offer_ns = 0;
  double svc_enqueue_batch_ns_per_request = 0;
  double svc_dispatch_ns = 0;
  double svc_service_time_ns = 0;
  double svc_batch_size_mean = 0;
  double svc_queue_depth_max = 0;
  double svc_wait_p50_us = 0;
  double svc_wait_p99_us = 0;
  double gen_late_us_p99 = 0;

  /// Adds every figure to `result` under its per-layer metric name.
  void ReportTo(RunResult& result) const {
    const struct {
      const char* name;
      double value;
      const char* unit;
    } rows[] = {
        {"workload.generate_ns_per_request", generate_ns_per_request, "ns"},
        {"core.enqueue_ns", core_enqueue_ns, "ns"},
        {"core.dispatch_ns", core_dispatch_ns, "ns"},
        {"core.queue_depth_mean", core_queue_depth_mean, "count"},
        {"core.queue_depth_max", core_queue_depth_max, "count"},
        {"core.preemptions", core_preemptions, "count"},
        {"core.sp_promotions", core_sp_promotions, "count"},
        {"core.queue_swaps", core_queue_swaps, "count"},
        {"stats.on_arrival_ns", stats_on_arrival_ns, "ns"},
        {"stats.on_dispatch_ns", stats_on_dispatch_ns, "ns"},
        {"stats.on_completion_ns", stats_on_completion_ns, "ns"},
        {"stats.inversions_total", stats_inversions_total, "count"},
        {"stats.deadline_misses", stats_deadline_misses, "count"},
        {"disk.service_ns", disk_service_ns, "ns"},
        {"disk.seek_ms_mean", disk_seek_ms_mean, "ms"},
        {"disk.rotation_ms_mean", disk_rotation_ms_mean, "ms"},
        {"disk.transfer_ms_mean", disk_transfer_ms_mean, "ms"},
        {"svc.offer_ns", svc_offer_ns, "ns"},
        {"svc.enqueue_batch_ns_per_request", svc_enqueue_batch_ns_per_request,
         "ns"},
        {"svc.dispatch_ns", svc_dispatch_ns, "ns"},
        {"svc.service_time_ns", svc_service_time_ns, "ns"},
        {"svc.batch_size_mean", svc_batch_size_mean, "count"},
        {"svc.queue_depth_max", svc_queue_depth_max, "count"},
        {"svc.wait_p50_us", svc_wait_p50_us, "us"},
        {"svc.wait_p99_us", svc_wait_p99_us, "us"},
        {"gen.late_us_p99", gen_late_us_p99, "us"},
    };
    for (const auto& row : rows) result.Add(row.name, row.value, row.unit);
  }
};

/// The workload a run executes, from the --workload flag.
enum class Workload { kSimUnderload, kSimOverload, kServeBacklog, kServePaced };

/// Command-line settings of one run; main() requires every flag.
struct RunSettings {
  Workload workload = Workload::kSimUnderload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Host time at main() entry; set-up time is measured from here.
  int64_t start_ns = 0;
};

/// The sim-* workloads (offline simulator), in sim_workloads.cc.
RunResult RunSimWorkload(const RunSettings& settings);
/// The serve-* workloads (wall-clock service front end), in
/// serve_workloads.cc.
RunResult RunServeWorkload(const RunSettings& settings);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
