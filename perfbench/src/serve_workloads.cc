// serve-backlog and serve-paced: the wall-clock service front end
// (ServiceServer Start / Offer / Stop) over a seeded request stream, with
// the paper-preset scheduler behind a ProbeScheduler and the disk model
// behind MakeServiceTimeFn. Admission gates are off and the ingest ring
// holds the whole round, so no offer can be refused; time_scale is 0, so
// the pump serves as fast as the front end allows.
//
// The calling thread is the one producer. serve-backlog offers as fast as
// it can; serve-paced offers open loop at a fixed rate, spinning until
// each offer is due, and records how late it ran.
//
// requests_per_s and cpu_us_per_request are those of the fastest tenth of
// the run's rounds (harness.h, FastRate and FastTime). requests_per_s is
// served offers per second of a round on serve-backlog. On serve-paced,
// where every offer is served and the plain rate would only restate the
// offered one, it counts only the offers dispatched within kTimelyWaitNs
// of their due time (the probe stamps each dispatch), so a slower
// admission -> ring -> wake-up path lowers it, and so does a producer that
// falls behind its schedule.
//
// Each round builds a fresh server (outside the timed phase), offers the
// whole stream, and is timed from the first Offer to Stop returning. Every
// round's counts and dispatched ids are checked. After the rounds, the
// same stream runs through RunVirtual and through the offline simulator,
// which must dispatch in the same order; the simulator's modelled figures
// are the run's modelled metrics. A traced run also times each Offer, the
// pump's scheduler calls and the service-time callback, and replays the
// stream through the benchmark's replay for the core, stats and disk
// layers.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "exp/runner.h"
#include "probe.h"
#include "replay.h"
#include "setup.h"

namespace perfbench {

namespace {

using csfc::Request;
using csfc::RequestId;
using csfc::svc::ServiceServer;
using csfc::svc::ServiceStats;

/// Offered rate of serve-paced, below the rate at which the pump falls
/// behind on this kind of machine.
constexpr double kPacedOffersPerSecond = 100'000.0;

/// The due-to-dispatch wait within which a serve-paced offer counts as
/// served on time: about four times the p99 wait measured on an idle
/// 4-vCPU VM, and a tenth of the pump's 1 ms idle tick, so an offer the
/// pump is not woken for counts as late.
constexpr int64_t kTimelyWaitNs = 100'000;

/// Host time of the service-time callback, timed from outside.
csfc::svc::ServiceTimeFn TimedServiceTime(csfc::svc::ServiceTimeFn inner,
                                          Span* span) {
  return [inner = std::move(inner), span](csfc::Cylinder head,
                                          const Request& r) {
    ScopedSpan s(span);
    return inner(head, r);
  };
}

/// One wall-clock round: a fresh server, the ids it dispatched and, on
/// serve-paced, when it dispatched each id. Both lists live on the heap
/// because the server's probe points at them while the round moves; they
/// are declared first so they outlive the server.
struct Round {
  std::unique_ptr<std::vector<RequestId>> order;
  std::unique_ptr<std::vector<int64_t>> dispatched_at_ns;
  std::unique_ptr<ServiceServer> server;
};

}  // namespace

RunResult RunServeWorkload(const RunSettings& settings) {
  RunResult result;
  const bool paced = settings.workload == Workload::kServePaced;
  const csfc::WorkloadConfig wl =
      WorkloadConfigFor(settings.workload, settings.seed);
  csfc::ServerConfig config = PaperServerConfig(wl);
  config.WithIngest(/*ring_capacity=*/wl.count, /*drain_batch=*/64);

  // --- set-up: generation, disk model, scheduler, first server ------------
  const int64_t gen0 = NowNs();
  std::string error;
  const std::vector<Request> trace = GenerateTrace(wl, &error);
  if (!error.empty()) Fatal(error);
  const int64_t generate_ns = NowNs() - gen0;
  const uint64_t n = trace.size();
  const csfc::DiskModel disk =
      Unwrap(csfc::DiskModel::Create(config.sim.disk), "disk model");
  const csfc::SchedulerFactory factory =
      Unwrap(config.MakeFactory(disk), "scheduler factory");
  const auto service_time = [&]() {
    return csfc::MakeServiceTimeFn(disk, config.sim.service_model,
                                   config.sim.latency_seed);
  };
  ServiceServer::Options options;
  options.ingest = config.ingest;
  options.admission = config.admission;
  options.time_scale = config.time_scale;

  ProbeSpans probe_spans;
  Span service_span;
  Span offer_span;
  ProbeSpans* const probe_spans_or_null =
      settings.trace ? &probe_spans : nullptr;
  const auto build_round = [&]() {
    Round round;
    round.order = std::make_unique<std::vector<RequestId>>();
    round.order->reserve(n);
    if (paced) {
      round.dispatched_at_ns = std::make_unique<std::vector<int64_t>>(
          n, std::numeric_limits<int64_t>::max());
    }
    csfc::svc::ServiceTimeFn fn = service_time();
    if (settings.trace) fn = TimedServiceTime(std::move(fn), &service_span);
    auto probe = std::make_unique<ProbeScheduler>(
        factory(), round.order.get(), probe_spans_or_null,
        round.dispatched_at_ns.get());
    round.server = Unwrap(
        ServiceServer::Create(std::move(probe), std::move(fn), options),
        "service server");
    return round;
  };
  Round first_round = build_round();
  const double setup_s =
      static_cast<double>(NowNs() - settings.start_ns) * 1e-9;

  // --- timed rounds --------------------------------------------------------
  std::vector<double> late_us(paced ? n : 0);
  std::vector<int64_t> due_ns(paced ? n : 0);
  std::vector<double> rates;
  std::vector<double> cpu_per_offer;
  std::vector<double> wait_p50_us;
  std::vector<double> wait_p99_us;
  std::vector<double> late_p99_us;
  Span* const offer_span_or_null = settings.trace ? &offer_span : nullptr;
  const int64_t interval_ns =
      static_cast<int64_t>(1e9 / kPacedOffersPerSecond);
  RoundBudget budget(settings.seconds);
  do {
    Round round = first_round.server ? std::move(first_round) : build_round();
    ServiceServer& server = *round.server;
    if (csfc::Status s = server.Start(); !s.ok()) Fatal(s.ToString());
    uint64_t refused = 0;
    int64_t spin_ns = 0;
    const double cpu0 = ProcessCpuUs();
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < n; ++i) {
      if (paced) {
        const int64_t due = t0 + static_cast<int64_t>(i) * interval_ns;
        int64_t now = NowNs();
        if (now < due) {
          const int64_t spin_start = now;
          while ((now = NowNs()) < due) {
          }
          spin_ns += now - spin_start;
        }
        late_us[i] = static_cast<double>(now - due) * 1e-3;
        due_ns[i] = due;
      }
      bool admitted;
      {
        ScopedSpan s(offer_span_or_null);
        admitted = server.Offer(trace[i]);
      }
      if (!admitted) ++refused;
    }
    server.Stop();
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuUs();
    // The producer's wait for each offer's due time is load generation,
    // not serving: its spin is taken out of the process CPU.
    const double cpu_us = cpu1 - cpu0 - static_cast<double>(spin_ns) * 1e-3;
    const ServiceStats stats = server.Stats();

    result.attempted += n;
    result.failed += n - std::min(stats.completions, n);
    result.Check(CheckServeCounts(n, refused, stats));
    result.Check(CheckDispatchedOnce(*round.order, n));
    uint64_t served = n;
    for (uint64_t i = 0; paced && i < n; ++i) {
      const int64_t wait_ns = (*round.dispatched_at_ns)[i] - due_ns[i];
      if (wait_ns > kTimelyWaitNs) --served;
    }
    rates.push_back(static_cast<double>(served) * 1e9 /
                    static_cast<double>(t1 - t0));
    cpu_per_offer.push_back(cpu_us / static_cast<double>(n));
    wait_p50_us.push_back(stats.p50_wait_ms * 1e3);
    wait_p99_us.push_back(stats.p99_wait_ms * 1e3);
    if (paced) late_p99_us.push_back(Quantile(late_us, 0.99));
  } while (budget.NextRound());

  // --- virtual mode against the offline simulator --------------------------
  std::vector<RequestId> virtual_order;
  std::vector<RequestId> offline_order;
  virtual_order.reserve(n);
  offline_order.reserve(n);
  {
    ServiceServer::Options virtual_options = options;
    virtual_options.ingest.ring_capacity = 1024;
    std::unique_ptr<ServiceServer> server = Unwrap(
        ServiceServer::Create(std::make_unique<ProbeScheduler>(
                                  factory(), &virtual_order, nullptr),
                              service_time(), virtual_options),
        "virtual server");
    result.Check(CheckServeCounts(n, 0, server->RunVirtual(trace)));
  }
  const csfc::SchedulerFactory offline_factory = [&]() -> csfc::SchedulerPtr {
    return std::make_unique<ProbeScheduler>(factory(), &offline_order,
                                            nullptr);
  };
  const csfc::RunMetrics offline = Unwrap(
      csfc::RunSchedulerOnTrace(config.sim, trace, offline_factory),
      "offline simulator run");
  result.Check(CheckSimCounts(n, offline));
  result.Check(CheckDispatchedOnce(offline_order, n));
  result.Check(CheckSameOrder(virtual_order, offline_order));

  if (!settings.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("requests_per_s", FastRate(rates), "requests/s");
    result.Add("cpu_us_per_request", FastTime(cpu_per_offer), "us");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("modelled_response_mean_ms", offline.response_ms.mean(), "ms");
    result.Add("modelled_seek_mean_ms", offline.mean_seek_ms(), "ms");
    return result;
  }

  // --- traced: the core / stats / disk layers over the same stream ---------
  LayerFigures layers;
  {
    ReplaySpans spans;
    csfc::SchedulerPtr sched = factory();
    const ReplayRecord rec = Replay(trace, disk, *sched,
                                    config.sim.metrics.dims,
                                    config.sim.metrics, &spans);
    result.Check(CheckReplayAgainstRun(rec, offline, n));
    result.Check(CheckRunMetricsEqual(*rec.collected, offline));
    LayerTally tally;
    tally.Add(rec, *sched);
    tally.FillTo(spans, &layers);
  }
  const auto per = [](double total, uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  layers.generate_ns_per_request =
      static_cast<double>(generate_ns) / static_cast<double>(n);
  layers.svc_offer_ns = offer_span.MeanNs();
  layers.svc_enqueue_batch_ns_per_request =
      per(static_cast<double>(probe_spans.enqueue_batch.total_ns),
          probe_spans.batched_requests);
  layers.svc_dispatch_ns = probe_spans.dispatch.MeanNs();
  layers.svc_service_time_ns = service_span.MeanNs();
  layers.svc_batch_size_mean =
      per(static_cast<double>(probe_spans.batched_requests),
          probe_spans.enqueue_batch.calls);
  layers.svc_queue_depth_max = static_cast<double>(probe_spans.depth_max);
  layers.svc_wait_p50_us = Median(wait_p50_us);
  layers.svc_wait_p99_us = Median(wait_p99_us);
  layers.gen_late_us_p99 = Median(late_p99_us);
  layers.ReportTo(result);
  return result;
}

}  // namespace perfbench
