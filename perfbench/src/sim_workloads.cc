// sim-underload and sim-overload: the offline simulator
// (RunSchedulerOnTrace) over seeded Poisson streams. A round runs every
// stream of the workload once (sim-underload has sixteen, sim-overload four).
//
// Untraced run: whole rounds within --seconds (RoundBudget), each round
// pinned to the next allowed CPU in turn (CpuRotation). Each simulator run
// is timed on its own; requests_per_s and cpu_us_per_request come from a
// round made of each stream's fastest-tenth run (harness.h, FastTime), and
// the modelled figures are over all requests of a round. Every round
// must equal the first field for field, and the first is checked against
// the benchmark's own replay and recounts.
//
// Traced run: one untimed simulator run per stream as the reference, then
// whole passes of the benchmark's replay with a MetricsCollector, every
// layer call timed from outside; each replay must equal its reference
// field for field.

#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "exp/runner.h"
#include "replay.h"
#include "setup.h"

namespace perfbench {

using csfc::Request;
using csfc::RunMetrics;

RunResult RunSimWorkload(const RunSettings& settings) {
  RunResult result;
  const WorkloadShape shape = ShapeOf(settings.workload);
  const csfc::ServerConfig config =
      PaperServerConfig(WorkloadConfigFor(settings.workload, settings.seed));

  // --- set-up: generation, disk model, scheduler -------------------------
  const int64_t gen0 = NowNs();
  std::vector<std::vector<Request>> traces;
  for (uint64_t s = 0; s < shape.streams; ++s) {
    std::string error;
    traces.push_back(GenerateTrace(
        WorkloadConfigFor(settings.workload, settings.seed, s), &error));
    if (!error.empty()) Fatal(error);
  }
  const int64_t generate_ns = NowNs() - gen0;
  const uint64_t n = shape.count;
  const uint64_t round_requests = shape.streams * n;
  const csfc::DiskModel disk =
      Unwrap(csfc::DiskModel::Create(config.sim.disk), "disk model");
  const csfc::SchedulerFactory factory =
      Unwrap(config.MakeFactory(disk), "scheduler factory");
  // The first simulation runs on the scheduler built here, so its
  // construction counts as set-up; later ones build their own.
  csfc::SchedulerPtr prebuilt = factory();
  const csfc::SchedulerFactory first_prebuilt = [&]() -> csfc::SchedulerPtr {
    if (prebuilt) return std::move(prebuilt);
    return factory();
  };
  const double setup_s =
      static_cast<double>(NowNs() - settings.start_ns) * 1e-9;
  const uint32_t dims = config.sim.metrics.dims;
  const auto run_sim = [&](const std::vector<Request>& trace) {
    return Unwrap(csfc::RunSchedulerOnTrace(config.sim, trace, first_prebuilt),
                  "simulator run");
  };

  if (!settings.trace) {
    // Wall ns and CPU µs of every simulator run, per stream.
    std::vector<std::vector<double>> wall_ns(traces.size());
    std::vector<std::vector<double>> cpu_us(traces.size());
    std::vector<RunMetrics> first;  // per stream, from the first round
    RoundBudget budget(settings.seconds);
    CpuRotation rotation;
    do {
      rotation.Next();
      std::vector<RunMetrics> round;
      for (size_t s = 0; s < traces.size(); ++s) {
        const double cpu0 = ProcessCpuUs();
        const int64_t t0 = NowNs();
        round.push_back(run_sim(traces[s]));
        const int64_t t1 = NowNs();
        const double cpu1 = ProcessCpuUs();
        wall_ns[s].push_back(static_cast<double>(t1 - t0));
        cpu_us[s].push_back(cpu1 - cpu0);
      }
      for (size_t s = 0; s < round.size(); ++s) {
        result.attempted += n;
        result.failed += n - std::min(round[s].completions, n);
        result.Check(CheckSimCounts(n, round[s]));
        if (!first.empty()) {
          result.Check(CheckRunMetricsEqual(round[s], first[s]));
        }
      }
      if (first.empty()) first = std::move(round);
    } while (budget.NextRound());

    double response_ms = 0.0;
    double seek_ms = 0.0;
    uint64_t completions = 0;
    for (size_t s = 0; s < traces.size(); ++s) {
      csfc::SchedulerPtr sched = factory();
      const ReplayRecord rec =
          Replay(traces[s], disk, *sched, dims, std::nullopt, nullptr);
      result.Check(CheckReplayAgainstRun(rec, first[s], n));
      result.Check(CheckSimBounds(first[s], traces[s].front().arrival));
      response_ms += first[s].response_ms.sum();
      seek_ms += first[s].total_seek_ms;
      completions += first[s].completions;
    }

    // A round's time is the sum over its streams of each stream's
    // fastest-tenth run, so streams of unequal cost each count once.
    double round_ns = 0.0;
    double round_cpu_us = 0.0;
    for (size_t s = 0; s < traces.size(); ++s) {
      round_ns += FastTime(wall_ns[s]);
      round_cpu_us += FastTime(cpu_us[s]);
    }
    const double requests = static_cast<double>(round_requests);
    result.Add("setup_s", setup_s, "s");
    result.Add("requests_per_s", requests * 1e9 / round_ns, "requests/s");
    result.Add("cpu_us_per_request", round_cpu_us / requests, "us");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("modelled_response_mean_ms",
               response_ms / static_cast<double>(completions), "ms");
    result.Add("modelled_seek_mean_ms",
               seek_ms / static_cast<double>(completions), "ms");
    return result;
  }

  std::vector<RunMetrics> reference;
  for (const std::vector<Request>& trace : traces) {
    reference.push_back(run_sim(trace));
    result.Check(CheckSimCounts(n, reference.back()));
    result.Check(CheckSimBounds(reference.back(), trace.front().arrival));
  }
  ReplaySpans spans;
  LayerTally tally;
  RoundBudget budget(settings.seconds);
  do {
    tally = LayerTally();
    for (size_t s = 0; s < traces.size(); ++s) {
      csfc::SchedulerPtr sched = factory();
      const ReplayRecord rec =
          Replay(traces[s], disk, *sched, dims, config.sim.metrics, &spans);
      result.attempted += n;
      result.failed += n - std::min(rec.completions, n);
      result.Check(CheckReplayAgainstRun(rec, reference[s], n));
      result.Check(CheckRunMetricsEqual(*rec.collected, reference[s]));
      tally.Add(rec, *sched);
    }
  } while (budget.NextRound());
  LayerFigures layers;
  tally.FillTo(spans, &layers);
  layers.generate_ns_per_request =
      static_cast<double>(generate_ns) / static_cast<double>(round_requests);
  layers.ReportTo(result);
  return result;
}

}  // namespace perfbench
