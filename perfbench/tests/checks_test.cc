// Tests of perfbench's output checks: each check passes on a genuine run of
// the library and fails on a deliberately corrupted copy of its input.
//
// Build and run: python3 perfbench/run.py --self-test

#include <cstdio>
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

int g_failed = 0;

void Expect(bool ok, const char* what, const Failures& f) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++g_failed;
    for (const std::string& msg : f) std::printf("       %s\n", msg.c_str());
  }
}

void ExpectPass(const char* what, const Failures& f) {
  Expect(f.empty(), what, f);
}

void ExpectCaught(const char* what, const Failures& f) {
  Expect(!f.empty(), what, f);
}

struct Fixture {
  csfc::WorkloadConfig wl;
  csfc::ServerConfig config;
  std::vector<csfc::Request> trace;
  std::optional<csfc::DiskModel> disk;
  csfc::SchedulerFactory factory;
};

// A short overloaded stream, so queues build and inversions, misses and
// SP promotions all occur.
Fixture MakeFixture() {
  Fixture fx;
  fx.wl = WorkloadConfigFor(Workload::kSimOverload, /*seed=*/7);
  fx.wl.count = 3000;
  fx.config = PaperServerConfig(fx.wl);
  std::string error;
  fx.trace = GenerateTrace(fx.wl, &error);
  if (!error.empty()) Fatal(error);
  fx.disk.emplace(Unwrap(csfc::DiskModel::Create(fx.config.sim.disk), "disk"));
  fx.factory = Unwrap(fx.config.MakeFactory(*fx.disk), "factory");
  return fx;
}

void TestSimChecks(const Fixture& fx) {
  const uint64_t n = fx.trace.size();
  const csfc::RunMetrics m = Unwrap(
      csfc::RunSchedulerOnTrace(fx.config.sim, fx.trace, fx.factory), "run");
  csfc::SchedulerPtr sched = fx.factory();
  const ReplayRecord rec =
      Replay(fx.trace, *fx.disk, *sched, fx.wl.priority_dims,
             fx.config.sim.metrics, nullptr);
  if (m.total_inversions() == 0 || m.deadline_misses == 0) {
    Expect(false, "fixture produces inversions and deadline misses", {});
  }

  ExpectPass("genuine run: counts", CheckSimCounts(n, m));
  ExpectPass("genuine run: replay recounts", CheckReplayAgainstRun(rec, m, n));
  ExpectPass("genuine run: replay equals simulator field for field",
             CheckRunMetricsEqual(*rec.collected, m));
  ExpectPass("genuine run: bounds",
             CheckSimBounds(m, fx.trace.front().arrival));

  {  // The program loses a request: the simulator is fed one fewer.
    std::vector<csfc::Request> dropped = fx.trace;
    dropped.erase(dropped.begin() + 100);
    const csfc::RunMetrics md = Unwrap(
        csfc::RunSchedulerOnTrace(fx.config.sim, dropped, fx.factory), "run");
    ExpectCaught("dropped request: simulator counts", CheckSimCounts(n, md));
  }
  {
    csfc::RunMetrics bad = m;
    --bad.completions;
    ExpectCaught("dropped completion: counts", CheckSimCounts(n, bad));
    ExpectCaught("dropped completion: totals", CheckTotals(rec, bad));
  }
  {
    ReplayRecord bad = rec;
    bad.dispatch_order.erase(bad.dispatch_order.begin() + 10);
    ExpectCaught("dropped dispatch: exactly once",
                 CheckDispatchedOnce(bad.dispatch_order, n));
  }
  {
    ReplayRecord bad = rec;
    bad.dispatch_order[11] = bad.dispatch_order[10];
    ExpectCaught("duplicated dispatch: exactly once",
                 CheckDispatchedOnce(bad.dispatch_order, n));
  }
  {
    ReplayRecord bad = rec;
    ++bad.early_dispatches;
    ExpectCaught("dispatch before arrival", CheckNoEarlyDispatch(bad));
  }
  for (size_t k = 0; k < m.inversions_per_dim.size(); ++k) {
    csfc::RunMetrics bad = m;
    ++bad.inversions_per_dim[k];
    ExpectCaught("inversion count off by one: recount",
                 CheckInversions(rec, bad));
    ExpectCaught("inversion count off by one: field for field",
                 CheckRunMetricsEqual(*rec.collected, bad));
    bad.inversions_per_dim[k] -= 2;
    ExpectCaught("inversion count off by minus one: recount",
                 CheckInversions(rec, bad));
  }
  {
    csfc::RunMetrics bad = m;
    ++bad.deadline_misses;
    ExpectCaught("deadline misses off by one", CheckDeadlineMisses(rec, bad));
  }
  {
    csfc::RunMetrics bad = m;
    bad.total_seek_ms += 1.0;
    ExpectCaught("seek total off", CheckTotals(rec, bad));
    ExpectCaught("seek total off: field for field",
                 CheckRunMetricsEqual(*rec.collected, bad));
  }
  {
    csfc::RunMetrics bad = m;
    bad.total_service_ms = 2.0 * csfc::SimToMs(m.makespan);
    ExpectCaught("service beyond makespan",
                 CheckSimBounds(bad, fx.trace.front().arrival));
  }
  {
    csfc::RunMetrics bad = m;
    bad.response_ms = csfc::RunningStat();
    for (uint64_t i = 0; i < m.completions; ++i) bad.response_ms.Add(0.001);
    ExpectCaught("mean response below mean service",
                 CheckSimBounds(bad, fx.trace.front().arrival));
  }
}

void TestServeChecks(const Fixture& fx) {
  const uint64_t n = fx.trace.size();
  std::vector<csfc::RequestId> virtual_order;
  std::vector<csfc::RequestId> offline_order;
  csfc::svc::ServiceServer::Options options;
  std::unique_ptr<csfc::svc::ServiceServer> server = Unwrap(
      csfc::svc::ServiceServer::Create(
          std::make_unique<ProbeScheduler>(fx.factory(), &virtual_order,
                                           nullptr),
          csfc::MakeServiceTimeFn(*fx.disk, fx.config.sim.service_model,
                                  fx.config.sim.latency_seed),
          options),
      "server");
  const csfc::svc::ServiceStats stats = server->RunVirtual(fx.trace);
  const csfc::SchedulerFactory probed = [&]() -> csfc::SchedulerPtr {
    return std::make_unique<ProbeScheduler>(fx.factory(), &offline_order,
                                            nullptr);
  };
  const csfc::RunMetrics through_probe = Unwrap(
      csfc::RunSchedulerOnTrace(fx.config.sim, fx.trace, probed), "run");
  const csfc::RunMetrics direct = Unwrap(
      csfc::RunSchedulerOnTrace(fx.config.sim, fx.trace, fx.factory), "run");

  ExpectPass("probe forwards every call unchanged",
             CheckRunMetricsEqual(through_probe, direct));
  ExpectPass("genuine virtual run: counts", CheckServeCounts(n, 0, stats));
  ExpectPass("genuine virtual run: exactly once",
             CheckDispatchedOnce(virtual_order, n));
  ExpectPass("genuine virtual run: same order as offline simulator",
             CheckSameOrder(virtual_order, offline_order));

  {
    std::vector<csfc::RequestId> bad = virtual_order;
    std::swap(bad[20], bad[21]);
    ExpectCaught("misordered virtual-mode dispatch",
                 CheckSameOrder(bad, offline_order));
  }
  {
    std::vector<csfc::RequestId> bad = virtual_order;
    bad.pop_back();
    ExpectCaught("virtual mode drops a dispatch",
                 CheckSameOrder(bad, offline_order));
  }
  ExpectCaught("refused offer", CheckServeCounts(n, 1, stats));
  {
    csfc::svc::ServiceStats bad = stats;
    --bad.completions;
    ExpectCaught("offer never completed", CheckServeCounts(n, 0, bad));
  }
  {
    csfc::svc::ServiceStats bad = stats;
    --bad.admission.offered;
    ExpectCaught("offer lost before admission", CheckServeCounts(n, 0, bad));
  }
  {
    std::vector<csfc::RequestId> bad = virtual_order;
    bad.push_back(bad.front());
    ExpectCaught("served request dispatched twice",
                 CheckDispatchedOnce(bad, n));
  }
}

// A genuine wall-clock round, built as serve_workloads.cc builds one: the
// pump thread calls the probe, which the round reads only after Stop.
void TestWallClockRound(const Fixture& fx) {
  const uint64_t n = fx.trace.size();
  std::vector<csfc::RequestId> order;
  order.reserve(n);
  ProbeSpans spans;
  csfc::svc::ServiceServer::Options options;
  options.ingest.ring_capacity = n;
  std::unique_ptr<csfc::svc::ServiceServer> server = Unwrap(
      csfc::svc::ServiceServer::Create(
          std::make_unique<ProbeScheduler>(fx.factory(), &order, &spans),
          csfc::MakeServiceTimeFn(*fx.disk, fx.config.sim.service_model,
                                  fx.config.sim.latency_seed),
          options),
      "server");
  if (csfc::Status s = server->Start(); !s.ok()) Fatal(s.ToString());
  uint64_t refused = 0;
  for (const csfc::Request& r : fx.trace) refused += server->Offer(r) ? 0 : 1;
  server->Stop();
  ExpectPass("wall-clock round: counts",
             CheckServeCounts(n, refused, server->Stats()));
  ExpectPass("wall-clock round: exactly once", CheckDispatchedOnce(order, n));
  Expect(spans.batched_requests == n, "wall-clock round: probe saw every batch",
         {});
}

void TestRecountEdges() {
  // A request with fewer dimensions than tracked, and a raw level beyond
  // the configured range.
  InversionRecount recount(3);
  csfc::Request a;
  a.priorities = {5, 40};
  csfc::Request b;
  b.priorities = {1};
  csfc::Request c;
  c.priorities = {7, 50, 9};
  recount.OnEnqueue(a);
  recount.OnEnqueue(b);
  recount.OnEnqueue(c);
  recount.OnDispatch(c);  // a beats c on dims 0 and 1; b beats c on dim 0
  const std::vector<uint64_t> want = {2, 1, 0};
  Expect(recount.inversions() == want, "recount: short and raw-level requests",
         {});
}

}  // namespace
}  // namespace perfbench

int main() {
  const perfbench::Fixture fx = perfbench::MakeFixture();
  perfbench::TestSimChecks(fx);
  perfbench::TestServeChecks(fx);
  perfbench::TestWallClockRound(fx);
  perfbench::TestRecountEdges();
  std::printf("%s\n", perfbench::g_failed == 0 ? "all checks tests passed"
                                               : "checks tests FAILED");
  return perfbench::g_failed == 0 ? 0 : 1;
}
