// The fixed part of every perfbench workload: the scheduler configuration
// (the paper preset) and the request stream each workload generates from
// its seed.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/presets.h"
#include "exp/server_config.h"
#include "harness.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace perfbench {

/// Ends the run without a result: set-up of the program failed.
[[noreturn]] inline void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

/// The value of `r`, or Fatal with its status.
template <typename T>
T Unwrap(csfc::Result<T> r, const char* what) {
  if (!r.ok()) Fatal(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

/// Make-up of one round of a workload: `streams` independent request
/// streams of `count` requests each, Poisson arrivals at a mean
/// interarrival of `interarrival_ms`.
struct WorkloadShape {
  uint64_t streams;
  uint64_t count;
  double interarrival_ms;
};

inline WorkloadShape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kSimUnderload:
      // 1M requests a round, in streams short enough (about 25 ms a run)
      // that each run is timed many times within one --seconds.
      return {16, 62'500, 30.0};
    case Workload::kSimOverload:
      // Sized for the O(depth log depth) inversion walk of today's metrics
      // layer: a round takes about 2 s. Four streams per round average out
      // how much each seed's queue grows.
      return {4, 7'000, 15.0};
    case Workload::kServeBacklog:
      return {1, 1'000'000, 30.0};
    case Workload::kServePaced:
      return {1, 400'000, 30.0};
  }
  return {0, 0, 0.0};
}

/// Generator settings of stream `stream` of a round: 3 QoS dimensions x
/// 16 levels, 64 KiB requests, 500-700 ms deadlines, uniform cylinders.
/// The generator's seed is seed * streams + stream: the run's --seed
/// itself when there is one stream, and distinct for distinct (seed,
/// stream).
inline csfc::WorkloadConfig WorkloadConfigFor(Workload w, uint64_t seed,
                                              uint64_t stream = 0) {
  const WorkloadShape shape = ShapeOf(w);
  csfc::WorkloadConfig cfg;
  cfg.seed = seed * shape.streams + stream;
  cfg.count = shape.count;
  cfg.mean_interarrival_ms = shape.interarrival_ms;
  cfg.priority_dims = 3;
  cfg.priority_levels = 16;
  cfg.bytes_lo = cfg.bytes_hi = 64 * 1024;
  return cfg;
}

/// The Cascaded-SFC scheduler in the paper preset — hilbert SFC1,
/// stage-2 formula with f = 1, SFC3 with R = 3, window w = 0.05 — over
/// the full disk model (seek + expected rotation + zoned transfer).
inline csfc::ServerConfig PaperServerConfig(const csfc::WorkloadConfig& wl) {
  csfc::ServerConfig config;
  config.WithScheduler("csfc")
      .WithServiceModel(csfc::ServiceModel::kFullDisk)
      .WithMetricsShape(wl.priority_dims, wl.priority_levels)
      .WithCascaded(csfc::PresetFull("hilbert", wl.priority_dims, /*bits=*/4,
                                     /*f=*/1.0, /*r=*/3,
                                     config.sim.disk.cylinders,
                                     /*window=*/0.05, wl.deadline_hi_ms));
  return config;
}

/// Generates the workload's request stream. Fails (empty result, message
/// in *error) unless request ids are 0..n-1 in order, which the id checks
/// rely on.
inline std::vector<csfc::Request> GenerateTrace(const csfc::WorkloadConfig& cfg,
                                                std::string* error) {
  auto gen = csfc::SyntheticGenerator::Create(cfg);
  if (!gen.ok()) {
    *error = gen.status().ToString();
    return {};
  }
  std::vector<csfc::Request> trace = csfc::DrainGenerator(**gen);
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].id != i) {
      *error = "generated request ids are not 0..n-1";
      return {};
    }
  }
  if (trace.size() != cfg.count) {
    *error = "generator produced " + std::to_string(trace.size()) +
             " requests, expected " + std::to_string(cfg.count);
    return {};
  }
  return trace;
}

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
