#include "replay.h"

#include <algorithm>
#include <utility>

#include "core/cascaded_scheduler.h"

namespace perfbench {

using csfc::Request;
using csfc::SimTime;

InversionRecount::InversionRecount(uint32_t dims)
    : dims_(dims), waiting_(dims), inversions_(dims, 0) {}

void InversionRecount::OnEnqueue(const Request& r) {
  const size_t dims = std::min<size_t>(dims_, r.priorities.size());
  for (size_t k = 0; k < dims; ++k) {
    std::vector<uint64_t>& levels = waiting_[k];
    const size_t level = r.priorities[k];
    if (level >= levels.size()) levels.resize(level + 1, 0);
    ++levels[level];
  }
}

void InversionRecount::OnDispatch(const Request& r) {
  const size_t own = std::min<size_t>(dims_, r.priorities.size());
  for (size_t k = 0; k < own; ++k) --waiting_[k][r.priorities[k]];
  for (size_t k = 0; k < dims_; ++k) {
    const std::vector<uint64_t>& levels = waiting_[k];
    const size_t below = std::min<size_t>(r.priority(k), levels.size());
    for (size_t l = 0; l < below; ++l) inversions_[k] += levels[l];
  }
}

ReplayRecord Replay(const std::vector<Request>& trace,
                    const csfc::DiskModel& disk, csfc::Scheduler& sched,
                    uint32_t dims,
                    const std::optional<csfc::MetricsConfig>& metrics,
                    ReplaySpans* spans) {
  ReplayRecord rec;
  rec.dispatch_order.reserve(trace.size());
  if (!trace.empty()) rec.first_arrival = trace.front().arrival;
  std::optional<csfc::MetricsCollector> collector;
  if (metrics) collector.emplace(*metrics);
  InversionRecount recount(dims);
  const auto span = [spans](Span ReplaySpans::*member) -> Span* {
    return spans == nullptr ? nullptr : &(spans->*member);
  };

  size_t next = 0;
  SimTime now = 0;
  csfc::Cylinder head = 0;
  bool busy = false;
  SimTime completion_time = 0;
  Request in_service;
  double seek_ms = 0.0;
  double service_ms = 0.0;

  while (true) {
    if (!busy) {
      const csfc::DispatchContext ctx{.now = now, .head = head};
      std::optional<Request> r;
      {
        ScopedSpan s(span(&ReplaySpans::dispatch));
        r = sched.Dispatch(ctx);
      }
      if (r) {
        rec.dispatch_order.push_back(r->id);
        if (r->arrival > now) ++rec.early_dispatches;
        recount.OnDispatch(*r);
        if (collector) {
          ScopedSpan s(span(&ReplaySpans::on_dispatch));
          collector->OnDispatch(*r, sched);
        }
        double rotation_ms = 0.0;
        double transfer_ms = 0.0;
        {
          ScopedSpan s(span(&ReplaySpans::disk_service));
          seek_ms = disk.SeekTimeMs(head, r->cylinder);
          rotation_ms = disk.AvgRotationalLatencyMs();
          transfer_ms = disk.TransferTimeMs(r->cylinder, r->bytes);
        }
        service_ms = seek_ms + rotation_ms + transfer_ms;
        rec.seek_ms += seek_ms;
        rec.rotation_ms += rotation_ms;
        rec.transfer_ms += transfer_ms;
        in_service = std::move(*r);
        completion_time = now + csfc::MsToSim(service_ms);
        busy = true;
      }
    }

    const bool take_completion =
        busy &&
        (next == trace.size() || completion_time <= trace[next].arrival);
    if (take_completion) {
      now = completion_time;
      head = in_service.cylinder;
      busy = false;
      ++rec.completions;
      rec.service_ms += service_ms;
      rec.response_ms += csfc::SimToMs(now - in_service.arrival);
      rec.makespan = std::max(rec.makespan, now);
      if (in_service.has_deadline()) {
        ++rec.deadline_total;
        if (now > in_service.deadline) ++rec.deadline_misses;
      }
      if (collector) {
        ScopedSpan s(span(&ReplaySpans::on_completion));
        collector->OnCompletion(in_service, now, seek_ms, service_ms);
      }
    } else if (next < trace.size()) {
      Request r = trace[next++];
      now = r.arrival;
      ++rec.arrivals;
      if (collector) {
        ScopedSpan s(span(&ReplaySpans::on_arrival));
        collector->OnArrival(r);
      }
      recount.OnEnqueue(r);
      const csfc::DispatchContext ctx{.now = now, .head = head};
      {
        ScopedSpan s(span(&ReplaySpans::enqueue));
        sched.Enqueue(std::move(r), ctx);
      }
      const size_t depth = sched.queue_size();
      rec.depth_sum += static_cast<double>(depth);
      rec.depth_max = std::max(rec.depth_max, depth);
    } else if (!busy) {
      break;
    }
  }
  rec.inversions_per_dim = recount.inversions();
  if (collector) rec.collected = collector->TakeMetrics();
  return rec;
}

void LayerTally::Add(const ReplayRecord& rec, const csfc::Scheduler& sched) {
  arrivals_ += rec.arrivals;
  completions_ += rec.completions;
  depth_sum_ += rec.depth_sum;
  depth_max_ = std::max(depth_max_, rec.depth_max);
  if (const auto* cascaded =
          dynamic_cast<const csfc::CascadedSfcScheduler*>(&sched)) {
    preemptions_ += cascaded->dispatcher().preemptions();
    promotions_ += cascaded->dispatcher().promotions();
    swaps_ += cascaded->dispatcher().swaps();
  }
  if (rec.collected) {
    inversions_ += rec.collected->total_inversions();
    deadline_misses_ += rec.collected->deadline_misses;
  }
  seek_ms_ += rec.seek_ms;
  rotation_ms_ += rec.rotation_ms;
  transfer_ms_ += rec.transfer_ms;
}

void LayerTally::FillTo(const ReplaySpans& spans, LayerFigures* out) const {
  const auto per = [](double total, uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  out->core_enqueue_ns = spans.enqueue.MeanNs();
  out->core_dispatch_ns = spans.dispatch.MeanNs();
  out->core_queue_depth_mean = per(depth_sum_, arrivals_);
  out->core_queue_depth_max = static_cast<double>(depth_max_);
  out->core_preemptions = static_cast<double>(preemptions_);
  out->core_sp_promotions = static_cast<double>(promotions_);
  out->core_queue_swaps = static_cast<double>(swaps_);
  out->stats_on_arrival_ns = spans.on_arrival.MeanNs();
  out->stats_on_dispatch_ns = spans.on_dispatch.MeanNs();
  out->stats_on_completion_ns = spans.on_completion.MeanNs();
  out->stats_inversions_total = static_cast<double>(inversions_);
  out->stats_deadline_misses = static_cast<double>(deadline_misses_);
  out->disk_service_ns = spans.disk_service.MeanNs();
  out->disk_seek_ms_mean = per(seek_ms_, completions_);
  out->disk_rotation_ms_mean = per(rotation_ms_, completions_);
  out->disk_transfer_ms_mean = per(transfer_ms_, completions_);
}

}  // namespace perfbench
