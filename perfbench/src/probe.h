// A forwarding Scheduler that the benchmark puts between the service
// front end (or the offline simulator) and the real scheduler. It records
// the id of every dispatched request, so each round's dispatches can be
// checked; when given spans it times each call from outside, and when
// given a timestamp table it records when each request was dispatched.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness.h"
#include "sched/scheduler.h"

namespace perfbench {

/// Host time and counts of the scheduler calls the service pump makes.
struct ProbeSpans {
  Span enqueue_batch;  ///< one call per drained ring batch
  uint64_t batched_requests = 0;
  Span dispatch;       ///< Dispatch, including empty polls
  size_t depth_max = 0;
};

namespace probe_detail {

// The scheduler interface still declares a pure-virtual waiting-request
// walk that the metrics layer uses. The probe must forward it while it
// exists, but must not spell out its signature: once the walk is removed
// from the interface, WalkArg yields a placeholder type, the forwarder
// below becomes a non-virtual member of a class template that nothing
// calls (so it is never instantiated), and the probe compiles unchanged.
struct NoWalk {};
template <typename C, typename A>
A WalkArgOf(void (C::*)(A) const);
template <typename B, typename = void>
struct WalkArg {
  using type = NoWalk;
};
template <typename B>
struct WalkArg<B, std::void_t<decltype(&B::ForEachWaiting)>> {
  using type = decltype(WalkArgOf(&B::ForEachWaiting));
};

}  // namespace probe_detail

// A template over its base only so that the walk forwarder's body is a
// dependent expression (see probe_detail); Base is always csfc::Scheduler.
template <typename Base = csfc::Scheduler>
class ProbeSchedulerT final : public Base {
 public:
  /// `order` receives dispatched ids (reserve it beforehand); `spans`
  /// may be null (no clock reads). `dispatched_at_ns`, when not null, has
  /// one slot per request id and receives the host time (NowNs) at which
  /// Dispatch returned that request. All three are borrowed and read by
  /// the owner only after the scheduler's user has stopped calling it.
  ProbeSchedulerT(std::unique_ptr<Base> inner,
                  std::vector<csfc::RequestId>* order, ProbeSpans* spans,
                  std::vector<int64_t>* dispatched_at_ns = nullptr)
      : inner_(std::move(inner)),
        order_(order),
        spans_(spans),
        dispatched_at_ns_(dispatched_at_ns) {}

  std::string_view name() const override { return inner_->name(); }

  void Enqueue(csfc::Request r, const csfc::DispatchContext& ctx) override {
    inner_->Enqueue(std::move(r), ctx);
  }

  void EnqueueBatch(std::span<csfc::Request> batch,
                    const csfc::DispatchContext& ctx) override {
    if (spans_ == nullptr) {
      inner_->EnqueueBatch(batch, ctx);
      return;
    }
    {
      ScopedSpan s(&spans_->enqueue_batch);
      inner_->EnqueueBatch(batch, ctx);
    }
    spans_->batched_requests += batch.size();
    spans_->depth_max = std::max(spans_->depth_max, inner_->queue_size());
  }

  std::optional<csfc::Request> Dispatch(
      const csfc::DispatchContext& ctx) override {
    std::optional<csfc::Request> r;
    {
      ScopedSpan s(spans_ == nullptr ? nullptr : &spans_->dispatch);
      r = inner_->Dispatch(ctx);
    }
    if (r) {
      order_->push_back(r->id);
      if (dispatched_at_ns_ != nullptr) (*dispatched_at_ns_)[r->id] = NowNs();
    }
    return r;
  }

  size_t queue_size() const override { return inner_->queue_size(); }

  void ForEachWaiting(typename probe_detail::WalkArg<Base>::type fn) const {
    inner_->ForEachWaiting(fn);
  }

  void Observe(csfc::obs::Tracer& tracer) override { inner_->Observe(tracer); }

 private:
  std::unique_ptr<Base> inner_;
  std::vector<csfc::RequestId>* order_;
  ProbeSpans* spans_;
  std::vector<int64_t>* dispatched_at_ns_;
};

using ProbeScheduler = ProbeSchedulerT<>;

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
