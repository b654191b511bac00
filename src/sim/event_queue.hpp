#pragma once
// Minimal deterministic discrete-event engine. Events fire in (time,
// insertion-order) order, so two runs with the same seed are bit-for-bit
// identical. Sequence numbers are only ever drawn at schedule time: a
// caller with a long known event list (the packet simulator's payment
// arrivals) keeps the heap small by chaining, scheduling each event
// when its predecessor fires.
//
// Every event is typed: one of the simulators' fixed event kinds plus
// two 64-bit payload words, stored inline in a POD heap entry.
// Scheduling one is a heap push with zero per-event allocation; firing
// one calls the registered dispatcher (a plain function pointer +
// context, set once per simulation), which interprets the kind.

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace spider::sim {

using core::TimePoint;

/// Fixed event kinds of both simulators, interpreted by the registered
/// dispatcher. The numeric values are hashed by canonical_checksum, so
/// existing kinds keep theirs and new kinds are appended.
enum class EventKind : std::uint8_t {
  kArrival,         // a payment enters the network (a = PaymentId)
  kHopAdvance,      // packet sim: a unit finishes a hop's delay (a = handle)
  kAck,             // packet sim: confirmation reaches the sender (a = handle)
  kSettle,          // flow sim: a routed share settles (a = handle)
  kExpirySweep,     // packet sim: periodic router-queue expiry sweep
  kSeriesSample,    // periodic telemetry sample (no payload)
  kFaultStart,      // a fault-plan entry begins (a = plan index)
  kFaultEnd,        // a fault window ends (a = FaultInjector::pack_end word)
  kPoll = 8,        // flow sim: retry-queue poll (no payload)
  kRebalanceSweep,  // flow sim: on-chain rebalancing sweep (no payload)
  kDeposit,         // flow sim: deposit confirms (a = edge<<1|side, b = amount)
};

/// POD heap entry, 32 bytes: the sequence number and kind share one
/// word (seq in the high 56 bits, so ordering by `meta` IS ordering by
/// insertion sequence). The payload is inline.
struct SimEvent {
  TimePoint time;
  std::uint64_t meta;  // (seq << 8) | kind
  std::uint64_t a;
  std::uint64_t b;

  [[nodiscard]] EventKind kind() const {
    return static_cast<EventKind>(meta & 0xff);
  }
  [[nodiscard]] std::uint64_t seq() const { return meta >> 8; }
  /// Strict total order (time, seq): earlier fires first.
  [[nodiscard]] bool before(const SimEvent& o) const {
    if (time != o.time) return time < o.time;
    return meta < o.meta;
  }
};

/// 4-ary min-heap on SimEvent::before. The d-ary layout halves the pop
/// depth vs a binary heap and keeps siblings in one cache line; pop
/// order is the comparator's total order regardless of layout, so
/// determinism is untouched.
class EventHeap {
 public:
  void push(const SimEvent& ev);
  /// Removes and returns the minimum; undefined on an empty heap.
  SimEvent pop();
  [[nodiscard]] const SimEvent* top() const {
    return heap_.empty() ? nullptr : heap_.data();
  }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Underlying array in heap layout (deterministic given a
  /// deterministic push/pop sequence); used by the checksum.
  [[nodiscard]] const std::vector<SimEvent>& entries() const { return heap_; }

 private:
  void sift_down(std::size_t i);

  std::vector<SimEvent> heap_;
};

class EventQueue {
 public:
  /// Event sink: called with the event's kind and payload words.
  using Dispatcher = void (*)(void* ctx, EventKind kind, std::uint64_t a,
                              std::uint64_t b);

  /// Registers the event sink (one per queue; required before the first
  /// event fires).
  void set_dispatcher(Dispatcher fn, void* ctx) {
    dispatcher_ = fn;
    dispatcher_ctx_ = ctx;
  }

  /// Post-event hook: called after every executed event with the
  /// advanced clock and the processed-event count. Used by the opt-in
  /// InvariantAuditor (sim/audit.hpp); when unset the cost is one
  /// predictable branch per event. The hook must not schedule events.
  using PostEventHook = void (*)(void* ctx, TimePoint now,
                                 std::uint64_t processed);
  void set_post_event_hook(PostEventHook fn, void* ctx) {
    post_hook_ = fn;
    post_hook_ctx_ = ctx;
  }

  /// Schedules an event at absolute time `t` (must be >= now(), throws
  /// std::invalid_argument otherwise, NaN included). The event draws the
  /// next sequence number, so it fires after every event already queued
  /// for the same time. Zero allocation.
  void schedule(TimePoint t, EventKind kind, std::uint64_t a = 0,
                std::uint64_t b = 0);

  /// Schedules an event after a relative delay.
  void schedule_in(TimePoint delay, EventKind kind, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
    schedule(now_ + delay, kind, a, b);
  }

  /// Pops and runs the earliest event, advancing the clock.
  /// Returns false when no events remain.
  bool run_next();

  /// Runs events while their time is <= `t_end`, then advances the clock
  /// to exactly `t_end`. Later events stay queued.
  void run_until(TimePoint t_end);

  /// Runs everything to quiescence.
  void run_all();

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Events executed so far (monotone; the unit of events/sec benches).
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

  /// FNV-1a over the clock, sequence counter, and every queued event
  /// (time bits, meta, payload), with the pending events sorted by
  /// sequence number -- a pure function of the semantic engine state,
  /// independent of heap layout. Two byte-identical runs checksum
  /// identically at the same point; used by the service-mode snapshot
  /// validation (DESIGN.md §13).
  [[nodiscard]] std::uint64_t canonical_checksum() const;

 private:
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  EventHeap heap_;

  Dispatcher dispatcher_ = nullptr;
  void* dispatcher_ctx_ = nullptr;
  PostEventHook post_hook_ = nullptr;
  void* post_hook_ctx_ = nullptr;
};

}  // namespace spider::sim
