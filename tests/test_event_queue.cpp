#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

namespace spider::sim {
namespace {

/// Test dispatcher: records (kind, payload a) in firing order.
struct Capture {
  std::vector<std::pair<EventKind, std::uint64_t>> fired;
  static void dispatch(void* ctx, EventKind kind, std::uint64_t a,
                       std::uint64_t /*b*/) {
    static_cast<Capture*>(ctx)->fired.emplace_back(kind, a);
  }
};

TEST(EventQueue, TiesBreakByInsertionOrder) {
  // Same-time events fire in insertion order whatever their kind.
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  const EventKind kinds[] = {EventKind::kPoll, EventKind::kArrival,
                             EventKind::kDeposit, EventKind::kAck,
                             EventKind::kArrival, EventKind::kExpirySweep};
  for (std::uint64_t i = 0; i < std::size(kinds); ++i) {
    q.schedule(1.0, kinds[i], i);
  }
  q.run_all();
  ASSERT_EQ(cap.fired.size(), std::size(kinds));
  for (std::uint64_t i = 0; i < std::size(kinds); ++i) {
    EXPECT_EQ(cap.fired[i], std::make_pair(kinds[i], i));
  }
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule(1.0, EventKind::kArrival);
  q.schedule(2.0, EventKind::kArrival);
  q.schedule(5.0, EventKind::kArrival);
  q.run_until(2.0);  // inclusive boundary
  EXPECT_EQ(cap.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(7.5);
  EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  struct Ticker {
    EventQueue* q;
    int count = 0;
    static void dispatch(void* ctx, EventKind kind, std::uint64_t,
                         std::uint64_t) {
      auto* self = static_cast<Ticker*>(ctx);
      ++self->count;
      if (self->count < 4) self->q->schedule_in(1.0, kind);
    }
  };
  EventQueue q;
  Ticker ticker{&q};
  q.set_dispatcher(&Ticker::dispatch, &ticker);
  q.schedule(0.0, EventKind::kPoll);
  q.run_all();
  EXPECT_EQ(ticker.count, 4);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueue, TypedEventsFireInTimeOrderThroughDispatcher) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule(3.0, EventKind::kAck, 30);
  q.schedule(1.0, EventKind::kArrival, 10);
  q.schedule(2.0, EventKind::kHopAdvance, 20);
  q.run_all();
  ASSERT_EQ(cap.fired.size(), 3u);
  EXPECT_EQ(cap.fired[0],
            std::make_pair(EventKind::kArrival, std::uint64_t{10}));
  EXPECT_EQ(cap.fired[1],
            std::make_pair(EventKind::kHopAdvance, std::uint64_t{20}));
  EXPECT_EQ(cap.fired[2], std::make_pair(EventKind::kAck, std::uint64_t{30}));
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, TypedPastSchedulingThrows) {
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  q.schedule(2.0, EventKind::kArrival);
  q.run_all();
  EXPECT_THROW(q.schedule(1.0, EventKind::kArrival), std::invalid_argument);
  // NaN compares false against everything; it must not reach the heap.
  EXPECT_THROW(q.schedule(std::nan(""), EventKind::kArrival),
               std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, TypedEventWithoutDispatcherThrows) {
  EventQueue q;
  q.schedule(1.0, EventKind::kArrival);
  EXPECT_THROW(q.run_all(), std::logic_error);
}

}  // namespace
}  // namespace spider::sim
