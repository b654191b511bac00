#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

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
  const std::uint64_t seq = q.reserve_seqs(1);
  EXPECT_THROW(q.schedule_reserved(1.0, EventKind::kArrival, seq),
               std::invalid_argument);
}

TEST(EventQueue, TypedEventWithoutDispatcherThrows) {
  EventQueue q;
  q.schedule(1.0, EventKind::kArrival);
  EXPECT_THROW(q.run_all(), std::logic_error);
}

TEST(EventQueue, ReservedSequencesOrderLikeUpfrontScheduling) {
  // reserve_seqs hands out the same sequence numbers a loop of schedule
  // calls would have used; pushing the events later (or out of push
  // order) must not change the firing order.
  EventQueue q;
  Capture cap;
  q.set_dispatcher(&Capture::dispatch, &cap);
  const std::uint64_t seq0 = q.reserve_seqs(3);
  // Push in reverse: firing order must still follow the reserved seqs.
  q.schedule_reserved(1.0, EventKind::kArrival, seq0 + 2, 2);
  q.schedule_reserved(1.0, EventKind::kArrival, seq0 + 1, 1);
  q.schedule_reserved(1.0, EventKind::kArrival, seq0, 0);
  // An event scheduled after the reservation draws a later seq.
  q.schedule(1.0, EventKind::kAck, 3);
  q.run_all();
  ASSERT_EQ(cap.fired.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cap.fired[i].second, i);
  }
}

}  // namespace
}  // namespace spider::sim
