#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/timers.h"

namespace nt {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  sched.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  sched.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Millis(30));
}

TEST(SchedulerTest, FifoForEqualTimes) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  sched.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  TimePoint fired_at = -1;
  sched.ScheduleAt(Millis(10), [&] {
    sched.ScheduleAfter(Millis(5), [&] { fired_at = sched.now(); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto id = sched.ScheduleAt(Millis(10), [&] { fired = true; });
  sched.Cancel(id);
  sched.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelAfterFireIsSafe) {
  Scheduler sched;
  auto id = sched.ScheduleAt(Millis(1), [] {});
  sched.RunUntilIdle();
  sched.Cancel(id);  // No effect; must not crash or corrupt.
  bool fired = false;
  sched.ScheduleAt(Millis(2), [&] { fired = true; });
  sched.RunUntilIdle();
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int count = 0;
  sched.ScheduleAt(Millis(10), [&] { ++count; });
  sched.ScheduleAt(Millis(20), [&] { ++count; });
  sched.ScheduleAt(Millis(30), [&] { ++count; });
  sched.RunUntil(Millis(20));
  EXPECT_EQ(count, 2);  // Events at <= 20ms.
  EXPECT_EQ(sched.now(), Millis(20));
  sched.RunUntil(Millis(40));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sched.now(), Millis(40));
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler sched;
  sched.RunUntil(Millis(100));
  TimePoint fired_at = -1;
  sched.ScheduleAt(Millis(50), [&] { fired_at = sched.now(); });
  sched.RunUntilIdle();
  EXPECT_EQ(fired_at, Millis(100));  // Never travels back in time.
}

TEST(SchedulerTest, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sched.ScheduleAfter(Millis(1), recurse);
    }
  };
  sched.ScheduleAfter(Millis(1), recurse);
  sched.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), Millis(5));
}

TEST(SchedulerTest, PendingEventsCount) {
  Scheduler sched;
  auto a = sched.ScheduleAt(Millis(1), [] {});
  sched.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(sched.pending_events(), 2u);
  sched.Cancel(a);  // Cancelled events are no longer pending.
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.RunUntilIdle();
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerTest, CancelIsIdempotentAndCountsOnce) {
  Scheduler sched;
  bool fired = false;
  auto a = sched.ScheduleAt(Millis(1), [&] { fired = true; });
  sched.ScheduleAt(Millis(2), [] {});
  sched.Cancel(a);
  sched.Cancel(a);  // Second cancel of the same id is a no-op.
  sched.Cancel(Scheduler::kInvalidTimer);
  sched.Cancel(12345);  // Never-issued id.
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(SchedulerTest, CancelledEventDoesNotBlockRunUntilBoundary) {
  // A cancelled event ahead of the boundary must not cause RunUntil to run
  // events *beyond* the boundary when skipping it.
  Scheduler sched;
  int count = 0;
  auto early = sched.ScheduleAt(Millis(5), [&] { ++count; });
  sched.ScheduleAt(Millis(50), [&] { ++count; });
  sched.Cancel(early);
  sched.RunUntil(Millis(10));
  EXPECT_EQ(count, 0);  // The 50ms event stays queued.
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.RunUntilIdle();
  EXPECT_EQ(count, 1);
}

TEST(SchedulerTest, HeavyCancellationDoesNotAccumulateState) {
  // Regression: cancelling already-fired ids used to leave a tombstone per
  // call forever, and cancelled-but-queued events inflated pending_events().
  // Churn through many schedule/fire/cancel cycles and check the counts stay
  // exact throughout.
  Scheduler sched;
  int fired = 0;
  for (int round = 0; round < 200; ++round) {
    std::vector<Scheduler::TimerId> ids;
    for (int i = 0; i < 10; ++i) {
      ids.push_back(sched.ScheduleAfter(Millis(1 + i), [&] { ++fired; }));
    }
    // Cancel half while queued, then fire the rest.
    for (int i = 0; i < 5; ++i) {
      sched.Cancel(ids[i]);
    }
    EXPECT_EQ(sched.pending_events(), 5u);
    sched.RunUntilIdle();
    EXPECT_EQ(sched.pending_events(), 0u);
    // Cancel everything again after firing: all no-ops.
    for (auto id : ids) {
      sched.Cancel(id);
    }
    EXPECT_EQ(sched.pending_events(), 0u);
  }
  EXPECT_EQ(fired, 200 * 5);
}

TEST(SchedulerTest, CompactionPreservesOrderUnderMassCancel) {
  // Cancel most of a large heap (tripping in-place compaction) and verify
  // the survivors still run in time order.
  Scheduler sched;
  std::vector<int> order;
  std::vector<Scheduler::TimerId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(sched.ScheduleAt(Millis(500 - i), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 500; ++i) {
    if (i % 100 != 0) {
      sched.Cancel(ids[i]);
    }
  }
  EXPECT_EQ(sched.pending_events(), 5u);
  sched.RunUntilIdle();
  // Survivors i = 0, 100, ..., 400 were scheduled at Millis(500 - i):
  // later i fires earlier.
  EXPECT_EQ(order, (std::vector<int>{400, 300, 200, 100, 0}));
  EXPECT_EQ(sched.pending_events(), 0u);
}

// ---- the timer seam (src/sim/timers.h) -------------------------------------

TEST(TimersTest, BackoffDoublesUpToItsCap) {
  constexpr Backoff kB{Millis(300), 3};
  std::vector<TimeDelta> delays;
  for (uint32_t attempt = 0; attempt < 6; ++attempt) {
    delays.push_back(kB.Delay(attempt));
  }
  EXPECT_EQ(delays, (std::vector<TimeDelta>{Millis(300), Millis(600), Millis(1200), Millis(2400),
                                            Millis(2400), Millis(2400)}));
  EXPECT_EQ(kB.MaxDelay(), Millis(2400));
  // No doublings: a fixed period.
  EXPECT_EQ((Backoff{Millis(300), 0}).Delay(5), Millis(300));
}

TEST(TimersTest, RetryRunsUntilItsStepReturnsFalse) {
  Scheduler sched;
  Timers timers(&sched);
  std::vector<TimePoint> fired_at;
  std::vector<uint32_t> attempts;
  timers.ScheduleRetry(Backoff{Millis(100), 2}, 0, [&](uint32_t attempt) {
    fired_at.push_back(sched.now());
    attempts.push_back(attempt);
    return attempts.size() < 4;
  });
  sched.RunUntilIdle();
  // Gaps 100, 200, 400, 400 ms; the fourth step declines, so nothing re-arms.
  EXPECT_EQ(fired_at,
            (std::vector<TimePoint>{Millis(100), Millis(300), Millis(700), Millis(1100)}));
  EXPECT_EQ(attempts, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.events_fired(), 4u);
}

TEST(TimersTest, RetryStartsAtTheGivenAttempt) {
  Scheduler sched;
  Timers timers(&sched);
  std::vector<TimePoint> fired_at;
  timers.ScheduleRetry(Backoff{Millis(100), 6}, 2, [&](uint32_t) {
    fired_at.push_back(sched.now());
    return fired_at.size() < 2;
  });
  sched.RunUntilIdle();
  EXPECT_EQ(fired_at, (std::vector<TimePoint>{Millis(400), Millis(1200)}));
}

TEST(TimersTest, DestroyedTimersStillFireButDoNothing) {
  Scheduler sched;
  int plain = 0;
  int steps = 0;
  auto timers = std::make_unique<Timers>(&sched);
  timers->ScheduleAfter(Millis(10), [&] { ++plain; });
  timers->ScheduleRetry(Backoff{Millis(20), 0}, 0, [&](uint32_t) {
    ++steps;
    return true;
  });
  sched.RunUntil(Millis(25));  // The plain timer and one step ran.
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(steps, 1);
  timers->ScheduleAfter(Millis(5), [&] { ++plain; });
  timers.reset();  // A rebuilt validator drops its predecessor like this.
  const uint64_t fired_before = sched.events_fired();
  sched.RunUntilIdle();
  // Both queued timers (the plain one and the re-armed retry) fired, so the
  // event stream is unchanged, but neither ran its callback or re-armed.
  EXPECT_EQ(sched.events_fired(), fired_before + 2);
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(steps, 1);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(TimersTest, CancellingARetrysPendingTimerStopsIt) {
  Scheduler sched;
  Timers timers(&sched);
  int steps = 0;
  Scheduler::TimerId pending = Scheduler::kInvalidTimer;
  pending = timers.ScheduleRetry(
      Backoff{Millis(100), 6}, 0,
      [&](uint32_t) {
        ++steps;
        return true;
      },
      &pending);
  const Scheduler::TimerId first = pending;
  sched.RunUntil(Millis(350));  // Steps at 100 and 300 ms; the next is due at 700.
  EXPECT_EQ(steps, 2);
  EXPECT_NE(pending, first);  // Every re-arm reports its new id.
  timers.Cancel(pending);
  const uint64_t fired_before = sched.events_fired();
  sched.RunUntilIdle();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sched.events_fired(), fired_before);
  EXPECT_EQ(sched.pending_events(), 0u);
}

}  // namespace
}  // namespace nt
