// Golden event-hash regression: the exact (time, seq) firing order of the
// discrete-event engine, pinned in-tree for fixed seeds.
//
// Scheduler::event_hash() folds every fired event's (time, seq) pair in
// firing order, so these constants freeze the engine's observable behaviour
// bit-for-bit. Two layers:
//
//   - a pure scheduler workload (ties, cancels, mass-cancel compaction,
//     RunUntil boundaries) that depends on nothing but src/sim — it fails
//     iff the engine itself reorders or renumbers events;
//   - mid-size full-stack DST schedules — they fail on engine reordering
//     AND on any protocol-behaviour change, in which case the constants
//     must be consciously re-pinned in the same PR that changed behaviour.
//
// If this test breaks and you did NOT intend to change event ordering or
// protocol logic, you introduced nondeterminism or an accidental reorder.
#include <gtest/gtest.h>

#include <vector>

#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/common/rng.h"
#include "src/sim/scheduler.h"

namespace nt {
namespace {

// Deterministic scheduler-only churn: a seeded mix of schedules (with time
// ties), cancels of queued/fired/bogus ids, reentrant re-scheduling, and a
// mass-cancel wave that trips heap compaction.
uint64_t SchedulerChurnHash(uint64_t seed, uint64_t* fired_out) {
  Scheduler sched;
  Rng rng(seed);
  std::vector<Scheduler::TimerId> ids;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) {
      TimePoint t = sched.now() + static_cast<TimePoint>(rng.NextBelow(50));
      if (rng.NextBool(0.3)) {
        // Reentrant: this event schedules another when it fires.
        ids.push_back(sched.ScheduleAt(t, [&sched, &rng] {
          sched.ScheduleAfter(static_cast<TimeDelta>(1 + rng.NextBelow(7)), [] {});
        }));
      } else {
        ids.push_back(sched.ScheduleAt(t, [] {}));
      }
    }
    // Cancel a seeded subset: some queued, some already fired, some bogus.
    for (int i = 0; i < 60; ++i) {
      sched.Cancel(ids[rng.NextBelow(ids.size())]);
    }
    sched.Cancel(9999999 + round);
    sched.RunUntil(sched.now() + static_cast<TimePoint>(25 + rng.NextBelow(25)));
  }
  // Mass cancel to force compaction, then drain.
  for (size_t i = 0; i < ids.size(); i += 2) {
    sched.Cancel(ids[i]);
  }
  sched.RunUntilIdle();
  *fired_out = sched.events_fired();
  return sched.event_hash();
}

TEST(EventHashGolden, SchedulerChurn) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
    uint64_t fired;
  };
  // Pinned from the pre-fast-path engine (PR base); the fast-path refactor
  // must reproduce these bit-for-bit.
  const Golden kGolden[] = {
      {1, 0xf94eedfbea6f791cull, 4824},
      {2, 0xd5d42f00909dac96ull, 4875},
      {3, 0xc3c46911a3f6967dull, 4828},
  };
  for (const Golden& g : kGolden) {
    uint64_t fired = 0;
    uint64_t hash = SchedulerChurnHash(g.seed, &fired);
    EXPECT_EQ(hash, g.hash) << "seed " << g.seed << " hash 0x" << std::hex << hash;
    EXPECT_EQ(fired, g.fired) << "seed " << g.seed;
  }
}

TEST(EventHashGolden, FullStackSchedules) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
    uint64_t fired;
    uint64_t commits;
  };
  // Mid-size DST schedules (crashes/partitions/asynchrony included); values
  // pinned from the pre-fast-path engine at the PR base commit.
  const Golden kGolden[] = {
      {11, 0x4bd8b782bd02b6a0ull, 11867, 215},
      {29, 0x08c56da43d040bc2ull, 4274, 73},
  };
  for (const Golden& g : kGolden) {
    CheckResult result = RunSchedule(GenerateSchedule(g.seed));
    EXPECT_TRUE(result.ok()) << "seed " << g.seed;
    EXPECT_EQ(result.event_hash, g.hash)
        << "seed " << g.seed << " hash 0x" << std::hex << result.event_hash;
    EXPECT_EQ(result.events_fired, g.fired) << "seed " << g.seed << " fired " << result.events_fired;
    EXPECT_EQ(result.commits, g.commits) << "seed " << g.seed << " commits " << result.commits;
  }
}

TEST(EventHashGolden, BullsharkRestartSchedules) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
    uint64_t fired;
    uint64_t commits;
  };
  // Bullshark-pinned DST schedules whose fault scripts include a
  // crash-restart (seed 5: n=4 with a partition and two asynchrony windows;
  // seed 18: n=7 with a permanent crash and two partitions), so the
  // committer's WAL, Recover and rejoin paths are frozen too.
  const Golden kGolden[] = {
      {5, 0x0c312227a32b490aull, 2468, 159},
      {18, 0x471ea3b55a5f7670ull, 5940, 241},
  };
  for (const Golden& g : kGolden) {
    FaultSchedule schedule = GenerateSchedule(g.seed, SystemKind::kBullshark);
    bool restarts = false;
    for (const FaultSchedule::Crash& c : schedule.crashes) {
      restarts = restarts || c.recovers();
    }
    ASSERT_TRUE(restarts) << "seed " << g.seed << " no longer draws a crash-restart";
    CheckResult result = RunSchedule(schedule);
    EXPECT_TRUE(result.ok()) << "seed " << g.seed;
    EXPECT_EQ(result.event_hash, g.hash)
        << "seed " << g.seed << " hash 0x" << std::hex << result.event_hash;
    EXPECT_EQ(result.events_fired, g.fired) << "seed " << g.seed << " fired " << result.events_fired;
    EXPECT_EQ(result.commits, g.commits) << "seed " << g.seed << " commits " << result.commits;
  }
}

TEST(EventHashGolden, NarwhalHsRestartSchedules) {
  struct Golden {
    uint64_t seed;
    uint64_t hash;
    uint64_t fired;
    uint64_t commits;
  };
  // Drawn schedules that land on Narwhal-HS with a crash-restart (seed 13:
  // n=4, one restart; seed 16: n=10, two restarts), so the HotStuff-ordered
  // commit log's WAL, Recover and rejoin paths are frozen too.
  const Golden kGolden[] = {
      {13, 0x78e64413bece64ccull, 7067, 381},
      {16, 0xdbb056d64795e124ull, 14599, 272},
  };
  for (const Golden& g : kGolden) {
    FaultSchedule schedule = GenerateSchedule(g.seed);
    ASSERT_EQ(schedule.system, SystemKind::kNarwhalHs) << "seed " << g.seed;
    bool restarts = false;
    for (const FaultSchedule::Crash& c : schedule.crashes) {
      restarts = restarts || c.recovers();
    }
    ASSERT_TRUE(restarts) << "seed " << g.seed << " no longer draws a crash-restart";
    CheckResult result = RunSchedule(schedule);
    EXPECT_TRUE(result.ok()) << "seed " << g.seed;
    EXPECT_EQ(result.event_hash, g.hash)
        << "seed " << g.seed << " hash 0x" << std::hex << result.event_hash;
    EXPECT_EQ(result.events_fired, g.fired) << "seed " << g.seed << " fired " << result.events_fired;
    EXPECT_EQ(result.commits, g.commits) << "seed " << g.seed << " commits " << result.commits;
  }
}

}  // namespace
}  // namespace nt
