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
//     must be consciously re-pinned in the same PR that changed behaviour;
//   - client re-submission runs (§8.4) past a crashed entry validator — they
//     fail if the load generators change which transactions they resubmit
//     or abandon, when, to whom, or in what order.
//
// If this test breaks and you did NOT intend to change event ordering or
// protocol logic, you introduced nondeterminism or an accidental reorder.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/common/rng.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/shard/workload.h"
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

struct ClientRun {
  uint64_t hash = 0;
  uint64_t fired = 0;
  uint64_t resubmitted = 0;
  uint64_t abandoned = 0;
};

// Tusk n=4 with validator 1 crashed from t=0 and one client per validator:
// 1000 tx/s each for 10 s, every 5th transaction tracked, a 2 s re-submission
// timeout with failover and at most 2 re-submissions. Two tracked
// transactions enter each tick per client, so several fall due on the same
// tick. Transfer mode submits encoded transfers over 2 execution lanes.
ClientRun RunClientResubmits(uint64_t seed, bool transfer) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = seed;
  TransferWorkloadConfig workload_config;
  workload_config.num_shards = 2;
  TransferWorkload workload(workload_config);
  if (transfer) {
    config.exec_lanes = workload_config.num_shards;
  }
  Cluster cluster(config);
  cluster.CrashValidator(1, 0);
  cluster.metrics().set_observer(0);

  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < config.num_validators; ++v) {
    LoadGenerator::Options options;
    options.rate_tps = 1000;
    options.sample_rate = 5;
    options.stop_at = Seconds(10);
    options.resubmit_timeout = Seconds(2);
    options.failover = true;
    options.max_resubmits = 2;
    options.transfer = transfer ? &workload : nullptr;
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
  }
  if (transfer) {
    std::vector<Bytes> mints = workload.InitialMints();
    Cluster* c = &cluster;
    cluster.scheduler().ScheduleAt(Millis(1), [c, mints] { c->worker(0, 0)->SubmitBlock(mints); });
  }
  cluster.Start();
  for (auto& client : clients) {
    client->Start();
  }
  cluster.StartExecutorPump(Seconds(15));
  cluster.scheduler().RunUntil(Seconds(15));

  ClientRun run;
  run.hash = cluster.scheduler().event_hash();
  run.fired = cluster.scheduler().events_fired();
  for (const auto& client : clients) {
    run.resubmitted += client->resubmitted_txs();
    run.abandoned += client->abandoned_txs();
  }
  EXPECT_EQ(run.abandoned, cluster.metrics().abandoned_txs());
  return run;
}

TEST(EventHashGolden, ClientResubmitSchedules) {
  struct Golden {
    uint64_t seed;
    bool transfer;
    uint64_t hash;
    uint64_t fired;
    uint64_t resubmitted;
    uint64_t abandoned;
  };
  // Pinned from the load generator that walked every tracked transaction
  // on every tick; the due-ordered queue must reproduce them bit-for-bit.
  const Golden kGolden[] = {
      {3, false, 0xbdc675f4081b8d53ull, 8010, 7112, 1132},
      {4, true, 0x09b00a27489d3b21ull, 8046, 7508, 1352},
  };
  for (const Golden& g : kGolden) {
    ClientRun run = RunClientResubmits(g.seed, g.transfer);
    EXPECT_EQ(run.hash, g.hash) << "seed " << g.seed << " hash 0x" << std::hex << run.hash;
    EXPECT_EQ(run.fired, g.fired) << "seed " << g.seed << " fired " << run.fired;
    EXPECT_EQ(run.resubmitted, g.resubmitted)
        << "seed " << g.seed << " resubmitted " << run.resubmitted;
    EXPECT_EQ(run.abandoned, g.abandoned) << "seed " << g.seed << " abandoned " << run.abandoned;
  }
}

struct AssemblyRun {
  uint64_t hash = 0;
  uint64_t fired = 0;
  uint64_t commits = 0;
  uint64_t topology = 0;
};

// FNV-1a over the cluster's layout: primary_of, worker_of, every role_of
// entry and the machine of every network node.
uint64_t TopologyDigest(Cluster& cluster) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  const Topology& topology = cluster.topology();
  for (uint32_t id : topology.primary_of) {
    fold(id);
  }
  for (const std::vector<uint32_t>& workers : topology.worker_of) {
    for (uint32_t id : workers) {
      fold(id);
    }
  }
  for (const auto& [id, role] : topology.role_of) {
    fold(id);
    fold(static_cast<uint64_t>(role.kind));
    fold(role.validator);
    fold(role.worker);
  }
  for (uint32_t id = 0; id < cluster.network().node_count(); ++id) {
    fold(cluster.network().machine_of(id));
  }
  return h;
}

// n=4 with two workers per validator on dedicated machines, tracing and
// gauge sampling on and, on Narwhal-based systems, two execution lanes fed
// by transfer clients. Validator 3 restarts from 2 s to 4 s (a permanent
// crash on the HotStuff-mempool baselines, which cannot restart).
AssemblyRun RunAssembly(SystemKind system) {
  ClusterConfig config;
  config.system = system;
  config.num_validators = 4;
  config.workers_per_validator = 2;
  config.collocate = false;
  config.seed = 7;
  config.trace = true;
  const bool narwhal_based = system != SystemKind::kBaselineHs && system != SystemKind::kBatchedHs;
  TransferWorkloadConfig workload_config;
  workload_config.num_shards = 2;
  TransferWorkload workload(workload_config);
  if (narwhal_based) {
    config.exec_lanes = workload_config.num_shards;
  }
  Cluster cluster(config);
  cluster.metrics().set_observer(0);
  cluster.RestartValidator(3, Seconds(2), Seconds(4));

  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < config.num_validators; ++v) {
    LoadGenerator::Options options;
    options.rate_tps = 500;
    options.sample_rate = 5;
    options.stop_at = Seconds(6);
    options.transfer = narwhal_based ? &workload : nullptr;
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
  }
  if (narwhal_based) {
    std::vector<Bytes> mints = workload.InitialMints();
    Cluster* c = &cluster;
    cluster.scheduler().ScheduleAt(Millis(1), [c, mints] { c->worker(0, 0)->SubmitBlock(mints); });
  }
  cluster.Start();
  for (auto& client : clients) {
    client->Start();
  }
  cluster.StartGaugeSampling(Seconds(8));
  cluster.StartExecutorPump(Seconds(8));
  cluster.scheduler().RunUntil(Seconds(8));

  AssemblyRun run;
  run.hash = cluster.scheduler().event_hash();
  run.fired = cluster.scheduler().events_fired();
  run.commits = cluster.metrics().committed_txs();
  run.topology = TopologyDigest(cluster);
  return run;
}

TEST(EventHashGolden, EverySystemAssemblesAndRebuildsAlike) {
  struct Golden {
    SystemKind system;
    uint64_t hash;
    uint64_t fired;
    uint64_t commits;
    uint64_t topology;
  };
  // Pins each system's assembly (node kinds, net ids, machines, hooks) and
  // its rebuild after a restart, tracing and execution lanes included.
  const Golden kGolden[] = {
      {SystemKind::kBaselineHs, 0x2bc87a8ba7325c6eull, 4563, 5992, 0x7d6b4aae02651841ull},
      {SystemKind::kBatchedHs, 0x120c6406b3fc0c60ull, 3564, 8150, 0x7d6b4aae02651841ull},
      {SystemKind::kNarwhalHs, 0x098e44bbaf6a2671ull, 6270, 10363, 0xadf5701654b908edull},
      {SystemKind::kTusk, 0xfb62b4bb9600142aull, 5945, 9578, 0xb45bbc42b1ec1ff5ull},
      {SystemKind::kDagRider, 0xfb62b4bb9600142aull, 5945, 9578, 0xb45bbc42b1ec1ff5ull},
      {SystemKind::kBullshark, 0xfb62b4bb9600142aull, 5945, 10413, 0xb45bbc42b1ec1ff5ull},
  };
  for (const Golden& g : kGolden) {
    AssemblyRun run = RunAssembly(g.system);
    const char* name = SystemName(g.system);
    EXPECT_EQ(run.hash, g.hash) << name << " hash 0x" << std::hex << run.hash;
    EXPECT_EQ(run.fired, g.fired) << name << " fired " << run.fired;
    EXPECT_EQ(run.commits, g.commits) << name << " commits " << run.commits;
    EXPECT_EQ(run.topology, g.topology) << name << " topology 0x" << std::hex << run.topology;
  }
}

}  // namespace
}  // namespace nt
