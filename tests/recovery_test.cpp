// Crash–restart recovery (the paper's §6 claim that a Narwhal validator
// rejoins from its write-ahead state): a restarted validator is rebuilt from
// its durable stores, re-derives its round and vote ledger, pulls the DAG
// suffix it missed, and rejoins consensus — without equivocating on any
// round it signed before the crash and without re-delivering any commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/shard/workload.h"

namespace nt {
namespace {

constexpr ValidatorId kVictim = 1;
constexpr TimePoint kCrashAt = Seconds(2);
constexpr TimePoint kRecoverAt = Seconds(5);
constexpr TimePoint kRunEnd = Seconds(15);

struct RecoveryRun {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  // Per-validator committed digest sequence (checker-side state; survives
  // the victim's rebuild because the harness owns it).
  std::vector<std::vector<Digest>> commits;
  std::vector<TimePoint> last_commit;
  // (round, author) -> distinct header digests stored anywhere.
  std::map<std::pair<Round, ValidatorId>, std::set<Digest>> authored;
  uint64_t rebuilt_calls = 0;
};

RecoveryRun RunWithRestart(SystemKind system, uint64_t seed) {
  RecoveryRun run;
  ClusterConfig config;
  config.system = system;
  config.num_validators = 4;
  config.seed = seed;
  run.cluster = std::make_unique<Cluster>(config);
  Cluster& cluster = *run.cluster;
  run.commits.resize(4);
  run.last_commit.resize(4, -1);

  // Hook wiring is re-callable: a rebuilt validator's objects are new, so
  // the cluster re-invokes this through set_on_validator_rebuilt.
  auto wire = [&run, &cluster](ValidatorId v) {
    if (cluster.primary(v) != nullptr) {
      cluster.primary(v)->add_on_header_stored([&run, &cluster, v](const Digest& digest) {
        if (auto header = cluster.primary(v)->dag().GetHeader(digest)) {
          run.authored[{header->round, header->author}].insert(digest);
        }
      });
    }
    if (CommitLog* log = cluster.commit_log(v)) {
      log->add_on_commit([&run, &cluster, v](const CommitLog::Committed& c) {
        run.commits[v].push_back(c.digest);
        run.last_commit[v] = cluster.scheduler().now();
      });
    }
  };
  for (ValidatorId v = 0; v < 4; ++v) {
    wire(v);
  }
  cluster.set_on_validator_rebuilt([&run, wire](ValidatorId v) {
    ++run.rebuilt_calls;
    wire(v);
  });

  cluster.RestartValidator(kVictim, kCrashAt, kRecoverAt);

  LoadGenerator::Options options;
  options.rate_tps = 400;
  options.stop_at = kRunEnd;
  for (ValidatorId v = 0; v < 4; ++v) {
    run.clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    run.clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(kRunEnd);
  return run;
}

void ExpectCleanRejoin(const RecoveryRun& run) {
  const Cluster& cluster = *run.cluster;
  // The rebuild happened, exactly once, and replayed real state.
  EXPECT_EQ(run.rebuilt_calls, 1u);
  ASSERT_EQ(cluster.recovery_stats().size(), 1u);
  const Cluster::RecoveryStats& stats = cluster.recovery_stats()[0];
  EXPECT_EQ(stats.validator, kVictim);
  EXPECT_EQ(stats.recovered_at, kRecoverAt);
  EXPECT_GT(stats.records_replayed, 0u);
  EXPECT_GT(stats.resume_round, 0u);

  // The victim rejoined: it commits again well after recovery.
  EXPECT_GT(run.last_commit[kVictim], kRecoverAt + Seconds(2));

  // Exactly-once delivery across the crash: no digest committed twice.
  std::set<Digest> seen;
  for (const Digest& d : run.commits[kVictim]) {
    EXPECT_TRUE(seen.insert(d).second) << "victim re-delivered a commit after restart";
  }

  // Post-recovery commits extend the pre-crash prefix: the victim's full
  // sequence is a prefix of (or extends) every peer's sequence.
  for (ValidatorId v = 0; v < 4; ++v) {
    size_t common = std::min(run.commits[kVictim].size(), run.commits[v].size());
    for (size_t i = 0; i < common; ++i) {
      ASSERT_EQ(run.commits[kVictim][i], run.commits[v][i])
          << "victim diverges from validator " << v << " at commit #" << i;
    }
  }

  // No equivocation through amnesia: at most one header digest per round
  // authored by the restarted validator, across every peer's view.
  for (const auto& [key, digests] : run.authored) {
    if (key.second == kVictim) {
      EXPECT_LE(digests.size(), 1u)
          << "victim authored " << digests.size() << " headers for round " << key.first;
    }
  }
}

TEST(RecoveryTest, TuskValidatorRestartsAndRejoins) {
  RecoveryRun run = RunWithRestart(SystemKind::kTusk, 7);
  ExpectCleanRejoin(run);
  // Sanity: the healthy committee committed substantially.
  EXPECT_GT(run.commits[0].size(), 20u);
}

TEST(RecoveryTest, BullsharkValidatorRestartsAndRejoins) {
  // The victim goes down mid-anchor-chain; recovery must restore the
  // committed-wave cursor from the 'U' meta record so resumed delivery
  // extends — never re-plays or skips — the pre-crash anchor chain.
  RecoveryRun run = RunWithRestart(SystemKind::kBullshark, 7);
  ExpectCleanRejoin(run);
  EXPECT_GT(run.commits[0].size(), 20u);
}

TEST(RecoveryTest, NarwhalHsValidatorRestartsAndRejoins) {
  RecoveryRun run = RunWithRestart(SystemKind::kNarwhalHs, 8);
  ExpectCleanRejoin(run);
  EXPECT_GT(run.commits[0].size(), 10u);
}

// The HotStuff core keeps only its commit frontier (the 'K' record: tip,
// view, count), not one record per committed block. A validator restarted
// after more than 2 * gc_depth commits must still deliver every block and
// every header exactly once, in order — even when it fetches blocks below
// its recovered frontier, as an in-flight proposal that forks below the tip
// makes it do. The test hands it the whole pre-crash chain that way.
TEST(RecoveryTest, NarwhalHsRestartAfterALongRunDeliversNoBlockTwice) {
  constexpr TimePoint kLongCrashAt = Seconds(30);
  constexpr TimePoint kLongRecoverAt = Seconds(33);
  constexpr TimePoint kLongRunEnd = Seconds(45);
  ClusterConfig config;
  config.system = SystemKind::kNarwhalHs;
  config.num_validators = 4;
  config.seed = 8;
  Cluster cluster(config);
  // The victim's delivered HotStuff blocks (view, digest) and headers, across
  // the rebuild.
  std::vector<std::pair<View, Digest>> blocks;
  std::vector<Digest> headers;
  size_t blocks_before_crash = 0;
  auto wire = [&](ValidatorId v) {
    cluster.hotstuff(v)->set_on_commit([&](const HsBlock& block, View view) {
      blocks.emplace_back(view, block.ComputeDigest());
    });
    cluster.commit_log(v)->add_on_commit(
        [&](const CommitLog::Committed& c) { headers.push_back(c.digest); });
  };
  wire(kVictim);
  cluster.set_on_validator_rebuilt([&](ValidatorId v) {
    blocks_before_crash = blocks.size();
    wire(v);
  });
  cluster.RestartValidator(kVictim, kLongCrashAt, kLongRecoverAt);
  // A peer's chain up to the crash, oldest first.
  std::vector<std::pair<std::shared_ptr<const HsBlock>, Digest>> chain;
  cluster.hotstuff(0)->set_on_commit([&](const HsBlock& block, View) {
    if (cluster.scheduler().now() < kLongCrashAt) {
      chain.emplace_back(std::make_shared<const HsBlock>(block), block.ComputeDigest());
    }
  });
  cluster.scheduler().ScheduleAt(kLongRecoverAt + Millis(1), [&] {
    for (const auto& [block, digest] : chain) {
      cluster.hotstuff(kVictim)->OnMessage(0, std::make_shared<MsgHsBlockResponse>(block, digest));
    }
  });

  LoadGenerator::Options options;
  options.rate_tps = 400;
  options.stop_at = kLongRunEnd;
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(kLongRunEnd);

  ASSERT_EQ(cluster.recovery_stats().size(), 1u);
  ASSERT_GE(blocks_before_crash, 2 * config.narwhal.gc_depth)
      << "the crash must come after 2 * gc_depth commits";
  ASSERT_GE(chain.size(), blocks_before_crash);
  EXPECT_GT(blocks.size(), blocks_before_crash) << "no commit after the restart";
  // The recovered commit count continues the pre-crash one.
  EXPECT_EQ(cluster.hotstuff(kVictim)->committed_blocks(), blocks.size());
  // Views strictly increase along the committed chain: no block twice, none
  // out of order.
  for (size_t i = 1; i < blocks.size(); ++i) {
    ASSERT_LT(blocks[i - 1].first, blocks[i].first) << "block #" << i << " delivered out of order";
  }
  std::set<Digest> seen;
  for (const Digest& d : headers) {
    EXPECT_TRUE(seen.insert(d).second) << "victim re-delivered a header after restart";
  }
}

TEST(RecoveryTest, RestartIsDeterministic) {
  RecoveryRun a = RunWithRestart(SystemKind::kTusk, 11);
  RecoveryRun b = RunWithRestart(SystemKind::kTusk, 11);
  EXPECT_EQ(a.cluster->scheduler().event_hash(), b.cluster->scheduler().event_hash());
  EXPECT_EQ(a.commits[kVictim], b.commits[kVictim]);
}

TEST(RecoveryTest, DagRiderValidatorRestartsAndRejoins) {
  // DAG-Rider shares Tusk's committer machinery (DagCommitter), WAL and
  // Recover path included, so it restarts like the other Narwhal systems —
  // without ever advancing the GC round (its rule retains all history).
  RecoveryRun run = RunWithRestart(SystemKind::kDagRider, 9);
  ExpectCleanRejoin(run);
  EXPECT_GT(run.commits[0].size(), 10u);
  EXPECT_EQ(run.cluster->primary(kVictim)->dag().gc_round(), 0u);
}

// Every WAL tag stays within the prune rule its record type declares, on
// every Narwhal-based system at n=10 and 50k tx/s: validator 0's primary and
// consensus stores are counted per tag after 20 s and 40 s. Worker batches
// are the simulated disk's payload, not WAL records, and are not counted.
struct TagCounts {
  std::map<uint8_t, size_t> primary;
  std::map<uint8_t, size_t> consensus;
  Round round = 0;
  Round gc_round = 0;
};

std::map<uint8_t, size_t> CountTags(const Store& store) {
  std::map<uint8_t, size_t> counts;
  store.ForEach([&counts](const Digest&, const SharedBytes& value) {
    ASSERT_FALSE(value->empty());
    ++counts[(*value)[0]];
  });
  return counts;
}

TagCounts SnapshotTags(Cluster& cluster) {
  return {CountTags(*cluster.primary_store(0)), CountTags(*cluster.consensus_store(0)),
          cluster.primary(0)->round(), cluster.primary(0)->dag().gc_round()};
}

// Checks one store's per-tag counts against its record list: a latest-only
// tag holds exactly one record if `written(tag)` and none otherwise, a
// GC-horizon tag holds at least one and at most `horizon_bound`, and no tag
// outside the list is stored.
template <typename Records, typename Written>
void ExpectWithinPruneRules(const std::map<uint8_t, size_t>& counts, size_t horizon_bound,
                            Written written) {
  size_t listed = 0;
  Records::ForEachType([&]<typename R>() {
    auto it = counts.find(R::kTag);
    const size_t count = it == counts.end() ? 0 : it->second;
    listed += count;
    SCOPED_TRACE(std::string("tag '") + static_cast<char>(R::kTag) + "'");
    if constexpr (R::kPrune == Prune::kLatestOnly) {
      EXPECT_EQ(count, written(R::kTag) ? 1u : 0u);
    } else {
      EXPECT_GT(count, 0u);
      EXPECT_LE(count, horizon_bound);
    }
  });
  size_t total = 0;
  for (const auto& [tag, count] : counts) {
    total += count;
  }
  EXPECT_EQ(listed, total) << "a stored tag is missing from the store's record list";
}

TEST(RecoveryTest, EveryWalTagStaysWithinItsPruneRule) {
  constexpr uint32_t kNodes = 10;
  std::set<uint8_t> hotstuff_tags;
  HotStuffRecords::ForEachType([&]<typename R>() { hotstuff_tags.insert(R::kTag); });
  for (SystemKind system : {SystemKind::kTusk, SystemKind::kBullshark, SystemKind::kDagRider,
                            SystemKind::kNarwhalHs}) {
    SCOPED_TRACE(SystemName(system));
    ClusterConfig config;
    config.system = system;
    config.num_validators = kNodes;
    config.seed = 1;
    // The default depth of 50 rounds first moves the horizon at about 20 s
    // here; a shorter window puts both snapshots in steady state.
    config.narwhal.gc_depth = 20;
    Cluster cluster(config);
    std::vector<std::unique_ptr<LoadGenerator>> clients;
    LoadGenerator::Options options;
    options.rate_tps = 5000;  // 50k tx/s in total.
    for (ValidatorId v = 0; v < kNodes; ++v) {
      clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
      clients.back()->Start();
    }
    cluster.Start();

    // The GC window (round - gc_round) jitters by a wave as anchors commit;
    // the 20 s bound is the widest window seen by then.
    Round widest = 0;
    for (TimePoint t = Millis(250); t <= Seconds(20); t += Millis(250)) {
      cluster.scheduler().RunUntil(t);
      widest = std::max(widest, cluster.primary(0)->round() - cluster.primary(0)->dag().gc_round());
    }
    const TagCounts early = SnapshotTags(cluster);
    cluster.scheduler().RunUntil(Seconds(40));
    const TagCounts late = SnapshotTags(cluster);

    // DAG-Rider's rule retains all history: its horizon never advances, so
    // its per-vertex tags grow with the DAG, as its memory does.
    const bool collects = system != SystemKind::kDagRider;
    ASSERT_EQ(early.gc_round > 0, collects) << "gc round " << early.gc_round;
    // The consensus store holds the HotStuff ledger or the committer's meta
    // record, never both.
    const bool hotstuff = system == SystemKind::kNarwhalHs;
    auto consensus_written = [&](uint8_t tag) {
      return hotstuff == (hotstuff_tags.count(tag) != 0);
    };
    auto primary_written = [&](uint8_t) { return collects; };  // 'M', once GC starts.

    for (const TagCounts* snap : {&early, &late}) {
      SCOPED_TRACE(snap == &early ? "20 s" : "40 s");
      const size_t bound = (snap->round - snap->gc_round + 2) * kNodes;
      ExpectWithinPruneRules<PrimaryStoreRecords>(snap->primary, bound, primary_written);
      ExpectWithinPruneRules<ConsensusStoreRecords>(snap->consensus, bound, consensus_written);
    }
    if (collects) {
      // Bounded, not growing with the run: the 40 s stores are within the
      // 20 s bound.
      SCOPED_TRACE("40 s against the 20 s bound");
      const size_t bound = (widest + 2) * kNodes;
      ExpectWithinPruneRules<PrimaryStoreRecords>(late.primary, bound, primary_written);
      ExpectWithinPruneRules<ConsensusStoreRecords>(late.consensus, bound, consensus_written);
    }
  }
}

TEST(RecoveryTest, UnsupportedSystemDegradesToPermanentCrash) {
  RecoveryRun run = RunWithRestart(SystemKind::kBatchedHs, 9);
  // Batched-HS keeps no durable state to rebuild from: the restart degrades
  // to a permanent crash (logged), the validator never comes back, and
  // nothing is rebuilt.
  EXPECT_FALSE(run.cluster->SupportsRestart());
  EXPECT_EQ(run.rebuilt_calls, 0u);
  EXPECT_TRUE(run.cluster->recovery_stats().empty());
  EXPECT_TRUE(run.cluster->IsValidatorCrashed(kVictim));
  // The remaining 3-of-4 committee stays live (the harness hooks only
  // commit logs, which Batched-HS has none of, so assert on HotStuff
  // progress).
  EXPECT_GT(run.cluster->hotstuff(0)->committed_blocks(), 10u);
}

// Sum of every live HotStuff node's cert-cache lookups.
uint64_t LiveCacheLookups(Cluster& cluster) {
  uint64_t lookups = 0;
  for (ValidatorId v = 0; v < cluster.config().num_validators; ++v) {
    const VerifiedCertCache::Stats& stats = cluster.hotstuff(v)->cert_cache().stats();
    lookups += stats.hits + stats.misses;
  }
  return lookups;
}

// A restarted validator is wired like a fresh one: with tracing and two
// execution lanes on, its surviving executor keeps executing in step with
// validator 0, Metrics keeps counting its commits, and on Narwhal-HS the
// new HotStuff node's cache is the one Metrics reads.
void ExpectRebuiltValidatorWired(SystemKind system) {
  SCOPED_TRACE(SystemName(system));
  ClusterConfig config;
  config.system = system;
  config.num_validators = 4;
  config.seed = 5;
  config.trace = true;
  TransferWorkloadConfig workload_config;
  workload_config.num_shards = 2;
  TransferWorkload workload(workload_config);
  config.exec_lanes = workload_config.num_shards;
  Cluster cluster(config);
  cluster.metrics().set_observer(kVictim);
  ShardedExecutor* victim_executor = cluster.sharded_executor(kVictim);

  // Lane digests after each executed height, per validator, sampled after
  // the cluster's own executor hook ran (hooks fire in registration order).
  std::vector<std::map<uint64_t, std::vector<Digest>>> lanes(2);
  auto wire = [&](ValidatorId v) {
    if (v != 0 && v != kVictim) {
      return;
    }
    ShardedExecutor* executor = cluster.sharded_executor(v);
    auto& at_height = lanes[v == 0 ? 0 : 1];
    cluster.commit_log(v)->add_on_commit([executor, &at_height](const CommitLog::Committed&) {
      at_height[executor->executed_headers()] = executor->LaneDigests();
    });
  };
  wire(0);
  wire(kVictim);
  uint64_t executed_at_rebuild = 0;
  uint64_t committed_at_rebuild = 0;
  uint64_t retired_lookups = 0;
  cluster.set_on_validator_rebuilt([&](ValidatorId v) {
    executed_at_rebuild = cluster.sharded_executor(v)->executed_headers();
    committed_at_rebuild = cluster.metrics().committed_txs();
    if (system == SystemKind::kNarwhalHs) {
      // The dead node's cache was folded into the retired totals.
      retired_lookups = cluster.metrics().cert_cache_hits() +
                        cluster.metrics().cert_cache_misses() - LiveCacheLookups(cluster);
    }
    wire(v);
  });
  cluster.RestartValidator(kVictim, kCrashAt, kRecoverAt);

  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < 4; ++v) {
    LoadGenerator::Options options;
    options.rate_tps = 400;
    options.stop_at = kRunEnd;
    options.transfer = &workload;
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
  }
  std::vector<Bytes> mints = workload.InitialMints();
  cluster.scheduler().ScheduleAt(Millis(1),
                                 [&cluster, mints] { cluster.worker(0, 0)->SubmitBlock(mints); });
  cluster.Start();
  for (auto& client : clients) {
    client->Start();
  }
  cluster.StartGaugeSampling(kRunEnd);
  cluster.StartExecutorPump(kRunEnd);
  cluster.scheduler().RunUntil(kRunEnd);

  ASSERT_EQ(cluster.recovery_stats().size(), 1u);
  // The executor survived the rebuild and kept executing.
  EXPECT_EQ(cluster.sharded_executor(kVictim), victim_executor);
  EXPECT_GT(victim_executor->executed_headers(), executed_at_rebuild);
  // ... in step with validator 0 at every height both sampled.
  size_t compared_after_rebuild = 0;
  for (const auto& [height, digests] : lanes[1]) {
    auto it = lanes[0].find(height);
    if (it == lanes[0].end()) {
      continue;
    }
    EXPECT_EQ(digests, it->second) << "lanes diverge at executed height " << height;
    compared_after_rebuild += height > executed_at_rebuild ? 1 : 0;
  }
  EXPECT_GT(compared_after_rebuild, 0u);
  // Metrics still counts the rebuilt observer's commits.
  EXPECT_GT(cluster.metrics().committed_txs(), committed_at_rebuild);
  if (system == SystemKind::kNarwhalHs) {
    const VerifiedCertCache::Stats& fresh = cluster.hotstuff(kVictim)->cert_cache().stats();
    EXPECT_GT(fresh.hits + fresh.misses, 0u);
    EXPECT_EQ(cluster.metrics().cert_cache_hits() + cluster.metrics().cert_cache_misses(),
              retired_lookups + LiveCacheLookups(cluster));
  }
}

TEST(RecoveryTest, RebuiltValidatorIsWiredLikeAFreshOne) {
  for (SystemKind system : {SystemKind::kTusk, SystemKind::kBullshark, SystemKind::kDagRider,
                            SystemKind::kNarwhalHs}) {
    ExpectRebuiltValidatorWired(system);
  }
}

// Durability end-to-end: a cluster run with persistent worker stores leaves
// every disseminated batch recoverable from the on-disk WAL afterwards.
TEST(PersistenceClusterTest, WorkerBatchesSurviveOnDisk) {
  std::string dir = ::testing::TempDir() + "nt_persist_test";
  std::filesystem::create_directories(dir);
  Digest batch_digest{};
  {
    ClusterConfig config;
    config.system = SystemKind::kTusk;
    config.num_validators = 4;
    config.seed = 44;
    config.persist_dir = dir;
    Cluster cluster(config);
    cluster.Start();
    batch_digest = cluster.worker(1, 0)->SubmitBlock({{0xaa, 0xbb}});
    cluster.scheduler().RunUntil(Seconds(3));
    // Every validator's worker persisted the batch before acknowledging.
    for (ValidatorId v = 0; v < 4; ++v) {
      EXPECT_TRUE(cluster.worker(v, 0)->store().Contains(batch_digest)) << "validator " << v;
    }
  }
  // "Restart": reopen validator 2's WAL and recover the batch content.
  auto store = WalStore::Open(dir + "/worker_2_0.wal");
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->recovered_records(), 0u);
  auto bytes = store->Get(batch_digest);
  ASSERT_NE(bytes, nullptr);
  Reader r(*bytes);
  auto batch = Batch::Decode(r);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->ComputeDigest(), batch_digest);
  ASSERT_EQ(batch->txs().size(), 1u);
  EXPECT_TRUE(std::ranges::equal(batch->txs()[0], Bytes{0xaa, 0xbb}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nt
