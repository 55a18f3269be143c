// Focused behaviors of the Narwhal primary/worker machinery on live
// clusters: round pacing, batch quorum acknowledgment, header validity
// gating on batch availability, re-injection after GC, and scale-out wiring.
#include <gtest/gtest.h>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

ClusterConfig BaseConfig(uint64_t seed, uint32_t n = 4) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = n;
  config.seed = seed;
  return config;
}

TEST(NarwhalCoreTest, DagAdvancesWithoutLoad) {
  // The threshold clock keeps ticking on empty headers (max_header_delay).
  Cluster cluster(BaseConfig(1));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_GT(cluster.primary(v)->round(), 10u) << "validator " << v;
    EXPECT_GT(cluster.primary(v)->certs_formed(), 10u);
  }
}

TEST(NarwhalCoreTest, RoundRateLimitedByHeaderDelay) {
  // Rounds advance no faster than the WAN RTT allows and no slower than
  // max_header_delay + RTT; 10 seconds of idle run lands in between.
  ClusterConfig config = BaseConfig(2);
  config.narwhal.max_header_delay = Millis(500);
  Cluster cluster(config);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  Round r = cluster.primary(0)->round();
  EXPECT_GE(r, 8u);    // At least ~1 round per (500ms + RTT).
  EXPECT_LE(r, 25u);   // But paced by the delay, not free-running.
}

TEST(NarwhalCoreTest, WorkerSealsBySizeAndTimer) {
  ClusterConfig config = BaseConfig(3);
  config.narwhal.batch_size_bytes = 10 * 1024;
  config.narwhal.max_batch_delay = Millis(50);
  Cluster cluster(config);
  cluster.Start();

  // Size-triggered seal: 30KB submitted at once -> >= 2 batches quickly.
  Worker* worker = cluster.worker(0, 0);
  for (int i = 0; i < 30; ++i) {
    worker->SubmitTransaction(1024, std::nullopt);
  }
  cluster.scheduler().RunUntil(Millis(10));
  EXPECT_GE(worker->batches_sealed(), 3u);

  // Timer-triggered seal: a lone small transaction still ships.
  uint64_t before = worker->batches_sealed();
  worker->SubmitTransaction(100, std::nullopt);
  cluster.scheduler().RunUntil(Millis(10) + Millis(49));
  EXPECT_EQ(worker->batches_sealed(), before);  // Not yet.
  cluster.scheduler().RunUntil(Millis(10) + Millis(70));
  EXPECT_EQ(worker->batches_sealed(), before + 1);
}

TEST(NarwhalCoreTest, BatchesReachQuorumAndPrimary) {
  Cluster cluster(BaseConfig(4));
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  worker->SubmitBlock({{1, 2, 3}});
  cluster.scheduler().RunUntil(Seconds(2));
  EXPECT_EQ(worker->batches_acked(), 1u);  // 2f+1 storage acks collected.
  // The batch digest made it into some certified header.
  EXPECT_TRUE(cluster.MempoolOf(0).IsWriteCertified(
      cluster.MempoolOf(0).Write({{9}})) == false);  // Fresh write: not yet.
}

TEST(NarwhalCoreTest, AllValidatorsStoreDisseminatedBatches) {
  Cluster cluster(BaseConfig(5));
  cluster.Start();
  Digest d = cluster.worker(2, 0)->SubmitBlock({{42}});
  cluster.scheduler().RunUntil(Seconds(2));
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_NE(cluster.worker(v, 0)->GetBatch(d), nullptr) << "validator " << v;
  }
}

TEST(NarwhalCoreTest, ReinjectionAfterGcForUncommittedBatches) {
  // A validator isolated long enough for its headers to fall behind the GC
  // horizon re-injects their batches (paper §3.3 censorship argument).
  ClusterConfig config = BaseConfig(6);
  config.narwhal.gc_depth = 5;
  Cluster cluster(config);
  cluster.Start();
  // Submit to validator 3 then cut it off before its header certifies.
  cluster.scheduler().RunUntil(Millis(100));
  cluster.worker(3, 0)->SubmitBlock({{7, 7, 7}});
  cluster.IsolateValidator(3, Millis(150), Seconds(20));
  cluster.scheduler().RunUntil(Seconds(40));

  // The isolated validator eventually rejoined; its batch was either
  // committed late or re-injected for a later round.
  Primary* p3 = cluster.primary(3);
  EXPECT_GT(p3->round(), 10u);  // It caught back up.
  // GC advanced cluster-wide.
  EXPECT_GT(cluster.primary(0)->dag().gc_round(), 0u);
}

TEST(NarwhalCoreTest, ScaleOutTopologyWiring) {
  ClusterConfig config = BaseConfig(7);
  config.workers_per_validator = 3;
  config.collocate = false;
  Cluster cluster(config);
  cluster.Start();
  // Distinct machines per worker when not collocated.
  const Topology& topo = cluster.topology();
  std::set<uint32_t> machines;
  for (uint32_t id : topo.worker_of[0]) {
    machines.insert(cluster.network().machine_of(id));
  }
  machines.insert(cluster.network().machine_of(topo.primary_of[0]));
  EXPECT_EQ(machines.size(), 4u);  // Primary + 3 workers.

  // Batches from different workers are all certified into headers.
  for (WorkerId w = 0; w < 3; ++w) {
    cluster.worker(1, w)->SubmitBlock({{static_cast<uint8_t>(w)}});
  }
  cluster.scheduler().RunUntil(Seconds(3));
  uint64_t included = 0;
  const Dag& dag = cluster.primary(1)->dag();
  for (Round round = dag.gc_round(); round <= dag.HighestRound(); ++round) {
    if (const Certificate* own = dag.GetCert(round, 1)) {
      included += dag.GetHeader(own->header_digest)->batches.size();
    }
  }
  EXPECT_GE(included, 3u);
}

TEST(NarwhalCoreTest, CollocatedWorkersShareMachine) {
  ClusterConfig config = BaseConfig(8);
  config.workers_per_validator = 2;
  config.collocate = true;
  Cluster cluster(config);
  const Topology& topo = cluster.topology();
  EXPECT_EQ(cluster.network().machine_of(topo.worker_of[0][0]),
            cluster.network().machine_of(topo.primary_of[0]));
  EXPECT_EQ(cluster.network().machine_of(topo.worker_of[0][1]),
            cluster.network().machine_of(topo.primary_of[0]));
}

TEST(NarwhalCoreTest, PrimariesOnlyVoteOncePerAuthorRound) {
  // Drive a normal run and confirm no equivocating certificates ever form:
  // one certificate per (round, author) across the whole DAG.
  Cluster cluster(BaseConfig(9));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(8));
  const Dag& dag = cluster.primary(0)->dag();
  for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
    EXPECT_LE(dag.CertsAt(r).size(), 4u);
  }
  EXPECT_GT(cluster.primary(0)->votes_cast(), 10u);
}

TEST(NarwhalCoreTest, CrashedValidatorExcludedButDagProceeds) {
  Cluster cluster(BaseConfig(10));
  cluster.CrashValidator(3, Seconds(2));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(12));
  const Dag& dag = cluster.primary(0)->dag();
  Round top = dag.HighestRound();
  EXPECT_GT(top, 15u);  // 3 validators = exactly 2f+1: rounds keep advancing.
  // Validator 3 contributes no certificates after its crash round.
  bool late_cert_from_crashed = false;
  for (Round r = top - 5; r <= top; ++r) {
    if (dag.CertsAt(r).count(3) != 0) {
      late_cert_from_crashed = true;
    }
  }
  EXPECT_FALSE(late_cert_from_crashed);
}

}  // namespace
}  // namespace nt
