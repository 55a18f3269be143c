// Payload providers (the three mempool modes) in isolation: pool drain
// semantics, batched sealing/proposing/committing, re-proposal after failed
// views, fetch-before-vote, and Narwhal certificate selection.
#include "src/hotstuff/payload.h"

#include <gtest/gtest.h>

#include <optional>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

TEST(SharedTxPoolTest, DrainRespectsAvailabilityAndBudget) {
  SharedTxPool pool;
  pool.Submit({10, 1000, {}, Millis(5)});
  pool.Submit({20, 2000, {{1, 0}}, Millis(5)});
  pool.Submit({30, 3000, {}, Millis(50)});  // Not yet gossiped.

  HsPayload payload;
  pool.Drain(Millis(10), /*max_bytes=*/10000, payload);
  EXPECT_EQ(payload.num_txs, 30u);  // First two chunks only (third unavailable).
  EXPECT_EQ(payload.payload_bytes, 3000u);
  EXPECT_EQ(payload.samples.size(), 1u);
  EXPECT_EQ(pool.pending_bytes(), 3000u);

  // Budget cap: a chunk that does not fit stays.
  HsPayload payload2;
  pool.Drain(Millis(100), /*max_bytes=*/2999, payload2);
  EXPECT_EQ(payload2.num_txs, 0u);
  pool.Drain(Millis(100), /*max_bytes=*/3000, payload2);
  EXPECT_EQ(payload2.num_txs, 30u);
  EXPECT_EQ(pool.pending_bytes(), 0u);
}

struct ProviderFixture : ::testing::Test {
  ProviderFixture() {
    network = std::make_unique<Network>(&scheduler, &latency, &faults, NetworkConfig{}, 1);
  }

  Scheduler scheduler;
  FixedLatencyModel latency{Millis(10)};
  FaultController faults;
  std::unique_ptr<Network> network;
  BatchDirectory directory;
};

struct SinkNode : NetNode {
  std::vector<MessagePtr> received;
  void OnMessage(uint32_t, const MessagePtr& msg) override { received.push_back(msg); }
};

TEST_F(ProviderFixture, BatchedProviderSealsAndProposes) {
  BatchedProvider provider(&scheduler, 0, /*batch_size=*/1000, Millis(100), /*max_digests=*/2,
                           &directory);
  SinkNode peer;
  uint32_t self = network->AddNode(&peer, 0, network->NewMachine());
  uint32_t other = network->AddNode(&peer, 0, network->NewMachine());
  provider.BindNetwork(network.get(), self, {other});

  provider.Submit(5, 1200, {});  // Over batch size: seals immediately.
  scheduler.RunUntilIdle();
  EXPECT_EQ(provider.available_batches(), 1u);
  EXPECT_EQ(peer.received.size(), 1u);  // Best-effort broadcast, one shot.

  // Seal two more; proposals carry at most max_digests, oldest first, and do
  // NOT consume them (timed-out views must be re-proposable).
  provider.Submit(5, 1200, {});
  scheduler.RunUntilIdle();
  provider.Submit(5, 1200, {});
  scheduler.RunUntilIdle();
  HsPayload p1 = provider.GetPayload(1);
  EXPECT_EQ(p1.batch_digests.size(), 2u);
  HsPayload p2 = provider.GetPayload(2);
  EXPECT_EQ(p2.batch_digests, p1.batch_digests);  // Still uncommitted.

  // Committing the first proposal removes its digests from future proposals
  // and reports the transactions exactly once.
  uint64_t delivered = 0;
  provider.set_commit_sink([&](ValidatorId, uint64_t num, uint64_t, const auto&) {
    delivered += num;
  });
  provider.OnCommit(p1, 0);
  EXPECT_EQ(delivered, 10u);
  provider.OnCommit(p1, 0);  // Duplicate commit reference: no double count.
  EXPECT_EQ(delivered, 10u);
  HsPayload p3 = provider.GetPayload(3);
  ASSERT_EQ(p3.batch_digests.size(), 1u);
  EXPECT_EQ(p3.batch_digests[0], provider.GetPayload(3).batch_digests[0]);
}

TEST_F(ProviderFixture, BatchedProviderFetchesMissingBeforeReady) {
  BatchedProvider provider(&scheduler, 0, 1000, Millis(100), 32, &directory);
  SinkNode proposer;
  uint32_t self = network->AddNode(&proposer, 0, network->NewMachine());
  uint32_t proposer_id = network->AddNode(&proposer, 0, network->NewMachine());
  provider.BindNetwork(network.get(), self, {proposer_id});

  // A proposal references an unknown digest: not ready, fetch issued.
  Batch::Builder builder(/*author=*/0, /*worker=*/0);
  builder.AddLoad(3, 0);
  std::shared_ptr<const Batch> batch = builder.Seal(/*seq=*/0);
  Digest missing = batch->ComputeDigest();
  HsPayload payload;
  payload.kind = HsPayload::Kind::kBatchDigests;
  payload.batch_digests.push_back(missing);

  bool ready = false;
  EXPECT_FALSE(provider.CheckPayload(payload, proposer_id, [&] { ready = true; }));
  scheduler.RunUntilIdle();
  ASSERT_FALSE(proposer.received.empty());  // MsgBatchRequest went out.

  // The batch arrives: the deferred vote releases.
  provider.OnMessage(proposer_id, std::make_shared<MsgBatch>(batch, missing));
  EXPECT_TRUE(ready);
  // And now the payload checks out immediately.
  EXPECT_TRUE(provider.CheckPayload(payload, proposer_id, [] {}));
}

TEST(NarwhalProviderClusterTest, ProposesNewestUncommittedCertificate) {
  ClusterConfig config;
  config.system = SystemKind::kNarwhalHs;
  config.num_validators = 4;
  config.seed = 5;
  Cluster cluster(config);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(6));

  // Certificates the HotStuff leader proposed always exist in the DAG and
  // commits follow the DAG's growth.
  EXPECT_GT(cluster.hotstuff(0)->committed_blocks(), 3u);
  EXPECT_GT(cluster.primary(0)->dag().HighestRound(), 8u);
}

TEST(NarwhalProviderClusterTest, AnchorRecommittedBelowTheGcHorizonIsDropped) {
  ClusterConfig config;
  config.system = SystemKind::kNarwhalHs;
  config.num_validators = 4;
  config.seed = 5;
  config.narwhal.gc_depth = 10;  // GC overtakes the first anchor within seconds.
  Cluster cluster(config);
  auto* provider = dynamic_cast<NarwhalProvider*>(cluster.provider(0));
  ASSERT_NE(provider, nullptr);

  // Keep the first anchor validator 0 delivers (the header at its chain's
  // leader round), and count deliveries.
  std::optional<Certificate> first_anchor;
  uint64_t delivered = 0;
  cluster.commit_log(0)->add_on_commit([&](const CommitLog::Committed& c) {
    ++delivered;
    if (!first_anchor.has_value() && c.header->round == c.leader_round) {
      first_anchor = *cluster.primary(0)->dag().GetCert(c.header->round, c.header->author);
    }
  });
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(8));
  ASSERT_TRUE(first_anchor.has_value());
  ASSERT_LT(first_anchor->round, cluster.primary(0)->dag().gc_round());
  EXPECT_FALSE(cluster.commit_log(0)->IsCommitted(first_anchor->header_digest))
      << "the commit record should be pruned below the GC horizon";

  // HotStuff commits the same certificate a second time: it is dropped, not
  // synced forever (its header is gone), so it cannot block later anchors.
  HsPayload payload;
  payload.kind = HsPayload::Kind::kCertificates;
  payload.certs.push_back(*first_anchor);
  provider->OnCommit(payload, /*block_author=*/0);
  EXPECT_EQ(provider->pending_anchor_count(), 0u);

  const uint64_t before = delivered;
  cluster.scheduler().RunUntil(Seconds(12));
  EXPECT_GT(delivered, before) << "later anchors stopped delivering";
  EXPECT_LE(provider->pending_anchor_count(), 1u);
}

TEST(MetricsTest, WindowAndOwnershipFiltering) {
  Scheduler scheduler;
  Metrics metrics(&scheduler);
  metrics.set_observer(0);
  metrics.SetWindow(Millis(100), Millis(200));

  std::vector<TxSample> samples = {{1, Millis(100)}};
  scheduler.RunUntil(Millis(50));
  metrics.OnCommit(0, 0, 10, 100, {});  // Before window: ignored.
  EXPECT_EQ(metrics.committed_txs(), 0u);

  scheduler.RunUntil(Millis(150));
  metrics.OnCommit(0, 1, 10, 100, samples);  // Observer counts tput...
  EXPECT_EQ(metrics.committed_txs(), 10u);
  EXPECT_EQ(metrics.latency_seconds().count(), 0u);  // ...but not owner-1 latency.
  metrics.OnCommit(1, 1, 10, 100, samples);  // Non-observer: latency only.
  EXPECT_EQ(metrics.committed_txs(), 10u);
  EXPECT_EQ(metrics.latency_seconds().count(), 1u);
  EXPECT_NEAR(metrics.latency_seconds().Mean(), 0.05, 1e-9);

  scheduler.RunUntil(Millis(250));
  metrics.OnCommit(0, 0, 10, 100, {});  // After window: ignored.
  EXPECT_EQ(metrics.committed_txs(), 10u);

  // Commit feedback works regardless of window.
  EXPECT_TRUE(metrics.IsSampleCommitted(1));
  EXPECT_FALSE(metrics.IsSampleCommitted(2));
}

}  // namespace
}  // namespace nt
