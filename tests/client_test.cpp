// Client-side behaviours from §8.4: rate control, latency sampling,
// re-submission with failover past a crashed entry validator, and the
// worker's Mir-BFT-style duplicate suppression.
#include "src/runtime/client.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/runtime/cluster.h"

namespace nt {
namespace {

ClusterConfig TuskConfig(uint64_t seed) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = seed;
  return config;
}

TEST(LoadGeneratorTest, SubmitsAtConfiguredRate) {
  Cluster cluster(TuskConfig(1));
  LoadGenerator::Options options;
  options.rate_tps = 1000;
  options.stop_at = Seconds(10);
  LoadGenerator client(&cluster, 0, 0, options);
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  // 10 seconds at 1000 tx/s, +- tick quantization.
  EXPECT_NEAR(static_cast<double>(client.submitted_txs()), 10000.0, 100.0);
}

TEST(LoadGeneratorTest, FractionalRatesAccumulate) {
  Cluster cluster(TuskConfig(2));
  LoadGenerator::Options options;
  options.rate_tps = 7;  // Far less than one tx per 10ms tick.
  options.stop_at = Seconds(10);
  LoadGenerator client(&cluster, 0, 0, options);
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  EXPECT_NEAR(static_cast<double>(client.submitted_txs()), 70.0, 3.0);
}

TEST(LoadGeneratorTest, StopsAtDeadline) {
  Cluster cluster(TuskConfig(3));
  LoadGenerator::Options options;
  options.rate_tps = 1000;
  options.stop_at = Seconds(2);
  LoadGenerator client(&cluster, 0, 0, options);
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  EXPECT_LT(client.submitted_txs(), 2100u);
}

TEST(LoadGeneratorTest, NoResubmissionWhenHealthy) {
  Cluster cluster(TuskConfig(4));
  cluster.metrics().set_observer(0);
  cluster.metrics().SetWindow(0, Seconds(15));
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(10);
  options.resubmit_timeout = Seconds(6);  // Far above healthy commit latency.
  LoadGenerator client(&cluster, 0, 0, options);
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(15));
  EXPECT_EQ(client.resubmitted_txs(), 0u);
}

TEST(LoadGeneratorTest, ResubmitsWithFailoverPastCrashedValidator) {
  // The client's entry validator crashes right away; with re-submission and
  // failover, its tracked transactions still commit via other validators
  // (paper §8.4: clients re-submit if not sequenced in time).
  Cluster cluster(TuskConfig(5));
  cluster.CrashValidator(1, 0);
  cluster.metrics().set_observer(0);
  cluster.metrics().SetWindow(0, Seconds(40));
  LoadGenerator::Options options;
  options.rate_tps = 200;
  options.sample_rate = 10;
  options.stop_at = Seconds(10);
  options.resubmit_timeout = Seconds(5);
  options.failover = true;
  LoadGenerator client(&cluster, /*validator=*/1, 0, options);  // Crashed entry.
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(40));

  EXPECT_GT(client.resubmitted_txs(), 10u);
  // The re-submitted samples eventually committed (latency recorded).
  EXPECT_GT(cluster.metrics().latency_seconds().count(), 20u);
  // And their latency reflects the failover delay.
  EXPECT_GT(cluster.metrics().latency_seconds().Mean(), 4.0);
}

// One tracked transaction, submitted on the first tick (t = 10 ms) to a
// validator crashed from t=0, with failover off: it can never commit.
LoadGenerator::Options LoneSampleOptions(uint32_t max_resubmits) {
  LoadGenerator::Options options;
  options.rate_tps = 100;  // One transaction per tick...
  options.sample_rate = 1000000;  // ...and only the first one is tracked.
  options.stop_at = Seconds(5);
  options.resubmit_timeout = Seconds(1);
  options.failover = false;
  options.max_resubmits = max_resubmits;
  return options;
}

TEST(LoadGeneratorTest, AbandonsOnTheTickAfterTheLastResubmit) {
  Cluster cluster(TuskConfig(10));
  cluster.CrashValidator(1, 0);
  LoadGenerator client(&cluster, /*validator=*/1, 0, LoneSampleOptions(2));
  client.Start();
  cluster.Start();
  // Re-submitted at 1.01 s and 2.01 s, then given up on at the next tick.
  cluster.scheduler().RunUntil(Millis(1010) - 1);
  EXPECT_EQ(client.resubmitted_txs(), 0u);
  cluster.scheduler().RunUntil(Millis(1010));
  EXPECT_EQ(client.resubmitted_txs(), 1u);
  cluster.scheduler().RunUntil(Millis(2020) - 1);
  EXPECT_EQ(client.resubmitted_txs(), 2u);
  EXPECT_EQ(client.abandoned_txs(), 0u);
  cluster.scheduler().RunUntil(Millis(2020));
  EXPECT_EQ(client.abandoned_txs(), 1u);
  EXPECT_EQ(cluster.metrics().abandoned_txs(), 1u);
  cluster.scheduler().RunUntil(Seconds(10));
  EXPECT_EQ(client.resubmitted_txs(), 2u);
  EXPECT_EQ(client.abandoned_txs(), 1u);
}

TEST(LoadGeneratorTest, ZeroResubmitsAbandonsOnTheSubmitTick) {
  Cluster cluster(TuskConfig(11));
  cluster.CrashValidator(1, 0);
  LoadGenerator client(&cluster, /*validator=*/1, 0, LoneSampleOptions(0));
  client.Start();
  cluster.Start();
  cluster.scheduler().RunUntil(Millis(10) - 1);
  EXPECT_EQ(client.submitted_txs(), 0u);
  cluster.scheduler().RunUntil(Millis(10));
  EXPECT_EQ(client.submitted_txs(), 1u);
  EXPECT_EQ(client.abandoned_txs(), 1u);
  cluster.scheduler().RunUntil(Seconds(10));
  EXPECT_EQ(client.resubmitted_txs(), 0u);
  EXPECT_EQ(client.abandoned_txs(), 1u);
  EXPECT_EQ(cluster.metrics().abandoned_txs(), 1u);
}

TEST(DedupTest, WorkerDropsDuplicatePayloads) {
  Cluster cluster(TuskConfig(6));
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  Bytes tx = {1, 2, 3, 4};
  worker->SubmitTransaction(tx, std::nullopt);
  worker->SubmitTransaction(tx, std::nullopt);  // Duplicate: dropped.
  worker->SubmitTransaction(Bytes{5, 6}, std::nullopt);
  EXPECT_EQ(worker->duplicate_txs_dropped(), 1u);
  cluster.scheduler().RunUntil(Seconds(1));
  // Only two distinct transactions entered the batch stream.
  EXPECT_EQ(worker->batches_sealed(), 1u);
}

TEST(DedupTest, WindowEviction) {
  ClusterConfig config = TuskConfig(7);
  config.narwhal.dedup_window = 2;
  Cluster cluster(config);
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  worker->SubmitTransaction(Bytes{1}, std::nullopt);
  worker->SubmitTransaction(Bytes{2}, std::nullopt);
  worker->SubmitTransaction(Bytes{3}, std::nullopt);  // Evicts {1}.
  worker->SubmitTransaction(Bytes{1}, std::nullopt);  // No longer remembered.
  EXPECT_EQ(worker->duplicate_txs_dropped(), 0u);
  worker->SubmitTransaction(Bytes{1}, std::nullopt);  // Now remembered again.
  EXPECT_EQ(worker->duplicate_txs_dropped(), 1u);
}

TEST(DedupTest, WindowChurnAcrossTableGrowth) {
  // The window's set grows through several capacities while it churns: every
  // submission past the first 1000 erases the oldest digest.
  ClusterConfig config = TuskConfig(9);
  config.narwhal.dedup_window = 1000;
  Cluster cluster(config);
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  auto payload = [](uint32_t i) {
    return Bytes{static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8), 0xde, 0xd0};
  };
  for (uint32_t i = 0; i < 5000; ++i) {
    worker->SubmitTransaction(payload(i), std::nullopt);
  }
  EXPECT_EQ(worker->duplicate_txs_dropped(), 0u);
  for (uint32_t i = 4000; i < 5000; ++i) {  // The latest 1000: all remembered.
    worker->SubmitTransaction(payload(i), std::nullopt);
  }
  EXPECT_EQ(worker->duplicate_txs_dropped(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {  // Evicted long ago: all accepted...
    worker->SubmitTransaction(payload(i), std::nullopt);
  }
  EXPECT_EQ(worker->duplicate_txs_dropped(), 1000u);
  for (uint32_t i = 3000; i < 5000; ++i) {  // ...and they pushed 4000..4999 out.
    worker->SubmitTransaction(payload(i), std::nullopt);
  }
  EXPECT_EQ(worker->duplicate_txs_dropped(), 1000u);
  for (uint32_t i = 4000; i < 5000; ++i) {  // The window is now 4000..4999.
    worker->SubmitTransaction(payload(i), std::nullopt);
  }
  EXPECT_EQ(worker->duplicate_txs_dropped(), 2000u);
}

TEST(DedupTest, CanBeDisabled) {
  ClusterConfig config = TuskConfig(8);
  config.narwhal.dedup_window = 0;
  Cluster cluster(config);
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  worker->SubmitTransaction(Bytes{9}, std::nullopt);
  worker->SubmitTransaction(Bytes{9}, std::nullopt);
  EXPECT_EQ(worker->duplicate_txs_dropped(), 0u);
}

// Size-only load never reaches the duplicate window, so a worker fed only
// that allocates none; the first explicit payload starts it small.
TEST(DedupWindowTest, SizeOnlyLoadAllocatesNoWindow) {
  Cluster cluster(TuskConfig(10));
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  for (int i = 0; i < 5000; ++i) {
    worker->SubmitTransaction(uint64_t{512}, std::nullopt);
  }
  cluster.scheduler().RunUntil(Seconds(1));
  EXPECT_GT(worker->batches_sealed(), 0u);
  EXPECT_EQ(worker->dedup_window().memory_bytes(), 0u);
  worker->SubmitTransaction(Bytes{1, 2, 3}, std::nullopt);
  EXPECT_EQ(worker->dedup_window().size(), 1u);
  EXPECT_LT(worker->dedup_window().ring_capacity(), 100u);
}

// Ring positions are 32-bit: a window of 2^32 - 1 or more stops the worker
// from being built instead of being truncated.
TEST(DedupWindowTest, RefusesAWindowTooLargeToAddress) {
  ClusterConfig config = TuskConfig(11);
  config.narwhal.dedup_window = uint64_t{0xffffffff};
  EXPECT_THROW(Cluster cluster(config), std::invalid_argument);
  config.narwhal.dedup_window = uint64_t{0xfffffffe};
  Cluster cluster(config);
  EXPECT_EQ(cluster.worker(0, 0)->dedup_window().memory_bytes(), 0u);
}

}  // namespace
}  // namespace nt
