// Cold-storage archive (§3.3 offload): garbage-collected rounds leave the
// primary's working set but stay retrievable — in memory or through a
// WAL-backed store — for execution engines, light clients, and audits.
#include "src/narwhal/archive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

Dag::Collected MakeRecord(uint8_t tag, bool with_header = true) {
  Dag::Collected record;
  auto header = std::make_shared<BlockHeader>();
  header->author = tag;
  header->round = tag;
  record.digest = header->ComputeDigest();
  if (with_header) {
    record.header = header;
  }
  Certificate cert;
  cert.header_digest = record.digest;
  cert.round = tag;
  cert.author = tag;
  record.cert = std::make_shared<const Certificate>(cert);
  return record;
}

TEST(ArchiveTest, StoresAndServesRecords) {
  Archive archive;
  Dag::Collected record = MakeRecord(1);
  archive.Put(record);
  EXPECT_TRUE(archive.Contains(record.digest));
  EXPECT_EQ(archive.GetHeader(record.digest), record.header);
  ASSERT_NE(archive.GetCertificate(record.digest), nullptr);
  EXPECT_EQ(archive.GetCertificate(record.digest)->round, 1u);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.headers_archived(), 1u);

  Digest unknown = Sha256::Hash("unknown");
  EXPECT_FALSE(archive.Contains(unknown));
  EXPECT_EQ(archive.GetHeader(unknown), nullptr);
  EXPECT_EQ(archive.GetCertificate(unknown), nullptr);
}

TEST(ArchiveTest, UpgradesCertOnlyRecords) {
  Archive archive;
  Dag::Collected no_header = MakeRecord(2, /*with_header=*/false);
  archive.Put(no_header);
  EXPECT_EQ(archive.GetHeader(no_header.digest), nullptr);
  EXPECT_EQ(archive.headers_archived(), 0u);

  Dag::Collected with_header = MakeRecord(2);
  archive.Put(with_header);
  EXPECT_NE(archive.GetHeader(with_header.digest), nullptr);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.headers_archived(), 1u);
}

TEST(ArchiveTest, PutIsIdempotent) {
  Archive archive;
  Dag::Collected record = MakeRecord(3);
  archive.Put(record);
  archive.Put(record);
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.headers_archived(), 1u);
}

TEST(ArchiveTest, PersistsThroughColdStore) {
  std::string path = ::testing::TempDir() + "archive_test.wal";
  std::remove(path.c_str());
  Digest digest;
  {
    Archive archive(WalStore::Open(path));
    Dag::Collected record = MakeRecord(4);
    digest = record.digest;
    archive.Put(record);
  }
  // The WAL retains the encoded record after the archive is gone.
  auto store = WalStore::Open(path);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->recovered_records(), 1u);
  auto bytes = store->Get(digest);
  ASSERT_TRUE(bytes.has_value());
  Reader r(*bytes);
  auto cert = Certificate::Decode(r);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->header_digest, digest);
  EXPECT_TRUE(r.GetBool());  // Header present flag.
  auto header = BlockHeader::Decode(r);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->ComputeDigest(), digest);
  std::remove(path.c_str());
}

// End-to-end: with an aggressive GC horizon, a live Tusk cluster keeps its
// DAG small while the archive accumulates the full evicted history.
TEST(ArchiveClusterTest, GcEvictsIntoArchive) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 88;
  config.narwhal.gc_depth = 5;
  Cluster cluster(config);
  Archive archive;
  cluster.primary(0)->set_archive(&archive);

  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(20);
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(20));

  const Dag& dag = cluster.primary(0)->dag();
  ASSERT_GT(dag.gc_round(), 10u);
  // The working set is bounded by the horizon...
  EXPECT_LT(dag.TotalCertificates(), (5u + 10u) * 4u);
  // ...and the archive holds roughly everything below it.
  EXPECT_GT(archive.size(), (dag.gc_round() - 1) * 3u);
  EXPECT_GT(archive.headers_archived(), archive.size() / 2);

  // Archived blocks remain readable even though the DAG dropped them.
  EXPECT_GT(archive.headers_archived(), 20u);
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
  ASSERT_TRUE(bytes.has_value());
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
