// The primary's header WAL records (src/narwhal/primary.cpp): a header is
// persisted with its parents named by digest, and Recover() rebuilds the
// full header from the certificates' own 'C' records. These tests pin
//  - the round trip: every header at or above the GC horizon comes back
//    with the same digest and a byte-identical encoding;
//  - the fallback: a header whose parent record is gone is left out of the
//    recovered DAG and pulled from peers after the restart;
//  - the complexity budget: a header record is O(n) bytes and carries no
//    certificate votes, at n=4 and n=20, and the stores of all n primaries
//    hold each record's bytes once, at n=4, 7 and 10 (deterministic, no
//    clocks);
//  - the shared buffer: a recovered header adopts its stored value, and a
//    header whose fields change never persists its old bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace nt {
namespace {

constexpr ValidatorId kVictim = 1;

ClusterConfig TuskConfig(uint32_t n, uint64_t seed) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = n;
  config.seed = seed;
  // A short GC window, so a few simulated seconds advance the horizon
  // several times.
  config.narwhal.gc_depth = 20;
  return config;
}

std::vector<std::unique_ptr<LoadGenerator>> StartLoad(Cluster* cluster, TimePoint stop_at) {
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  LoadGenerator::Options options;
  options.rate_tps = 400;
  options.stop_at = stop_at;
  for (ValidatorId v = 0; v < cluster->committee().size(); ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(cluster, v, 0, options));
    clients.back()->Start();
  }
  return clients;
}

Bytes EncodeHeader(const BlockHeader& header) {
  Writer w;
  EncodeWire(w, header);
  return w.Take();
}

// Byte budget of a header record with `batches` batch refs and `parents`
// parent digests: tag, author, round, the two counts and the author
// signature (85 bytes), 52 bytes per batch ref, 32 per parent digest.
size_t HeaderRecordBudget(size_t batches, size_t parents) {
  return 85 + 52 * batches + 32 * parents;
}

TEST(PrimaryWalTest, RecoveredHeadersMatchTheOriginalsByteForByte) {
  Cluster cluster(TuskConfig(4, 3));
  // Every header the victim stores, certified or not.
  std::vector<Digest> stored;
  cluster.primary(kVictim)->add_on_header_stored(
      [&stored](const Digest& d) { stored.push_back(d); });
  auto clients = StartLoad(&cluster, Seconds(10));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));

  const Primary& original = *cluster.primary(kVictim);
  const Round gc_round = original.dag().gc_round();
  ASSERT_GT(gc_round, 0u) << "the run must advance the GC horizon";

  // Rebuild a second primary from the victim's store, exactly as a restart
  // would. It is never started, so it sends nothing; the signer only re-signs
  // the self-vote of an in-flight proposal, which this test does not read.
  std::unique_ptr<Signer> signer = MakeSigner(SignerKind::kFast, DeriveSeed(99, kVictim));
  Primary rebuilt(kVictim, cluster.committee(), cluster.config().narwhal, &cluster.network(),
                  &cluster.topology(), signer.get());
  rebuilt.set_store(cluster.primary_store(kVictim));
  rebuilt.Recover();
  ASSERT_EQ(rebuilt.dag().gc_round(), gc_round);

  size_t expected = 0;
  size_t at_horizon = 0;
  for (const Digest& digest : stored) {
    std::shared_ptr<const BlockHeader> header = original.dag().GetHeader(digest);
    if (header == nullptr || header->round < gc_round) {
      continue;
    }
    ++expected;
    at_horizon += header->round == gc_round ? 1 : 0;
    std::shared_ptr<const BlockHeader> recovered = rebuilt.dag().GetHeader(digest);
    ASSERT_NE(recovered, nullptr) << "header of round " << header->round << " by "
                                  << header->author << " was not recovered";
    EXPECT_EQ(recovered->ComputeDigest(), digest);
    EXPECT_EQ(EncodeHeader(*recovered), EncodeHeader(*header))
        << "header of round " << header->round << " by " << header->author;
  }
  EXPECT_GT(at_horizon, 0u) << "no header at exactly the GC horizon";
  // Recovery drops every record below the horizon, so this is the count of
  // recovered headers at or above it.
  EXPECT_EQ(rebuilt.dag().TotalHeaders(), expected);
}

TEST(PrimaryWalTest, RecoveredCertificatesAdoptTheStoredBuffers) {
  Cluster cluster(TuskConfig(4, 5));
  auto clients = StartLoad(&cluster, Seconds(8));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(8));

  std::unique_ptr<Signer> signer = MakeSigner(SignerKind::kFast, DeriveSeed(99, kVictim));
  Primary rebuilt(kVictim, cluster.committee(), cluster.config().narwhal, &cluster.network(),
                  &cluster.topology(), signer.get());
  rebuilt.set_store(cluster.primary_store(kVictim));
  rebuilt.Recover();
  const Dag& dag = rebuilt.dag();

  // Header digest -> the 'C' value the store holds for it.
  std::map<Digest, const Bytes*> stored;
  cluster.primary_store(kVictim)->ForEach([&](const Digest&, const SharedBytes& value) {
    if (!value->empty() && (*value)[0] == CertRecord::kTag) {
      std::optional<Certificate> cert = Certificate::Decode(value);
      ASSERT_TRUE(cert.has_value());
      stored.emplace(cert->header_digest, value.get());
    }
  });
  size_t adopted = 0;
  for (const auto& [digest, buffer] : stored) {
    if (const Certificate* cert = dag.GetCertByDigest(digest)) {
      EXPECT_EQ(cert->RecordValue().get(), buffer) << "round " << cert->round;
      ++adopted;
    }
  }
  EXPECT_GT(adopted, 20u);

  size_t parents = 0;
  for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
    for (const auto& [author, cert] : dag.CertsAt(r)) {
      std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest);
      if (header == nullptr) {
        continue;
      }
      for (const Certificate& parent : header->parents) {
        auto it = stored.find(parent.header_digest);
        ASSERT_NE(it, stored.end()) << "a recovered parent has no 'C' record";
        EXPECT_EQ(parent.RecordValue().get(), it->second);
        ++parents;
      }
    }
  }
  EXPECT_GT(parents, 3 * adopted / 2);
}

TEST(PrimaryWalTest, RecoveredHeadersAdoptTheStoredBuffers) {
  Cluster cluster(TuskConfig(4, 5));
  auto clients = StartLoad(&cluster, Seconds(8));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(8));

  std::unique_ptr<Signer> signer = MakeSigner(SignerKind::kFast, DeriveSeed(99, kVictim));
  Primary rebuilt(kVictim, cluster.committee(), cluster.config().narwhal, &cluster.network(),
                  &cluster.topology(), signer.get());
  rebuilt.set_store(cluster.primary_store(kVictim));
  rebuilt.Recover();
  const Dag& dag = rebuilt.dag();

  // Record key -> the 'H' value the store holds under it.
  std::map<Digest, const Bytes*> stored;
  cluster.primary_store(kVictim)->ForEach([&](const Digest& key, const SharedBytes& value) {
    if (!value->empty() && (*value)[0] == HeaderRecord::kTag) {
      stored.emplace(key, value.get());
    }
  });
  size_t adopted = 0;
  for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
    for (const auto& [author, cert] : dag.CertsAt(r)) {
      std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest);
      if (header == nullptr) {
        continue;
      }
      auto it = stored.find(HeaderRecord::KeyOf(cert->header_digest));
      ASSERT_NE(it, stored.end()) << "a recovered header has no 'H' record";
      EXPECT_EQ(header->RecordValue(cert->header_digest).get(), it->second)
          << "round " << header->round << ", author " << header->author;
      ++adopted;
    }
  }
  EXPECT_GT(adopted, 20u);
}

// The 'H' record HeaderRecord::Of(h, h's digest) stores, decoded.
HeaderRecord PersistedRecord(const BlockHeader& h) {
  const Digest digest = h.ComputeDigest();
  MemStore store;
  PutRecord(store, HeaderRecord::Of(h, digest));
  SharedBytes value = store.Get(HeaderRecord::KeyOf(digest));
  EXPECT_NE(value, nullptr);
  std::optional<HeaderRecord> rec = DecodeRecord<HeaderRecord>(value != nullptr ? *value : Bytes{});
  EXPECT_TRUE(rec.has_value());
  return rec.value_or(HeaderRecord{});
}

void ExpectOwnFields(const BlockHeader& h) {
  const HeaderRecord rec = PersistedRecord(h);
  EXPECT_EQ(rec.header.author, h.author);
  EXPECT_EQ(rec.header.round, h.round);
  EXPECT_EQ(rec.header.batches, h.batches);
  EXPECT_EQ(rec.header.author_sig, h.author_sig);
  std::vector<Digest> parents;
  for (const Certificate& parent : h.parents) {
    parents.push_back(parent.header_digest);
  }
  EXPECT_EQ(rec.parents, parents);
}

TEST(PrimaryWalTest, ChangedHeadersNeverPersistStaleBytes) {
  BlockHeader sealed;
  sealed.author = 2;
  sealed.round = 7;
  sealed.batches.push_back(BatchRef{Sha256::Hash("batch-0"), 0, 10, 5120});
  for (const char* name : {"parent-0", "parent-1", "parent-2"}) {
    Certificate parent;
    parent.header_digest = Sha256::Hash(name);
    parent.round = 6;
    sealed.parents.push_back(parent);
  }
  sealed.author_sig[0] = 1;
  const Digest digest = sealed.ComputeDigest();
  sealed.Seal(digest);
  ASSERT_EQ(sealed.RecordValue(digest), sealed.RecordValue(digest)) << "not sealed";
  ExpectOwnFields(sealed);

  // A copy starts unsealed: the same bytes, in a buffer of its own.
  const BlockHeader copy = sealed;
  EXPECT_NE(copy.RecordValue(digest), sealed.RecordValue(digest));
  EXPECT_EQ(*copy.RecordValue(digest), *sealed.RecordValue(digest));

  BlockHeader other_batches = sealed;
  other_batches.batches.push_back(BatchRef{Sha256::Hash("batch-1"), 1, 3, 1536});
  ExpectOwnFields(other_batches);

  BlockHeader other_sig;
  other_sig = sealed;
  other_sig.author_sig[0] = 2;
  ExpectOwnFields(other_sig);

  // Changed in place: the buffer is bound to the digest and signature it
  // was sealed for.
  sealed.author_sig[1] = 3;
  ExpectOwnFields(sealed);
  sealed.batches.clear();
  ExpectOwnFields(sealed);
}

TEST(PrimaryWalTest, HeaderWithAMissingParentRecordIsResyncedFromPeers) {
  constexpr TimePoint kCrashAt = Seconds(6);
  constexpr TimePoint kRecoverAt = Seconds(6) + Millis(300);
  constexpr TimePoint kRunEnd = Seconds(14);
  Cluster cluster(TuskConfig(4, 5));
  cluster.RestartValidator(kVictim, kCrashAt, kRecoverAt);

  // While the victim is down its store is frozen: pick a certified header
  // two rounds below its highest certificate and erase the 'C' record of
  // one of its parents.
  Digest left_out{};
  Digest erased_parent{};
  bool erased = false;
  cluster.scheduler().ScheduleAt(kRecoverAt - Millis(1), [&] {
    const Dag& dag = cluster.primary(kVictim)->dag();
    const Round target = dag.HighestRound() - 2;
    for (const auto& [author, cert] : dag.CertsAt(target)) {
      if (std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest)) {
        left_out = cert->header_digest;
        erased_parent = header->parents.front().header_digest;
        break;
      }
    }
    Store* store = cluster.primary_store(kVictim);
    std::optional<Digest> key;
    ForEachRecord<CertRecord>(*store, [&](const CertRecord& rec) {
      if (rec.cert.header_digest == erased_parent) {
        key = rec.Key();
      }
    });
    erased = key.has_value() && store->Erase(*key);
  });

  bool recovered_without_header = false;
  bool cert_recovered = false;
  bool parent_recovered = true;
  bool parent_restored = false;
  std::set<Digest> stored_after_restart;
  uint64_t commits_after_restart = 0;
  // Every header the victim stored before the crash.
  std::vector<Digest> stored_before_crash;
  cluster.primary(kVictim)->add_on_header_stored(
      [&stored_before_crash](const Digest& d) { stored_before_crash.push_back(d); });
  cluster.set_on_validator_rebuilt([&](ValidatorId v) {
    Primary* primary = cluster.primary(v);
    // Left out, not rebuilt with fewer parents (which would give a digest
    // the validator never stored): every recovered header is one it stored
    // before the crash, and the left-out one is absent.
    const Dag& dag = primary->dag();
    size_t known = 0;
    for (const Digest& digest : stored_before_crash) {
      known += dag.HasHeader(digest) ? 1 : 0;
    }
    recovered_without_header = !dag.HasHeader(left_out) && dag.TotalHeaders() == known;
    cert_recovered = primary->dag().GetCertByDigest(left_out) != nullptr;
    parent_recovered = primary->dag().GetCertByDigest(erased_parent) != nullptr;
    primary->add_on_certificate([&](const Certificate& cert) {
      parent_restored = parent_restored || cert.header_digest == erased_parent;
    });
    primary->add_on_header_stored(
        [&stored_after_restart](const Digest& d) { stored_after_restart.insert(d); });
    cluster.committer(v)->add_on_commit(
        [&commits_after_restart](const DagCommitter::Committed&) { ++commits_after_restart; });
  });

  auto clients = StartLoad(&cluster, kRunEnd);
  cluster.Start();
  cluster.scheduler().RunUntil(kRunEnd);

  ASSERT_TRUE(erased) << "no parent record to erase";
  EXPECT_TRUE(recovered_without_header) << "a header with a missing parent record was recovered";
  EXPECT_TRUE(cert_recovered);
  // The erased certificate itself comes back with the synced header's parents.
  EXPECT_FALSE(parent_recovered);
  EXPECT_TRUE(parent_restored);
  EXPECT_EQ(stored_after_restart.count(left_out), 1u) << "the left-out header was not re-synced";
  EXPECT_GT(commits_after_restart, 0u) << "the restarted validator did not commit";
}

// Walks validator `v`'s primary store: every 'H' record decodes as a
// HeaderRecord, stays within its O(n) byte budget, and holds none of the vote
// signatures found in the store's 'C' records.
void ExpectLinearHeaderRecords(Cluster& cluster, ValidatorId v) {
  const uint32_t n = cluster.committee().size();
  std::set<Signature> vote_sigs;
  std::vector<Bytes> header_records;
  cluster.primary_store(v)->ForEach([&](const Digest&, const SharedBytes& value) {
    if (!value->empty() && (*value)[0] == HeaderRecord::kTag) {
      header_records.push_back(*value);
    }
  });
  ForEachRecord<CertRecord>(*cluster.primary_store(v), [&](const CertRecord& rec) {
    for (const VoteList::View vote : rec.cert.votes) {
      vote_sigs.insert(vote.signature());
    }
  });
  ASSERT_GT(header_records.size(), static_cast<size_t>(n));
  ASSERT_FALSE(vote_sigs.empty());

  for (const Bytes& record : header_records) {
    std::optional<HeaderRecord> rec = DecodeRecord<HeaderRecord>(record);
    ASSERT_TRUE(rec.has_value()) << "n=" << n << ": malformed header record";
    const Round round = rec->header.round;
    const size_t parents = rec->parents.size();
    EXPECT_LE(parents, n);
    if (round > 0) {
      EXPECT_GE(parents, cluster.committee().quorum_threshold());
    }
    EXPECT_LE(record.size(), HeaderRecordBudget(rec->header.batches.size(), parents))
        << "n=" << n << ": header record of round " << round;
    for (size_t off = 0; off + sizeof(Signature) <= record.size(); ++off) {
      Signature window;
      std::copy_n(record.begin() + static_cast<std::ptrdiff_t>(off), window.size(),
                  window.begin());
      ASSERT_EQ(vote_sigs.count(window), 0u)
          << "n=" << n << ": header record of round " << round << " embeds a vote signature";
    }
  }
}

TEST(PrimaryWalTest, HeaderRecordBytesGrowLinearlyWithCommitteeSize) {
  for (uint32_t n : {4u, 20u}) {
    Cluster cluster(TuskConfig(n, 1));
    auto clients = StartLoad(&cluster, Seconds(3));
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(3));
    ExpectLinearHeaderRecords(cluster, 0);
    ExpectLinearHeaderRecords(cluster, n - 1);
  }
}

// The 'H' and 'C' records are the author's buffers, shared by every store,
// so the process holds each header's and certificate's record bytes once:
// O(n) bytes per header, not O(n^2). Summed over all n primary stores, the
// distinct 'H' and 'C' buffers stay within kDistinctRecordBudget times the
// largest single store's 'H' and 'C' bytes. The excess over one store is the
// records some validator holds and the largest store does not: headers of
// the newest round still in flight, and the rounds a lagging validator has
// not yet collected. It is 0-3% in these runs. A private 'H' encoding per
// store makes the sum (C + n * H) / (C + H) of one store, over 2 already at
// n = 4.
constexpr double kDistinctRecordBudget = 1.25;

TEST(PrimaryWalTest, DistinctRecordBytesStayWithinOneStoreTimesAConstant) {
  for (uint32_t n : {4u, 7u, 10u}) {
    Cluster cluster(TuskConfig(n, 1));
    auto clients = StartLoad(&cluster, Seconds(3));
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(3));

    std::set<const Bytes*> distinct;
    size_t distinct_bytes = 0;
    size_t largest_store_bytes = 0;
    for (ValidatorId v = 0; v < n; ++v) {
      size_t store_bytes = 0;
      cluster.primary_store(v)->ForEach([&](const Digest&, const SharedBytes& value) {
        const uint8_t tag = value->empty() ? 0 : (*value)[0];
        if (tag != HeaderRecord::kTag && tag != CertRecord::kTag) {
          return;
        }
        store_bytes += value->size();
        if (distinct.insert(value.get()).second) {
          distinct_bytes += value->size();
        }
      });
      largest_store_bytes = std::max(largest_store_bytes, store_bytes);
    }
    ASSERT_GT(largest_store_bytes, 0u);
    const double ratio =
        static_cast<double>(distinct_bytes) / static_cast<double>(largest_store_bytes);
    EXPECT_LE(ratio, kDistinctRecordBudget)
        << "n=" << n << ": " << distinct_bytes << " distinct 'H' and 'C' bytes against "
        << largest_store_bytes << " in the largest store";
  }
}

}  // namespace
}  // namespace nt
