// Verified-certificate cache: LRU/GC unit behaviour, and integration with
// Certificate::Verify / VerifyAll — the same certificate arriving via two
// routes must cost one signature-set verification plus one cache probe.
#include "src/types/cert_cache.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/hotstuff/types.h"
#include "src/runtime/metrics.h"
#include "src/types/types.h"

namespace nt {
namespace {

using Kind = VerifiedCertCache::Kind;

const Digest kCommittee{};
const std::span<const uint8_t> kNoVotes;

// Stable storage for the subject digests the claims below borrow.
const Digest& Subject(int i) {
  static std::map<int, Digest> subjects;
  auto [it, inserted] = subjects.try_emplace(i);
  if (inserted) {
    it->second = Sha256::Hash("key" + std::to_string(i));
  }
  return it->second;
}

// A Narwhal certificate claim over subject i at `round`, with a fixed
// committee and an empty vote set (the unit tests exercise LRU and GC only).
VerifiedCertCache::Claim Key(int i, uint64_t round) {
  return {Kind::kNarwhal, Subject(i), round, 0, kCommittee, kNoVotes};
}

TEST(VerifiedCertCacheTest, LookupMissThenHit) {
  VerifiedCertCache cache(4);
  EXPECT_FALSE(cache.Lookup(Key(1, 10)));
  cache.Insert(Key(1, 10));
  EXPECT_TRUE(cache.Lookup(Key(1, 10)));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifiedCertCacheTest, LruEvictsOldestWhenFull) {
  VerifiedCertCache cache(3);
  cache.Insert(Key(1, 1));
  cache.Insert(Key(2, 1));
  cache.Insert(Key(3, 1));
  // Touch 1 so 2 becomes least-recently-used.
  EXPECT_TRUE(cache.Lookup(Key(1, 1)));
  cache.Insert(Key(4, 1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().lru_evictions, 1u);
  EXPECT_TRUE(cache.Lookup(Key(1, 1)));
  EXPECT_FALSE(cache.Lookup(Key(2, 1)));  // Evicted.
  EXPECT_TRUE(cache.Lookup(Key(3, 1)));
  EXPECT_TRUE(cache.Lookup(Key(4, 1)));
}

TEST(VerifiedCertCacheTest, DuplicateInsertDoesNotGrow) {
  VerifiedCertCache cache(4);
  cache.Insert(Key(1, 5));
  cache.Insert(Key(1, 5));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(VerifiedCertCacheTest, KeyCoversKindSubjectAndRound) {
  VerifiedCertCache cache(8);
  cache.Insert(Key(1, 5));
  EXPECT_FALSE(cache.Lookup(Key(1, 6)));  // Other round.
  EXPECT_FALSE(cache.Lookup(Key(2, 5)));  // Other subject.
  EXPECT_FALSE(cache.Lookup({Kind::kQuorumCert, Subject(1), 5, 0, kCommittee, kNoVotes}));
  EXPECT_FALSE(cache.Lookup({Kind::kNarwhal, Subject(1), 5, 3, kCommittee, kNoVotes}));  // Author.
  EXPECT_TRUE(cache.Lookup(Key(1, 5)));
}

TEST(VerifiedCertCacheTest, GcEvictsBelowHorizonAndRejectsLateInserts) {
  VerifiedCertCache cache(16);
  cache.Insert(Key(1, 3));
  cache.Insert(Key(2, 7));
  cache.Insert(Key(3, 12));
  cache.OnGcRound(8);
  EXPECT_EQ(cache.stats().gc_evictions, 2u);
  EXPECT_FALSE(cache.Lookup(Key(1, 3)));
  EXPECT_FALSE(cache.Lookup(Key(2, 7)));
  EXPECT_TRUE(cache.Lookup(Key(3, 12)));
  // Entries below the horizon can no longer be presented; don't admit them.
  cache.Insert(Key(4, 5));
  EXPECT_FALSE(cache.Lookup(Key(4, 5)));
  // The horizon is monotone: a stale smaller value must not re-open it.
  cache.OnGcRound(2);
  cache.Insert(Key(5, 5));
  EXPECT_FALSE(cache.Lookup(Key(5, 5)));
}

// GC evicts whole per-round buckets, and the survivors keep their LRU
// order: later capacity evictions take them least recently used first. An
// entry evicted by LRU leaves its bucket, so the next GC counts only live
// entries. (The same counts and order as a full LRU scan per GC advance.)
TEST(VerifiedCertCacheTest, GcBucketsKeepCountsAndLruOrder) {
  VerifiedCertCache cache(6);
  const VoteList other_list{{1, Signature{}}};
  const std::span<const uint8_t> other_votes = other_list.bytes();
  cache.Insert(Key(1, 2));
  cache.Insert(Key(2, 5));
  cache.Insert({Kind::kNarwhal, Subject(1), 2, 0, kCommittee, other_votes});  // 2nd binding.
  cache.Insert(Key(3, 6));
  cache.Insert(Key(4, 4));
  cache.Insert(Key(5, 7));
  EXPECT_TRUE(cache.Lookup(Key(2, 5)));
  // Most recent first: 2@5, 5@7, 4@4, 3@6, 1'@2, 1@2.
  cache.OnGcRound(5);
  EXPECT_EQ(cache.stats().gc_evictions, 3u);  // Both bindings at round 2, and 4@4.
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.Lookup({Kind::kNarwhal, Subject(1), 2, 0, kCommittee, other_votes}));

  // Survivors, most recent first: 2@5, 5@7, 3@6.
  cache.Insert(Key(6, 8));
  cache.Insert(Key(7, 8));
  cache.Insert(Key(8, 8));
  cache.Insert(Key(9, 8));
  EXPECT_EQ(cache.stats().lru_evictions, 1u);
  EXPECT_FALSE(cache.Lookup(Key(3, 6)));
  EXPECT_TRUE(cache.Lookup(Key(5, 7)));
  cache.Insert(Key(10, 8));
  EXPECT_EQ(cache.stats().lru_evictions, 2u);
  EXPECT_FALSE(cache.Lookup(Key(2, 5)));
  EXPECT_TRUE(cache.Lookup(Key(5, 7)));

  cache.OnGcRound(9);
  EXPECT_EQ(cache.stats().gc_evictions, 3u + 6u);
  EXPECT_EQ(cache.size(), 0u);
}

// Timeout certificates all certify the zero digest; their keys differ only
// by view, and each view stays a distinct entry.
TEST(VerifiedCertCacheTest, ZeroSubjectKeysAreKeptApartByRound) {
  VerifiedCertCache cache(64);
  const Digest zero{};
  for (uint64_t view = 1; view <= 40; ++view) {
    cache.Insert({Kind::kTimeoutCert, zero, view, 0, kCommittee, kNoVotes});
  }
  EXPECT_EQ(cache.size(), 40u);
  for (uint64_t view = 1; view <= 40; ++view) {
    EXPECT_TRUE(cache.Lookup({Kind::kTimeoutCert, zero, view, 0, kCommittee, kNoVotes}));
  }
  EXPECT_FALSE(cache.Lookup({Kind::kTimeoutCert, zero, 41, 0, kCommittee, kNoVotes}));
  EXPECT_FALSE(cache.Lookup({Kind::kQuorumCert, zero, 7, 0, kCommittee, kNoVotes}));
}

// ---------------------------------------------------------------------------
// Integration with Certificate verification.
// ---------------------------------------------------------------------------

// A committee of FastSigner validators that can certify headers.
struct TestCommittee {
  explicit TestCommittee(uint32_t n) {
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < n; ++v) {
      signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(137, v)));
      infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
    }
    committee = Committee(std::move(infos));
  }

  Certificate Certify(const Digest& digest, Round round, ValidatorId author) const {
    std::vector<ValidatorId> quorum;
    for (uint32_t v = 0; v < committee.quorum_threshold(); ++v) {
      quorum.push_back(v);
    }
    return Certificate(digest, round, author,
                       SignAll(Certificate::VotePreimage(digest, round, author), quorum));
  }

  // A vote set over `preimage` from `voters`.
  std::vector<VoteList::Entry> SignAll(const Bytes& preimage,
                                       const std::vector<ValidatorId>& voters) const {
    std::vector<VoteList::Entry> votes;
    for (ValidatorId v : voters) {
      votes.emplace_back(v, signers[v]->Sign(preimage));
    }
    return votes;
  }

  std::vector<std::unique_ptr<Signer>> signers;
  Committee committee;
};

struct CertCacheIntegrationTest : ::testing::Test, TestCommittee {
  static constexpr uint32_t kN = 4;

  CertCacheIntegrationTest() : TestCommittee(kN) {}

  // The verifying validator's own cache, fresh for every test.
  VerifiedCertCache cache;
};

TEST_F(CertCacheIntegrationTest, SecondVerifyIsACacheHit) {
  Certificate cert = Certify(Sha256::Hash("block"), 5, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));
  auto s1 = cache.stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.insertions, 1u);
  EXPECT_EQ(s1.hits, 0u);

  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));
  auto s2 = cache.stats();
  EXPECT_EQ(s2.misses, 1u);  // No second signature verification pass.
  EXPECT_EQ(s2.insertions, 1u);
  EXPECT_EQ(s2.hits, 1u);
}

TEST_F(CertCacheIntegrationTest, TwoRoutesVerifyExactlyOnce) {
  // Route 1: direct Verify (certificate broadcast). Route 2: the same
  // certificate inside a parent set validated through VerifyAll (header
  // processing). The vote signatures must be checked exactly once.
  Certificate cert = Certify(Sha256::Hash("parent"), 3, 2);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));

  std::vector<Certificate> parents;
  parents.push_back(cert);
  parents.push_back(Certify(Sha256::Hash("other-parent"), 3, 0));
  EXPECT_TRUE(Certificate::VerifyAll(parents, committee, *signers[0], &cache));

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);        // `cert` via route 2.
  EXPECT_EQ(s.misses, 2u);      // `cert` route 1 + the other parent.
  EXPECT_EQ(s.insertions, 2u);  // Each distinct certificate verified once.
}

TEST_F(CertCacheIntegrationTest, ForgedCertificateIsNeverCached) {
  Certificate cert = Certify(Sha256::Hash("forged"), 4, 1);
  std::vector<VoteList::Entry> votes = cert.votes.Entries();
  votes[1].second[0] ^= 1;
  cert.votes = VoteList(votes);
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(cert.Verify(committee, *signers[0], &cache));
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);  // Re-checked every time.
  EXPECT_EQ(s.insertions, 0u);
}

TEST_F(CertCacheIntegrationTest, VoteSetVariantIsADistinctEntry) {
  // Two certificates over the same header with different (equally valid)
  // vote sets must not share a cache entry.
  Digest d = Sha256::Hash("same-header");
  Certificate a = Certify(d, 6, 1);
  Certificate b = Certify(d, 6, 1);
  std::vector<VoteList::Entry> votes = a.votes.Entries();
  votes.erase(votes.begin());
  votes.emplace_back(3, signers[3]->Sign(Certificate::VotePreimage(d, 6, 1)));
  b.votes = VoteList(votes);
  EXPECT_TRUE(a.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(b.Verify(committee, *signers[0], &cache));
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
}

TEST_F(CertCacheIntegrationTest, ForgedVoteSetUnderCachedDigestMisses) {
  // The cache key is the header digest, but an entry vouches only for the
  // exact vote set that was verified: a forged set presented under a cached
  // digest must miss, fail signature verification, and stay out.
  Certificate cert = Certify(Sha256::Hash("cached-header"), 4, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));
  std::vector<VoteList::Entry> votes = cert.votes.Entries();
  votes[1].second[0] ^= 1;
  Certificate forged = cert;
  forged.votes = VoteList(votes);
  EXPECT_FALSE(forged.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(Certificate::VerifyAll({cert, forged}, committee, *signers[0], &cache));
  // A valid signature moved to another voter is forged too.
  votes = cert.votes.Entries();
  votes[2].first = 3;
  Certificate swapped = cert;
  swapped.votes = VoteList(votes);
  EXPECT_FALSE(swapped.Verify(committee, *signers[0], &cache));

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);        // `cert` inside VerifyAll.
  EXPECT_EQ(s.misses, 4u);      // `cert` once, `forged` twice, `swapped` once.
  EXPECT_EQ(s.insertions, 1u);  // Only the genuine vote set.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST_F(CertCacheIntegrationTest, CommitteeFingerprintMismatchMisses) {
  // Same certificate, a committee differing only in a non-voting member's
  // key: still valid, but it must be verified again under that committee.
  std::vector<ValidatorInfo> infos;
  for (uint32_t v = 0; v < kN; ++v) {
    infos.push_back(committee.validator(v));
  }
  infos[3].key = MakeSigner(SignerKind::kFast, DeriveSeed(999, 3))->public_key();
  Committee other(std::move(infos));
  ASSERT_NE(other.fingerprint(), committee.fingerprint());

  Certificate cert = Certify(Sha256::Hash("two-committees"), 2, 0);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(cert.Verify(other, *signers[0], &cache));
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_TRUE(cert.Verify(other, *signers[0], &cache));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(CertCacheIntegrationTest, QuorumCertVoteSetVariantsBehaveLikeNarwhal) {
  const Digest block = Sha256::Hash("hs-block");
  const Bytes preimage = QuorumCert::VotePreimage(block, 9);
  QuorumCert a{block, 9, VoteList(SignAll(preimage, {0, 1, 2}))};
  QuorumCert b{block, 9, VoteList(SignAll(preimage, {1, 2, 3}))};
  QuorumCert forged = a;
  std::vector<VoteList::Entry> votes = a.votes.Entries();
  votes[0].second[5] ^= 1;
  forged.votes = VoteList(votes);

  EXPECT_TRUE(a.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(b.Verify(committee, *signers[0], &cache));  // Distinct entry.
  EXPECT_FALSE(forged.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(a.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(b.Verify(committee, *signers[0], &cache));
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
  // Another view of the same block is another key.
  QuorumCert later{block, 10,
                   VoteList(SignAll(QuorumCert::VotePreimage(block, 10), {0, 1, 2}))};
  EXPECT_TRUE(later.Verify(committee, *signers[0], &cache));
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_F(CertCacheIntegrationTest, TimeoutCertVoteSetVariantsBehaveLikeNarwhal) {
  const Bytes preimage = TimeoutCert::VotePreimage(7);
  TimeoutCert a{7, VoteList(SignAll(preimage, {0, 1, 2}))};
  TimeoutCert b{7, VoteList(SignAll(preimage, {0, 2, 3}))};
  TimeoutCert forged = b;
  std::vector<VoteList::Entry> votes = b.votes.Entries();
  votes[2].second[63] ^= 1;
  forged.votes = VoteList(votes);

  EXPECT_TRUE(a.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(b.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(forged.Verify(committee, *signers[0], &cache));
  EXPECT_TRUE(b.Verify(committee, *signers[0], &cache));
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A QC and a TC never share an entry, even for the same view.
  QuorumCert qc{Digest{}, 7,
                VoteList(SignAll(QuorumCert::VotePreimage(Digest{}, 7), {0, 1, 2}))};
  EXPECT_TRUE(qc.Verify(committee, *signers[0], &cache));
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_F(CertCacheIntegrationTest, DuplicateAndUnknownVotersRejectedOnBothPaths) {
  // Narwhal: a duplicate voter (valid signatures) and an unknown voter.
  Certificate dup = Certify(Sha256::Hash("dup"), 3, 0);
  std::vector<VoteList::Entry> votes = dup.votes.Entries();
  votes[2] = votes[1];
  dup.votes = VoteList(votes);
  Certificate unknown = Certify(Sha256::Hash("unknown"), 3, 0);
  votes = unknown.votes.Entries();
  votes[2].first = kN;
  unknown.votes = VoteList(votes);
  EXPECT_FALSE(dup.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(unknown.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(Certificate::VerifyAll({dup}, committee, *signers[0], &cache));
  EXPECT_FALSE(Certificate::VerifyAll({unknown}, committee, *signers[0], &cache));

  // HotStuff: the same two defects in a QC and a TC.
  const Digest block = Sha256::Hash("hs-dup");
  QuorumCert qc_dup{block, 4,
                    VoteList(SignAll(QuorumCert::VotePreimage(block, 4), {0, 1, 1}))};
  QuorumCert qc_unknown{block, 4,
                        VoteList(SignAll(QuorumCert::VotePreimage(block, 4), {0, 1, 2}))};
  votes = qc_unknown.votes.Entries();
  votes[2].first = 1000;
  qc_unknown.votes = VoteList(votes);
  TimeoutCert tc_dup{4, VoteList(SignAll(TimeoutCert::VotePreimage(4), {2, 2, 3}))};
  TimeoutCert tc_unknown{4, VoteList(SignAll(TimeoutCert::VotePreimage(4), {0, 1, 2}))};
  votes = tc_unknown.votes.Entries();
  votes[0].first = kN;
  tc_unknown.votes = VoteList(votes);
  EXPECT_FALSE(qc_dup.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(qc_unknown.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(tc_dup.Verify(committee, *signers[0], &cache));
  EXPECT_FALSE(tc_unknown.Verify(committee, *signers[0], &cache));

  // Rejected on structure, before any cache probe.
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CertCacheBudgetTest, WarmParentSetVerifiesWithoutHashing) {
  // Complexity budget: once a 20-validator header's 2f+1 parents are cached,
  // re-verifying them (VerifyAll, then each one) runs zero SHA-256
  // compressions — certificate identity costs no hashing.
  TestCommittee tc(20);
  std::vector<Certificate> parents;
  for (ValidatorId author = 0; author < tc.committee.quorum_threshold(); ++author) {
    parents.push_back(tc.Certify(Sha256::Hash("parent" + std::to_string(author)), 11, author));
  }
  VerifiedCertCache cache;
  uint64_t before = Sha256::blocks_processed();
  ASSERT_TRUE(Certificate::VerifyAll(parents, tc.committee, *tc.signers[0], &cache));
  EXPECT_GT(Sha256::blocks_processed(), before);  // Cold: FastMac verifies.

  before = Sha256::blocks_processed();
  ASSERT_TRUE(Certificate::VerifyAll(parents, tc.committee, *tc.signers[0], &cache));
  for (const Certificate& parent : parents) {
    ASSERT_TRUE(parent.Verify(tc.committee, *tc.signers[0], &cache));
  }
  EXPECT_EQ(Sha256::blocks_processed() - before, 0u);
  EXPECT_EQ(cache.stats().hits, 2 * parents.size());
}

TEST_F(CertCacheIntegrationTest, PerValidatorCachesVerifyIndependently) {
  // Two simulated validators each pass their own cache: the second validator
  // must NOT get a hit from the first one's verification — in a real
  // deployment each node does its own crypto work. (Before per-node caches,
  // validators 2..N of a single-process run rode the first one's singleton
  // entries and skipped ~(N-1)/N of the verification workload.)
  VerifiedCertCache cache_a;
  VerifiedCertCache cache_b;
  Certificate cert = Certify(Sha256::Hash("shared-cert"), 5, 1);

  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_TRUE(cert.Verify(committee, *signers[1], &cache_b));
  EXPECT_EQ(cache_a.stats().misses, 1u);
  EXPECT_EQ(cache_a.stats().insertions, 1u);
  EXPECT_EQ(cache_b.stats().misses, 1u);  // Verified again, not shared.
  EXPECT_EQ(cache_b.stats().insertions, 1u);

  // Re-delivery to the same validator is still a local hit, through
  // VerifyAll too.
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_EQ(cache_a.stats().hits, 1u);
  EXPECT_TRUE(Certificate::VerifyAll({cert}, committee, *signers[1], &cache_b));
  EXPECT_EQ(cache_b.stats().hits, 1u);
}

TEST_F(CertCacheIntegrationTest, MetricsAggregateRegisteredCaches) {
  Scheduler scheduler;
  Metrics metrics(&scheduler);
  VerifiedCertCache cache_a;
  VerifiedCertCache cache_b;
  metrics.RegisterCertCache(&cache_a);
  metrics.RegisterCertCache(&cache_b);
  EXPECT_EQ(metrics.cert_cache_hits(), 0u);
  EXPECT_EQ(metrics.cert_cache_misses(), 0u);

  Certificate cert = Certify(Sha256::Hash("registered-run"), 2, 1);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &cache_a));
  EXPECT_TRUE(cert.Verify(committee, *signers[1], &cache_b));
  EXPECT_EQ(metrics.cert_cache_misses(), 2u);  // One per validator cache.
  EXPECT_EQ(metrics.cert_cache_hits(), 1u);
  EXPECT_DOUBLE_EQ(metrics.CertCacheHitRate(), 1.0 / 3.0);
}

TEST_F(CertCacheIntegrationTest, MetricsKeepUnregisteredCacheActivity) {
  // A validator rebuilt after a restart unregisters its old cache before
  // destroying it: the old cache's activity stays in the run's totals, and
  // the new cache's activity adds to it.
  Scheduler scheduler;
  Metrics metrics(&scheduler);
  Certificate cert = Certify(Sha256::Hash("across-rebuild"), 2, 1);
  {
    VerifiedCertCache old_cache;
    metrics.RegisterCertCache(&old_cache);
    EXPECT_TRUE(cert.Verify(committee, *signers[0], &old_cache));
    EXPECT_TRUE(cert.Verify(committee, *signers[0], &old_cache));
    metrics.UnregisterCertCache(&old_cache);
  }
  EXPECT_EQ(metrics.cert_cache_misses(), 1u);
  EXPECT_EQ(metrics.cert_cache_hits(), 1u);

  VerifiedCertCache new_cache;
  metrics.RegisterCertCache(&new_cache);
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &new_cache));  // Cold again.
  EXPECT_TRUE(cert.Verify(committee, *signers[0], &new_cache));
  EXPECT_EQ(metrics.cert_cache_misses(), 2u);
  EXPECT_EQ(metrics.cert_cache_hits(), 2u);
  EXPECT_DOUBLE_EQ(metrics.CertCacheHitRate(), 0.5);
}

}  // namespace
}  // namespace nt
