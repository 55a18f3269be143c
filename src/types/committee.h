// Committee configuration: the identities, public keys, and quorum
// thresholds of the n validators (f < n/3 may be faulty).
#ifndef SRC_TYPES_COMMITTEE_H_
#define SRC_TYPES_COMMITTEE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/crypto/signer.h"

namespace nt {

class VoteList;

using ValidatorId = uint32_t;
using WorkerId = uint32_t;
// Execution lane within a validator (src/shard/): the key space is
// partitioned into `num_shards` lanes, each backed by its own state machine.
using ShardId = uint32_t;
using Round = uint64_t;

struct ValidatorInfo {
  PublicKey key{};
  // Region index used by the latency model (WanRegion for WAN runs).
  uint32_t region = 0;
};

// A set of committee members: a committee-sized bitmap, kept on the stack
// for committees of up to 256 validators. Members are ids below the
// committee size; the caller checks Committee::Contains first.
class MemberSet {
 public:
  explicit MemberSet(uint32_t committee_size) {
    if (committee_size > 64 * kInlineWords) {
      heap_words_.assign((committee_size + 63) / 64, 0);
      words_ = heap_words_.data();
    }
  }
  MemberSet(const MemberSet&) = delete;
  MemberSet& operator=(const MemberSet&) = delete;

  // Adds `id`; false if it was already in the set.
  bool Insert(ValidatorId id) {
    const uint64_t bit = uint64_t{1} << (id % 64);
    if ((words_[id / 64] & bit) != 0) {
      return false;
    }
    words_[id / 64] |= bit;
    ++size_;
    return true;
  }
  uint32_t size() const { return size_; }

 private:
  static constexpr size_t kInlineWords = 4;
  std::array<uint64_t, kInlineWords> inline_words_{};
  std::vector<uint64_t> heap_words_;
  uint64_t* words_ = inline_words_.data();
  uint32_t size_ = 0;
};

class Committee {
 public:
  Committee() { ComputeFingerprint(); }
  explicit Committee(std::vector<ValidatorInfo> validators)
      : validators_(std::move(validators)) {
    ComputeFingerprint();
  }

  uint32_t size() const { return static_cast<uint32_t>(validators_.size()); }

  // The blessed home of all quorum arithmetic. Every threshold in the tree
  // routes through these helpers (or the instance methods below, which
  // delegate) — enforced by ntlint rule R3 (quorum-arith), so a typo'd
  // literal like `2*f` elsewhere is a build failure, not a latent safety bug.

  // Maximum number of Byzantine validators tolerated: f = floor((n-1)/3).
  static constexpr uint32_t MaxFaultyFor(uint32_t n) { return (n - 1) / 3; }

  // 2f+1 — certificates of availability, round advancement.
  static constexpr uint32_t QuorumThresholdFor(uint32_t n) {
    return 2 * MaxFaultyFor(n) + 1;
  }

  // f+1 — guaranteed to include one honest validator (Tusk commit rule).
  static constexpr uint32_t ValidityThresholdFor(uint32_t n) {
    return MaxFaultyFor(n) + 1;
  }

  uint32_t f() const { return MaxFaultyFor(size()); }
  uint32_t quorum_threshold() const { return QuorumThresholdFor(size()); }
  uint32_t validity_threshold() const { return ValidityThresholdFor(size()); }

  const ValidatorInfo& validator(ValidatorId id) const { return validators_[id]; }
  const PublicKey& key_of(ValidatorId id) const { return validators_[id].key; }

  std::optional<ValidatorId> IndexOf(const PublicKey& key) const {
    for (uint32_t i = 0; i < size(); ++i) {
      if (validators_[i].key == key) {
        return i;
      }
    }
    return std::nullopt;
  }

  bool Contains(ValidatorId id) const { return id < size(); }

  // True iff every voter is a committee member and none appears twice — the
  // voter check of every certificate kind. Defined beside VoteList
  // (src/types/types.cpp).
  bool DistinctMembers(const VoteList& votes) const;

  // Stable digest of the membership (all public keys, in id order). Bound
  // into every verified-certificate cache entry, so a cached verification can
  // never leak between committees that happen to share certificate bytes.
  // Computed once at construction, so a cache probe reads it without
  // hashing.
  const Digest& fingerprint() const { return fingerprint_; }

 private:
  void ComputeFingerprint() {
    Sha256 h;
    h.Update("nt-committee");
    for (const ValidatorInfo& v : validators_) {
      h.Update(v.key.data(), v.key.size());
    }
    fingerprint_ = h.Finalize();
  }

  std::vector<ValidatorInfo> validators_;
  Digest fingerprint_{};
};

}  // namespace nt

#endif  // SRC_TYPES_COMMITTEE_H_
