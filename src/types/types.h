// Core Narwhal data types (paper §3.1): worker batches, primary block
// headers, votes, and certificates of availability — plus canonical
// encodings used for digests and signatures.
#ifndef SRC_TYPES_TYPES_H_
#define SRC_TYPES_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/codec.h"
#include "src/common/time.h"
#include "src/crypto/hash.h"
#include "src/crypto/signer.h"
#include "src/net/message.h"
#include "src/types/cert_cache.h"
#include "src/types/committee.h"

namespace nt {

// A sampled transaction used for end-to-end latency measurement: the paper
// measures latency "by tracking sample transactions throughout the system".
struct TxSample {
  uint64_t tx_id = 0;
  TimePoint submit_time = 0;
};

// A worker batch: the unit of bulk transaction dissemination (paper §4.2).
//
// A sealed batch is its canonical encoding: one immutable buffer, written
// once when the batch is sealed and then shared by everything that needs the
// batch — its digest, the network message, every validator's simulated disk,
// recovery and execution. Beside the buffer sit the decoded header fields;
// each explicit transaction is a view into the buffer. A batch comes from one
// of two places: a Builder seals it, or Decode adopts stored bytes.
//
// Transactions are carried in two forms that may be mixed:
//  - explicit transaction payloads (executable workloads, examples, tests);
//  - `num_txs`/`payload_bytes` aggregates: the benchmark workload counts
//    transactions without materializing 512 bytes each, exactly like the
//    paper's load generator accounts for submitted load. `num_txs` and
//    `payload_bytes` always cover the explicit transactions too.
class Batch {
 public:
  using TxView = std::span<const uint8_t>;

  // A batch being filled: what a worker accumulates between seals.
  class Builder {
   public:
    Builder(ValidatorId author, WorkerId worker) : author_(author), worker_(worker) {}

    // An explicit transaction, counted in num_txs and payload_bytes.
    void AddTx(TxView tx);
    // Transactions counted without bytes.
    void AddLoad(uint64_t num_txs, uint64_t payload_bytes) {
      num_txs_ += num_txs;
      payload_bytes_ += payload_bytes;
    }
    void AddSample(const TxSample& sample) { samples_.push_back(sample); }

    uint64_t num_txs() const { return num_txs_; }
    uint64_t payload_bytes() const { return payload_bytes_; }

    // Writes the canonical encoding once, as sequence number `seq`, and
    // empties the builder for the next batch.
    std::shared_ptr<const Batch> Seal(uint64_t seq);

   private:
    ValidatorId author_;
    WorkerId worker_;
    uint64_t num_txs_ = 0;
    uint64_t payload_bytes_ = 0;
    std::vector<TxSample> samples_;
    uint32_t explicit_txs_ = 0;
    Writer txs_;  // The explicit transactions, u32-length-prefixed, in order.
  };

  // Adopts `bytes` as the batch's buffer. Strict: nullopt unless `bytes` is
  // exactly one well-formed encoding.
  static std::optional<Batch> Decode(SharedBytes bytes);
  // Reads one encoding from `r` (which may hold more) into a buffer of its
  // own: the inverse of Encode, for a batch nested in another message.
  static std::optional<Batch> Decode(Reader& r);
  // Appends the canonical encoding, as it is.
  void Encode(Writer& w) const;

  ValidatorId author() const { return author_; }
  WorkerId worker() const { return worker_; }
  uint64_t seq() const { return seq_; }  // Per-(author, worker) sequence number.
  uint64_t num_txs() const { return num_txs_; }
  uint64_t payload_bytes() const { return payload_bytes_; }
  const std::vector<TxSample>& samples() const { return samples_; }
  // The explicit transactions, as views into bytes(): valid while any copy
  // of this batch (or of the buffer) is alive.
  const std::vector<TxView>& txs() const { return txs_; }
  // The canonical encoding.
  const SharedBytes& bytes() const { return bytes_; }

  // SHA-256 over the "narwhal-batch" prefix and the encoding.
  Digest ComputeDigest() const;

  // Bytes on the wire: the payload plus framing; sample metadata rides in
  // the batch (16 bytes each).
  size_t WireSize() const;

 private:
  Batch() = default;

  // Reads one encoding from `r` into `b`, the transactions as views into the
  // bytes `r` reads. False on a short read, a count the input cannot hold,
  // or explicit transactions that num_txs/payload_bytes do not cover.
  static bool Parse(Reader& r, Batch& b);

  SharedBytes bytes_;
  ValidatorId author_ = 0;
  WorkerId worker_ = 0;
  uint64_t seq_ = 0;
  uint64_t num_txs_ = 0;
  uint64_t payload_bytes_ = 0;
  std::vector<TxSample> samples_;
  std::vector<TxView> txs_;
};

// Reference to a batch inside a primary block header.
struct BatchRef {
  Digest digest{};
  WorkerId worker = 0;
  uint64_t num_txs = 0;
  uint64_t payload_bytes = 0;

  void Encode(Writer& w) const;
  static BatchRef Decode(Reader& r);

  bool operator==(const BatchRef& other) const = default;
};

// The votes of a certificate of any kind — a Narwhal certificate of
// availability, a HotStuff QC or TC: (voter, signature over the vote
// pre-image) pairs, sorted by voter id, held as their encoding in one
// immutable shared buffer — a u32 count, then per vote a u32 voter and the 64
// signature bytes. Copying a list copies one pointer. A sealed certificate's
// list is a view into the certificate's own buffer (see Certificate).
class VoteList {
 public:
  // A vote as it is supplied: what the list is built from.
  using Entry = std::pair<ValidatorId, Signature>;

  // A vote as the list holds it: the voter, and a view of the signature in
  // the list's buffer, valid while any copy of the list is alive. Read-only:
  // a different list is built from Entries().
  struct View {
    const ValidatorId voter;
    const std::span<const uint8_t, 64> sig;

    Signature signature() const;
  };

  class Iterator {
   public:
    using value_type = View;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    View operator*() const;
    Iterator& operator++() {
      at_ += kEntrySize;
      return *this;
    }
    bool operator==(const Iterator& other) const = default;

   private:
    friend class VoteList;
    explicit Iterator(const uint8_t* at) : at_(at) {}
    const uint8_t* at_ = nullptr;
  };

  // Encoded bytes per vote.
  static constexpr size_t kEntrySize = 4 + 64;

  VoteList() = default;
  VoteList(std::initializer_list<Entry> votes)
      : VoteList(std::span<const Entry>(votes.begin(), votes.size())) {}
  explicit VoteList(std::span<const Entry> votes);

  // The first `count` of `collected`, a voter-sorted map of verified votes:
  // the quorum a node forms a certificate of any kind from.
  static std::vector<Entry> Quorum(const std::map<ValidatorId, Signature>& collected,
                                   size_t count);

  // Appends bytes(): the count, then the votes.
  void Encode(Writer& w) const;
  // Reads one encoding from `r` (which may hold more) into a buffer of its
  // own. Bounded: a vote count the remaining input cannot hold is rejected
  // before anything is allocated.
  static std::optional<VoteList> Decode(Reader& r);

  size_t size() const;
  View operator[](size_t i) const { return *Iterator(entries() + i * kEntrySize); }
  Iterator begin() const { return Iterator(entries()); }
  Iterator end() const { return Iterator(entries() + size() * kEntrySize); }

  // The encoding (count, then votes), viewed in the buffer.
  std::span<const uint8_t> bytes() const;
  // The votes, decoded: a starting point for building a different list.
  std::vector<Entry> Entries() const;

  // Same votes in the same order: the encodings are equal.
  bool operator==(const VoteList& other) const;

 private:
  friend struct Certificate;

  // The list whose encoding starts `offset` bytes into `buffer` and runs to
  // its end.
  VoteList(SharedBytes buffer, uint32_t offset) : buffer_(std::move(buffer)), offset_(offset) {}

  const uint8_t* entries() const { return bytes().data() + 4; }

  SharedBytes buffer_;  // Null for the empty list.
  uint32_t offset_ = 0;
};

// Votes a Narwhal certificate of availability needs, to form (Primary) and
// to pass the structure check: 2f+1, or 2f under the seeded kAccept2fCerts
// mutation, which breaks quorum intersection (src/common/seeded_bugs.h).
uint32_t NarwhalCertQuorum(const Committee& committee);

// A certificate of any kind as VerifySignedVotes sees it: (kind, subject,
// round, author) is what it certifies (see VerifiedCertCache::Claim), and
// `preimage` builds from them what every vote signs, only for a set whose
// signatures are checked. Borrows its fields.
struct SignedVotes {
  VerifiedCertCache::Kind kind;
  const Digest& subject;
  uint64_t round;
  ValidatorId author;
  const VoteList& votes;
  Bytes (*preimage)(const Digest& subject, uint64_t round, ValidatorId author);
};

// The verification kernel of every certificate kind. Per set: >= 2f+1
// distinct committee voters (NarwhalCertQuorum for Narwhal certificates),
// then a probe of `cache` on the list's own bytes; then one batched flush
// over every unverified set's signatures. True iff every set is valid. Each
// valid set lands in `cache`, if given, even when another fails; a null
// `cache` memoizes nothing.
bool VerifySignedVotes(std::span<const SignedVotes> sets, const Committee& committee,
                       const Verifier& verifier, VerifiedCertCache* cache);

// A certificate of availability: 2f+1 signed acknowledgments that a header
// (and the batches it references) is stored by a quorum (paper §3.1, §4.1).
//
// A sealed certificate is its 'C' record value: one immutable buffer holding
// the tag 'C' and then the encoding (header digest, round, author, votes),
// written once when the certificate is sealed. `votes` views that buffer, so
// copying a certificate copies one pointer beside the header fields, and
// every holder in the process — the DAGs and stores of all validators, the
// parents of later headers, messages and recovery — shares the author's one
// buffer. A certificate is sealed by the constructor that takes its votes, by
// Decode, and by adopting a stored value. One built field by field (tests,
// tools) is not sealed, and neither is one whose fields were assigned after
// sealing: RecordValue() seals a copy of those on demand.
struct Certificate {
  // The first byte of a sealed certificate's buffer: the tag of the
  // primary's 'C' record (CertRecord), written by SealRecordValue.
  static constexpr uint8_t kRecordTag = 'C';

  Digest header_digest{};
  Round round = 0;
  ValidatorId author = 0;
  VoteList votes;

  Certificate() = default;
  // Seals the certificate of (digest, round, author) over `entries`, sorted
  // by voter id.
  Certificate(const Digest& digest, Round cert_round, ValidatorId cert_author,
              std::span<const VoteList::Entry> entries);

  // The certificate certifies the header; its identity is the header digest.
  const Digest& digest() const { return header_digest; }

  // Pre-image each voter signs: (header_digest, round, author).
  static Bytes VotePreimage(const Digest& header_digest, Round round, ValidatorId author);

  void Encode(Writer& w) const;
  // Reads one encoding from `r` (which may hold more) into a sealed buffer
  // of its own. Bounded: a vote count the remaining input cannot hold is
  // rejected before anything is allocated.
  static std::optional<Certificate> Decode(Reader& r);
  // Adopts `record_value`, a 'C' record value as RecordValue() returns it,
  // as the certificate's buffer. Strict: nullopt unless it is exactly one
  // well-formed value.
  static std::optional<Certificate> Decode(SharedBytes record_value);

  // The 'C' record value: the certificate's own buffer if it is sealed,
  // else a freshly sealed one with the same bytes.
  SharedBytes RecordValue() const;

  // Structural + cryptographic validity (VerifySignedVotes): >= 2f+1
  // distinct known voters whose signatures verify. `verifier` supplies the
  // scheme. Signatures are checked through the signer's batch kernel. A
  // positive result is memoized in `cache` when one is given: the cache
  // finds the entry by header digest and round, then compares author,
  // committee fingerprint and the exact vote bytes, so a re-delivery costs
  // no encoding and no hashing, and a different vote set under a known
  // digest is verified afresh. A null `cache` memoizes nothing and checks
  // every signature. The primary passes null: its Dag is its memo, since it
  // verifies a certificate once, on first sight, and afterwards matches it
  // by digest (see Primary::AcceptParents). Mempool::Valid passes its own
  // cache.
  // A cache is always the verifying validator's own: every simulated
  // validator does its own crypto work, as a real deployment would.
  bool Verify(const Committee& committee, const Verifier& verifier, VerifiedCertCache* cache) const;

  // Verifies many certificates with a single batched flush across all their
  // uncached vote signatures — the bulk entry point for header-parent sets
  // and certificate payloads. Returns true iff every certificate is valid;
  // each valid certificate lands in `cache`, if given (so per-certificate
  // Verify calls that follow are hits), even when some other certificate
  // fails. `cache` as in Verify.
  static bool VerifyAll(const std::vector<Certificate>& certs, const Committee& committee,
                        const Verifier& verifier, VerifiedCertCache* cache);
  static bool VerifyAll(std::span<const Certificate* const> certs, const Committee& committee,
                        const Verifier& verifier, VerifiedCertCache* cache);

  size_t WireSize() const;

 private:
  // True iff `votes` views a sealed buffer whose header fields are this
  // certificate's.
  bool Sealed() const;
};

// An immutable certificate, shared by every holder in the process. A Dag
// entry usually aliases into the message or header that delivered it (the
// shared_ptr aliasing constructor); a copy would cost only the header fields
// and a pointer to the shared buffer.
using CertPtr = std::shared_ptr<const Certificate>;

// A primary block header (paper Fig. 2): the DAG vertex. References this
// validator's fresh worker batches and >= 2f+1 certificates from the
// previous round (none at round 0).
//
// A sealed header carries its 'H' record value: one immutable buffer holding
// the tag 'H' and then the record fields (author, round, batch refs, the
// parents' digests in header order, the signature), written once when the
// author signs the header. Every validator that stores the header, as its
// primary's HeaderRecord, shares that buffer; recovery adopts the stored
// value as the rebuilt header's. The buffer is bound to the digest and
// signature it was sealed for, and a copy of a header starts unsealed, so a
// header whose fields change is never stored with stale bytes. A header built
// field by field (tests, tools) is not sealed: RecordValue() seals a value on
// demand.
struct BlockHeader {
  // The first byte of a sealed header's buffer: the tag of the primary's 'H'
  // record (HeaderRecord), written by SealRecordValue.
  static constexpr uint8_t kRecordTag = 'H';

  ValidatorId author = 0;
  Round round = 0;
  std::vector<BatchRef> batches;
  std::vector<Certificate> parents;
  Signature author_sig{};  // Over ComputeDigest().

  // Digest covers author, round, batch refs, and parent identities (not the
  // parents' vote sets — two headers differing only in how a parent
  // certificate was assembled are the same block).
  Digest ComputeDigest() const;

  void Encode(Writer& w) const;
  static std::optional<BlockHeader> Decode(Reader& r);

  // The 'H' record fields, everything after the tag, naming the parents by
  // `parent_digests` (in header order) in place of `parents`: a header read
  // back from its record holds no parent certificates.
  void EncodeRecordFields(Writer& w, std::span<const Digest> parent_digests) const;
  // Reads the fields EncodeRecordFields writes into a header without parents,
  // and the digests that name them into `parent_digests`. Nullopt on a short
  // read; trailing bytes are the caller's to reject.
  static std::optional<BlockHeader> DecodeRecordFields(Reader& r,
                                                       std::vector<Digest>& parent_digests);

  // Seals the 'H' record value for `digest` (this header's ComputeDigest())
  // and the current signature: the author calls it once it has signed.
  void Seal(const Digest& digest);
  // Adopts `record_value`, the stored 'H' value this header was rebuilt from,
  // as its buffer for `digest`.
  void Adopt(SharedBytes record_value, const Digest& digest);
  // The 'H' record value for `digest`: the header's own buffer if it was
  // sealed for `digest` and the current signature, else a freshly sealed one.
  SharedBytes RecordValue(const Digest& digest) const;

  size_t WireSize() const;

  uint64_t TotalTxs() const {
    uint64_t total = 0;
    for (const BatchRef& b : batches) {
      total += b.num_txs;
    }
    return total;
  }
  uint64_t TotalPayloadBytes() const {
    uint64_t total = 0;
    for (const BatchRef& b : batches) {
      total += b.payload_bytes;
    }
    return total;
  }

 private:
  // The sealed buffer and the digest it was sealed for. A copy starts
  // unsealed: the copy's fields may be changed before it is stored.
  struct RecordSeal {
    SharedBytes value;
    Digest digest{};

    RecordSeal() = default;
    RecordSeal(const RecordSeal&) {}
    RecordSeal(RecordSeal&&) = default;
    RecordSeal& operator=(const RecordSeal&) { return *this = RecordSeal(); }
    RecordSeal& operator=(RecordSeal&&) = default;
  };
  RecordSeal seal_;
};

// A vote on a header: the acknowledgment of storage that counts toward a
// certificate of availability.
struct Vote {
  Digest header_digest{};
  Round round = 0;
  ValidatorId author = 0;  // Header author.
  ValidatorId voter = 0;
  Signature sig{};

  void Encode(Writer& w) const;
  static std::optional<Vote> Decode(Reader& r);

  bool Verify(const Committee& committee, const Verifier& verifier) const;

  size_t WireSize() const;
};

}  // namespace nt

#endif  // SRC_TYPES_TYPES_H_
