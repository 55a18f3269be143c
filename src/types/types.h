// Core Narwhal data types (paper §3.1): worker batches, primary block
// headers, votes, and certificates of availability — plus canonical
// encodings used for digests and signatures.
#ifndef SRC_TYPES_TYPES_H_
#define SRC_TYPES_TYPES_H_

#include <cstdint>
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
#include "src/types/committee.h"

namespace nt {

class VerifiedCertCache;

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

// A certificate of availability: 2f+1 signed acknowledgments that a header
// (and the batches it references) is stored by a quorum (paper §3.1, §4.1).
struct Certificate {
  Digest header_digest{};
  Round round = 0;
  ValidatorId author = 0;
  // (voter, signature over the vote pre-image), sorted by voter id.
  std::vector<std::pair<ValidatorId, Signature>> votes;

  // The certificate certifies the header; its identity is the header digest.
  const Digest& digest() const { return header_digest; }

  // Pre-image each voter signs: (header_digest, round, author).
  static Bytes VotePreimage(const Digest& header_digest, Round round, ValidatorId author);

  void Encode(Writer& w) const;
  static std::optional<Certificate> Decode(Reader& r);

  // Structural + cryptographic validity: >= 2f+1 distinct known voters whose
  // signatures verify. `verifier` supplies the scheme. Signatures are checked
  // through the signer's batch kernel. A positive result is memoized in
  // `cache` when one is given: the cache finds the entry by header digest and
  // round, then compares author, committee fingerprint and the exact (voter,
  // signature) list, so a re-delivery costs no encoding and no hashing, and a
  // different vote set under a known digest is verified afresh. A null
  // `cache` memoizes nothing and checks every signature. The primary passes
  // null: its Dag is its memo, since it verifies a certificate once, on first
  // sight, and afterwards matches it by digest (see Primary::HandleHeader).
  // Mempool::Valid, HotStuff and the light client pass their own caches.
  // A cache is always the verifying validator's own: every simulated
  // validator does its own crypto work, as a real deployment would.
  bool Verify(const Committee& committee, const Signer& verifier, VerifiedCertCache* cache) const;

  // Verifies many certificates with a single batched flush across all their
  // uncached vote signatures — the bulk entry point for header-parent sets
  // and certificate payloads. Returns true iff every certificate is valid;
  // each valid certificate lands in `cache`, if given (so per-certificate
  // Verify calls that follow are hits), even when some other certificate
  // fails. `cache` as in Verify.
  static bool VerifyAll(const std::vector<Certificate>& certs, const Committee& committee,
                        const Signer& verifier, VerifiedCertCache* cache);
  static bool VerifyAll(std::span<const Certificate* const> certs, const Committee& committee,
                        const Signer& verifier, VerifiedCertCache* cache);

  size_t WireSize() const;
};

// An immutable certificate, shared by every holder in the process. A Dag
// entry usually aliases into the message or header that delivered it (the
// shared_ptr aliasing constructor), so holding it costs no copy.
using CertPtr = std::shared_ptr<const Certificate>;

// A primary block header (paper Fig. 2): the DAG vertex. References this
// validator's fresh worker batches and >= 2f+1 certificates from the
// previous round (none at round 0).
struct BlockHeader {
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

  bool Verify(const Committee& committee, const Signer& verifier) const;

  size_t WireSize() const;
};

}  // namespace nt

#endif  // SRC_TYPES_TYPES_H_
