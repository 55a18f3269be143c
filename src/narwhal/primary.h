// The Narwhal primary (paper §3.1, §4): builds the certificate DAG.
//
// Responsibilities:
//  - advance the local round once 2f+1 certificates of the previous round
//    are known (BFT threshold clock);
//  - propose one header per round referencing quorum-acked worker batches
//    and >= 2f+1 parent certificates;
//  - validate and vote on other validators' headers (first-per-author-per-
//    round, valid parents, referenced batches stored by our workers);
//  - assemble 2f+1 votes into certificates of availability and broadcast
//    them;
//  - pull-sync missing headers from certificate signers (§4.1) and missing
//    batches through its workers (§4.2);
//  - garbage-collect rounds below the consensus-agreed horizon and re-inject
//    own batches whose headers were collected uncommitted (§3.3).
//
// The consensus layer (Tusk or HotStuff) observes the DAG through hooks and
// feeds back commit/GC information; the primary never sends consensus
// messages itself.
#ifndef SRC_NARWHAL_PRIMARY_H_
#define SRC_NARWHAL_PRIMARY_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "src/narwhal/config.h"
#include "src/narwhal/dag.h"
#include "src/narwhal/worker.h"
#include "src/net/network.h"
#include "src/sim/timers.h"
#include "src/store/ledger.h"
#include "src/store/record.h"
#include "src/store/store.h"
#include "src/types/committee.h"
#include "src/types/messages.h"

namespace nt {

// ---- the primary store's WAL records ------------------------------------
//
// Headers, certificates, the vote ledger and the own-proposal marker are
// written ahead of use; everything below the GC horizon is erased when the
// horizon advances, so the store stays the size of the live DAG window.

// 'M': the durable GC horizon. Written before the erases below it, so
// recovery filters stale records against it even if those erases never land.
struct PrimaryMeta {
  static constexpr uint8_t kTag = 'M';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  Round gc_round = 0;

  Digest Key() const { return Sha256::Hash(std::string_view("primary/meta")); }
  static auto Fields(auto& self) { return WireFields(self.gc_round); }
};

// 'H': a header the DAG stored. Parents are named by digest, in header order
// (the header digest covers the order): every parent certificate is already
// durable as its own 'C' record, so Recover() rebuilds the full header from
// those. This keeps the record O(n) bytes where the full encoding is O(n^2).
// A sealed record: its value is the header's own buffer
// (BlockHeader::RecordValue), sealed once by the author, so every validator's
// store holds the author's one copy, and Recover() adopts the stored value as
// the rebuilt header's buffer.
struct HeaderRecord {
  static constexpr uint8_t kTag = BlockHeader::kRecordTag;
  static constexpr Prune kPrune = Prune::kGcHorizon;
  Digest digest{};              // The header's digest: the key, not encoded.
  BlockHeader header;           // `parents` stays empty ...
  std::vector<Digest> parents;  // ... they are named here.
  // The value, when the record has one: the adopted stored value of a record
  // read back, or the header's buffer of a record Of() a header, which
  // carries no fields. Null for a record built field by field, whose fields
  // Sealed() seals afresh.
  SharedBytes value = nullptr;

  // The record a primary stores for `header`: the key and the header's own
  // buffer, with no field copied.
  static HeaderRecord Of(const BlockHeader& header, const Digest& digest) {
    return {digest, {}, {}, header.RecordValue(digest)};
  }
  static Digest KeyOf(const Digest& header_digest) { return TaggedKey(kTag, header_digest); }
  Digest Key() const { return KeyOf(digest); }
  // The header's layout, the parents named by digest.
  static auto Fields(auto& self) { return BlockHeader::Fields(self.header, self.parents); }
  SharedBytes Sealed() const;
  static std::optional<HeaderRecord> Adopt(SharedBytes value);
};

// 'C': a certificate the DAG accepted, keyed by its header digest. A sealed
// record: its value is the certificate's own buffer, so every validator's
// store holds the author's one copy, and recovery adopts the stored buffer.
struct CertRecord {
  static constexpr uint8_t kTag = Certificate::kRecordTag;
  static constexpr Prune kPrune = Prune::kGcHorizon;
  Certificate cert;

  static Digest KeyOf(const Digest& header_digest) { return TaggedKey(kTag, header_digest); }
  Digest Key() const { return KeyOf(cert.header_digest); }
  static auto Fields(auto& self) { return WireFields(self.cert); }
  SharedBytes Sealed() const { return cert.RecordValue(); }
  static std::optional<CertRecord> Adopt(SharedBytes value);
};

// 'V': a vote-ledger entry, the header this validator voted for at
// (round, author). Synced before the vote leaves: the double-vote guard.
struct VoteRecord {
  static constexpr uint8_t kTag = 'V';
  static constexpr Prune kPrune = Prune::kGcHorizon;
  Round round = 0;
  ValidatorId author = 0;
  Digest digest{};

  static Digest KeyOf(Round round, ValidatorId author);
  Digest Key() const { return KeyOf(round, author); }
  static auto Fields(auto& self) { return WireFields(self.round, self.author, self.digest); }
};

// 'P': the header this validator signed for `round`. Synced before the
// header leaves: a recovered validator never signs a second one.
struct ProposalRecord {
  static constexpr uint8_t kTag = 'P';
  static constexpr Prune kPrune = Prune::kGcHorizon;
  Round round = 0;
  Digest digest{};

  static Digest KeyOf(Round round);
  Digest Key() const { return KeyOf(round); }
  static auto Fields(auto& self) { return WireFields(self.round, self.digest); }
};

using PrimaryStoreRecords =
    RecordList<PrimaryMeta, HeaderRecord, CertRecord, VoteRecord, ProposalRecord>;

class Primary : public NetNode {
 public:
  // The messages OnMessage dispatches.
  using Handles = MessageList<MsgHeader, MsgVote, MsgCertificate, MsgBatchReady, MsgBatchStored,
                              MsgCertRequest, MsgCertResponse>;

  Primary(ValidatorId id, const Committee& committee, const NarwhalConfig& config,
          Network* network, const Topology* topology, Signer* signer);

  void set_net_id(uint32_t id) { net_id_ = id; }

  // Attaches the durable store (non-owning; may be null = no persistence).
  // Headers, certificates, the vote ledger, and the own-proposal marker are
  // write-ahead persisted to it, making Recover() possible after a crash.
  void set_store(Store* store) { ledger_.set_store(store); }

  // Rebuilds round, DAG frontier, vote ledger, and the last own proposal
  // from the attached store. Call once, after construction and before any
  // hooks are registered or OnStart runs (recovery never fires hooks). The
  // vote ledger restore is the double-vote guard: a recovered validator
  // will not sign a second header or vote for a round it signed pre-crash.
  void Recover();

  // Attaches the cluster's tracer (nullptr = tracing off, the default).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // --- consensus-layer interface ----------------------------------------------

  // Fired whenever a new certificate enters the local DAG (own or remote).
  // Multiple listeners are supported (consensus plus the DST checker's
  // invariant monitors); they run in registration order.
  void add_on_certificate(std::function<void(const Certificate&)> hook) {
    on_certificate_hooks_.push_back(std::move(hook));
  }
  // Fired whenever a header becomes locally available (vote path or sync).
  void add_on_header_stored(std::function<void(const Digest&)> hook) {
    on_header_stored_hooks_.push_back(std::move(hook));
  }

  const Dag& dag() const { return dag_; }
  Round round() const { return round_; }
  ValidatorId id() const { return id_; }

  // Consensus agreed on a GC horizon: drop rounds below it and re-inject own
  // uncommitted batches (paper §3.3).
  void SetGcRound(Round gc_round);

  // Consensus committed `header` (`digest`): its batches need no re-injection.
  void NotifyCommitted(const Digest& digest, const BlockHeader& header);

  // Consensus is missing a header for a known certificate: pull it from the
  // certificate's signers (no-op if already stored or already being pulled).
  void SyncHeader(const Digest& header_digest) { RequestHeader(header_digest); }

  // Validates and stores a certificate learned out-of-band (e.g. from a
  // HotStuff proposal), pulling its header if missing. Returns false only
  // for invalid certificates. A new certificate is stored as a copy, which
  // shares the presented certificate's buffer.
  bool IngestCertificate(const Certificate& cert);

  // --- NetNode ------------------------------------------------------------------
  void OnStart() override;
  void OnMessage(uint32_t from, const MessagePtr& msg) override;

  // --- introspection (tests, metrics) ---------------------------------------------
  uint64_t headers_proposed() const { return headers_proposed_; }
  // Recovery metrics: records replayed from the store by Recover() and
  // pull-sync requests issued (cumulative; the delta after a restart is the
  // rejoin cost reported in EXPERIMENTS.md).
  uint64_t recovered_store_records() const { return recovered_store_records_; }
  uint64_t header_sync_requests() const { return header_sync_requests_; }
  // Headers being pulled from certificate signers right now.
  size_t headers_syncing() const { return header_sync_.size(); }
  // Test-only: lets protocol tests stage DAG states directly.
  Dag& mutable_dag() { return dag_; }
  uint64_t certs_formed() const { return certs_formed_; }
  uint64_t votes_cast() const { return votes_cast_; }
  uint64_t reinjected_batches() const { return reinjected_batches_; }

 private:
  struct Proposal {
    std::shared_ptr<const BlockHeader> header;
    Digest digest{};
    std::map<ValidatorId, Signature> votes;
  };
  struct PendingHeader {
    std::shared_ptr<const BlockHeader> header;
    Digest digest{};
    std::set<Digest> missing_batches;
  };

  // Round/proposal machinery.
  void TryAdvanceRound();
  void SchedulePropose();
  void ProposeNow();
  // Re-sends own proposal `digest` (header, then certificate) while its round
  // is current; ScheduleRebroadcast repeats it on the kHeaderRetry backoff.
  bool RetryBroadcast(const Digest& digest, Round round);
  void ScheduleRebroadcast(const Digest& digest, Round round, uint32_t attempt);

  // Header validation & voting.
  void HandleHeader(const MsgHeader& msg);
  // Parent intake of a header to vote on or from a sync reply (DESIGN §3.4).
  // False if the parents are malformed, mislabelled, invalid or conflicting.
  bool AcceptParents(const std::shared_ptr<const BlockHeader>& header);
  void FinishVote(const PendingHeader& pending);

  // Votes -> certificates.
  void HandleVote(const Vote& vote);
  void FormCertificate(Proposal& proposal);

  // Certificate intake: verifies the certificate unless the caller already
  // did (`verified`), stores `ptr` in the DAG and fires the hooks. Returns
  // false only for an invalid or conflicting certificate; a stale or already
  // held one is accepted without a check.
  bool AcceptCertificate(CertPtr ptr, bool request_header_if_missing, bool verified);

  // Pull synchronizer for missing headers.
  void RequestHeader(const Digest& digest);
  // Asks the `attempt`-th signer in turn; false once the header is held.
  bool RetryHeaderSync(const Digest& digest, uint32_t attempt);

  void StoreHeader(std::shared_ptr<const BlockHeader> header, const Digest& digest);

  ValidatorId id_;
  const Committee& committee_;
  NarwhalConfig config_;
  Network* network_;
  const Topology* topology_;
  // The signing key and the durable store (null = ephemeral). The store is
  // owned by the runtime, which keeps it alive across simulated restarts of
  // this object.
  SigningLedger ledger_;
  uint32_t net_id_ = 0;
  Tracer* tracer_ = nullptr;

  Dag dag_;
  Round round_ = 0;
  bool proposed_current_round_ = false;
  Scheduler::TimerId propose_timer_ = Scheduler::kInvalidTimer;

  // Quorum-acked own batches awaiting inclusion.
  std::deque<BatchRef> pending_batches_;
  // Digests already assigned to a header (avoid double inclusion).
  std::set<Digest> included_batches_;
  // Batches our own workers report stored (any author).
  DigestSet stored_batches_;

  // Outstanding own proposals: header digest -> votes.
  std::map<Digest, Proposal> proposals_;
  // (round -> author -> header digest voted for): at most one vote per
  // author per round; the digest lets us re-send the same vote when the
  // proposer retransmits (vote messages may be lost).
  std::map<Round, std::map<ValidatorId, Digest>> voted_;

  // Headers deferred on missing batches.
  std::map<Digest, PendingHeader> waiting_batches_;
  std::map<Digest, std::set<Digest>> batch_waiters_;  // batch -> headers.

  // Headers being pulled from certificate signers: digest -> certificate.
  std::map<Digest, CertPtr> header_sync_;

  // Own headers' batch refs, for re-injection: header digest -> refs.
  std::map<Digest, std::vector<BatchRef>> own_headers_;
  std::set<Digest> committed_batches_;  // Own only: re-injection reads no other.

  std::vector<std::function<void(const Certificate&)>> on_certificate_hooks_;
  std::vector<std::function<void(const Digest&)>> on_header_stored_hooks_;

  uint64_t headers_proposed_ = 0;
  uint64_t certs_formed_ = 0;
  uint64_t votes_cast_ = 0;
  uint64_t reinjected_batches_ = 0;

  Round store_gc_round_ = 0;  // Horizon below which store records are erased.
  // 'C' records of round store_gc_round_ - 1: the parents of headers at the
  // horizon, which Recover() rebuilds from them. Erased at the next advance.
  std::vector<Digest> retained_cert_records_;
  bool recovered_ = false;
  Digest recovered_proposal_{};
  std::vector<Digest> recovered_missing_headers_;
  uint64_t recovered_store_records_ = 0;
  uint64_t header_sync_requests_ = 0;

  Timers timers_;  // Every timer of this primary.
};

}  // namespace nt

#endif  // SRC_NARWHAL_PRIMARY_H_
