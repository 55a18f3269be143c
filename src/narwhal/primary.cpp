#include "src/narwhal/primary.h"

#include <algorithm>

#include "src/common/codec.h"
#include "src/common/logging.h"

namespace nt {

Primary::Primary(ValidatorId id, const Committee& committee, const NarwhalConfig& config,
                 Network* network, const Topology* topology, Signer* signer)
    : id_(id),
      committee_(committee),
      config_(config),
      network_(network),
      topology_(topology),
      ledger_(signer),
      timers_(network->scheduler()) {}

void Primary::OnStart() {
  if (recovered_) {
    // Rejoin after a crash: pull headers the recovered certificates still
    // miss, re-broadcast the in-flight proposal if one was signed pre-crash
    // (never sign a second header for that round), and only propose fresh
    // when the recovered round has no proposal marker.
    for (const Digest& digest : recovered_missing_headers_) {
      RequestHeader(digest);
    }
    recovered_missing_headers_.clear();
    if (proposed_current_round_) {
      if (RetryBroadcast(recovered_proposal_, round_)) {
        ScheduleRebroadcast(recovered_proposal_, round_, 1);
      }
    } else {
      SchedulePropose();
    }
    return;
  }
  // Genesis (paper §3.1): every validator creates and certifies an empty
  // block for round 0; round-1 blocks reference 2f+1 of their certificates.
  ProposeNow();
}

// ---------------------------------------------------------------- persistence

// The fields' layout is BlockHeader's (EncodeRecordFields); Encode and
// Decode carry the value after its tag, as it is.
void HeaderRecord::Encode(Writer& w) const {
  const SharedBytes sealed = Sealed();
  w.PutRaw(sealed->data() + 1, sealed->size() - 1);
}

std::optional<HeaderRecord> HeaderRecord::Decode(Reader& r) {
  const std::span<const uint8_t> fields = r.GetRawView(r.remaining());
  return Adopt(SealRecordValue(kTag, [&](Writer& w) { w.PutRaw(fields.data(), fields.size()); }));
}

SharedBytes HeaderRecord::Sealed() const {
  if (value != nullptr) {
    return value;
  }
  return SealRecordValue(kTag, [this](Writer& w) { header.EncodeRecordFields(w, parents); });
}

std::optional<HeaderRecord> HeaderRecord::Adopt(SharedBytes value) {
  if (value == nullptr || value->empty() || (*value)[0] != kTag) {
    return std::nullopt;
  }
  Reader r(value->data() + 1, value->size() - 1);
  HeaderRecord rec;
  std::optional<BlockHeader> header = BlockHeader::DecodeRecordFields(r, rec.parents);
  if (!header.has_value() || !r.AtEnd()) {
    return std::nullopt;
  }
  rec.header = std::move(*header);
  rec.value = std::move(value);
  return rec;
}

void CertRecord::Encode(Writer& w) const { cert.Encode(w); }

std::optional<CertRecord> CertRecord::Decode(Reader& r) {
  std::optional<Certificate> cert = Certificate::Decode(r);
  if (!cert.has_value() || !r.AtEnd()) {
    return std::nullopt;
  }
  return CertRecord{std::move(*cert)};
}

std::optional<CertRecord> CertRecord::Adopt(SharedBytes value) {
  std::optional<Certificate> cert = Certificate::Decode(std::move(value));
  if (!cert.has_value()) {
    return std::nullopt;
  }
  return CertRecord{std::move(*cert)};
}

Digest VoteRecord::KeyOf(Round round, ValidatorId author) {
  Writer w;
  w.PutU8(kTag);
  w.PutU64(round);
  w.PutU32(author);
  return Sha256::Hash(w.bytes());
}

Digest ProposalRecord::KeyOf(Round round) {
  Writer w;
  w.PutU8(kTag);
  w.PutU64(round);
  return Sha256::Hash(w.bytes());
}

void Primary::Recover() {
  Store* store = ledger_.store();
  if (store == nullptr) {
    return;
  }
  recovered_ = true;

  Round gc_round = 0;
  // A header record names its parents by digest; they are resolved against
  // the 'C' records once the whole store has been read. Each certificate and
  // each rebuilt header adopts its stored value as its buffer, so the DAG
  // entries, the headers' parents and a later re-persist share the store's
  // bytes, as before the crash.
  std::vector<HeaderRecord> headers;
  std::vector<Certificate> certs;
  std::vector<VoteRecord> votes;
  std::map<Round, Digest> markers;
  recovered_store_records_ += PrimaryStoreRecords::ForEach(
      *store, Overloaded{
                  [&](const PrimaryMeta& m) { gc_round = m.gc_round; },
                  [&](HeaderRecord&& h) { headers.push_back(std::move(h)); },
                  [&](CertRecord&& c) { certs.push_back(std::move(c.cert)); },
                  [&](const VoteRecord& v) { votes.push_back(v); },
                  [&](const ProposalRecord& p) { markers[p.round] = p.digest; },
              });

  // Set the GC horizon first so records from rounds that were already
  // collected pre-crash (written before the last meta update) are filtered
  // the same way live traffic would be.
  dag_.GarbageCollect(gc_round);
  store_gc_round_ = gc_round;
  std::sort(certs.begin(), certs.end(), [](const Certificate& a, const Certificate& b) {
    return a.round != b.round ? a.round < b.round : a.author < b.author;
  });
  DigestMap<const Certificate*> cert_index;
  for (const Certificate& cert : certs) {
    cert_index.emplace(cert.header_digest, &cert);
  }
  for (HeaderRecord& rec : headers) {
    BlockHeader& header = rec.header;
    if (header.round < gc_round) {
      continue;
    }
    for (const Digest& parent : rec.parents) {
      const Certificate* const* cert = cert_index.find(parent);
      if (cert == nullptr || (*cert)->round + 1 != header.round) {
        break;
      }
      header.parents.push_back(**cert);
    }
    if (header.parents.size() != rec.parents.size()) {
      // A parent record is missing (a parent accepted below the horizon is
      // never persisted). Leave the header out: if its certificate is known,
      // OnStart pulls it from peers like any other missing header.
      continue;
    }
    Digest digest = header.ComputeDigest();
    if (dag_.HasHeader(digest)) {
      continue;
    }
    header.Adopt(std::move(rec.value), digest);
    auto ptr = std::make_shared<const BlockHeader>(std::move(header));
    if (ptr->author == id_) {
      // Re-inject bookkeeping for own headers (fairness across the crash).
      own_headers_[digest] = ptr->batches;
      for (const BatchRef& ref : ptr->batches) {
        included_batches_.insert(ref.digest);
      }
    }
    dag_.AddHeader(std::move(ptr), digest);  // Direct insert: recovery fires no hooks.
  }
  for (const Certificate& cert : certs) {
    if (cert.round >= gc_round) {
      dag_.AddCertificate(cert);
    } else {
      // Kept for the parents of headers at the horizon; erased at the next
      // advance like the ones SetGcRound retains.
      retained_cert_records_.push_back(cert.header_digest);
    }
  }
  for (const VoteRecord& v : votes) {
    if (v.round >= gc_round) {
      voted_[v.round][v.author] = v.digest;
    }
  }

  // Re-derive the round exactly as the threshold clock advanced it: every
  // round it passed through had a certificate quorum, and those
  // certificates were persisted before the advance.
  round_ = gc_round;
  while (dag_.CertCountAt(round_) >= committee_.quorum_threshold()) {
    ++round_;
  }

  // Double-propose guard: a marker for the current round means a header was
  // signed for it pre-crash; re-adopt it instead of ever signing another.
  auto marker = markers.find(round_);
  if (marker != markers.end()) {
    proposed_current_round_ = true;
    recovered_proposal_ = marker->second;
    if (dag_.GetCertByDigest(marker->second) == nullptr) {
      std::shared_ptr<const BlockHeader> header = dag_.GetHeader(marker->second);
      if (header != nullptr) {
        Proposal& proposal = proposals_[marker->second];
        proposal.header = header;
        proposal.digest = marker->second;
        // Deterministic signatures: the recomputed self-vote equals the
        // pre-crash one bit for bit.
        proposal.votes[id_] = ledger_.RederiveSelfVote(
            Certificate::VotePreimage(marker->second, header->round, header->author));
      }
    }
  }

  // Certificates whose headers were never synced (cert-first intake at the
  // moment of the crash): queue them for the pull synchronizer; OnStart
  // issues the requests once the node is live.
  for (Round r = gc_round; r <= dag_.HighestRound(); ++r) {
    for (const auto& [author, cert] : dag_.CertsAt(r)) {
      if (!dag_.HasHeader(cert->header_digest)) {
        recovered_missing_headers_.push_back(cert->header_digest);
      }
    }
  }
}

// ---------------------------------------------------------------- proposing

void Primary::TryAdvanceRound() {
  bool advanced = false;
  while (dag_.CertCountAt(round_) >= committee_.quorum_threshold()) {
    ++round_;
    advanced = true;
  }
  if (!advanced) {
    return;
  }
  proposed_current_round_ = false;
  if (propose_timer_ != Scheduler::kInvalidTimer) {
    timers_.Cancel(propose_timer_);
    propose_timer_ = Scheduler::kInvalidTimer;
  }
  SchedulePropose();
}

void Primary::SchedulePropose() {
  if (proposed_current_round_) {
    return;
  }
  if (!pending_batches_.empty()) {
    ProposeNow();
    return;
  }
  // No payload yet: wait up to max_header_delay for worker batches, then
  // propose an empty header to keep the DAG advancing.
  if (propose_timer_ == Scheduler::kInvalidTimer) {
    propose_timer_ = timers_.ScheduleAfter(config_.max_header_delay, [this] {
      propose_timer_ = Scheduler::kInvalidTimer;
      ProposeNow();
    });
  }
}

void Primary::ProposeNow() {
  if (proposed_current_round_) {
    return;
  }
  if (propose_timer_ != Scheduler::kInvalidTimer) {
    timers_.Cancel(propose_timer_);
    propose_timer_ = Scheduler::kInvalidTimer;
  }

  auto header = std::make_shared<BlockHeader>();
  header->author = id_;
  header->round = round_;
  if (round_ > 0) {
    for (const auto& [author, cert] : dag_.CertsAt(round_ - 1)) {
      header->parents.push_back(*cert);
    }
    if (header->parents.size() < committee_.quorum_threshold()) {
      return;  // Cannot propose yet (caller guarantees this normally).
    }
  }
  while (!pending_batches_.empty()) {
    header->batches.push_back(pending_batches_.front());
    pending_batches_.pop_front();
  }

  // Write-ahead double-propose guard: the signed header's 'H' record and the
  // round's marker hit the store before any peer can see a signature. The
  // 'H' record value is sealed here, once: every validator's store shares
  // this buffer.
  Digest digest = header->ComputeDigest();
  const Signature self_vote = ledger_.SignHeader(
      digest,
      [&](const Signature& sig) {
        header->author_sig = sig;
        header->Seal(digest);
        return HeaderRecord::Of(*header, digest);
      },
      ProposalRecord{header->round, digest},
      Certificate::VotePreimage(digest, header->round, header->author));
  proposed_current_round_ = true;
  ++headers_proposed_;
  NT_TRACE(tracer_, OnHeaderProposed(id_, digest, header->round, header->batches,
                                     network_->scheduler()->now()));

  std::vector<BatchRef> refs = header->batches;
  for (const BatchRef& ref : refs) {
    included_batches_.insert(ref.digest);
  }
  own_headers_[digest] = std::move(refs);

  StoreHeader(header, digest);

  // Self-vote, then reliable-broadcast the header to all other primaries.
  Proposal& proposal = proposals_[digest];
  proposal.header = header;
  proposal.digest = digest;
  proposal.votes[id_] = self_vote;

  // Byzantine equivocation (DST fault injection): when marked as an
  // equivocator, also build a conflicting header B for the same round —
  // same parents in reversed order (the digest covers parent order, so B's
  // digest differs) and no payload — and split the committee into disjoint
  // halves: the first half receives only A, the second half only B. Both
  // proposals are tracked and self-voted: with an honest 2f+1 quorum the
  // halves cannot both certify, but under the seeded kAccept2fCerts
  // weakening the disjoint vote sets intersect in no honest validator and
  // two conflicting certificates for (round, author) form.
  FaultController* faults = network_->faults();
  bool equivocate = round_ > 0 && header->parents.size() >= 2 && faults != nullptr &&
                    faults->IsEquivocator(id_, network_->scheduler()->now());

  std::vector<ValidatorId> others;
  for (ValidatorId v = 0; v < committee_.size(); ++v) {
    if (v != id_) {
      others.push_back(v);
    }
  }
  size_t a_recipients = equivocate ? (others.size() + 1) / 2 : others.size();

  auto msg = std::make_shared<MsgHeader>(header, digest);
  for (size_t i = 0; i < a_recipients; ++i) {
    network_->Send(net_id_, topology_->primary_of[others[i]], msg);
  }
  ScheduleRebroadcast(digest, header->round, 0);

  if (equivocate) {
    auto twin = std::make_shared<BlockHeader>();
    twin->author = id_;
    twin->round = round_;
    twin->parents.assign(header->parents.rbegin(), header->parents.rend());
    Digest twin_digest = twin->ComputeDigest();
    twin->author_sig = ledger_.SignEquivocatorTwin(twin_digest);
    twin->Seal(twin_digest);

    Proposal& twin_proposal = proposals_[twin_digest];
    twin_proposal.header = twin;
    twin_proposal.digest = twin_digest;
    twin_proposal.votes[id_] = ledger_.SignEquivocatorTwin(
        Certificate::VotePreimage(twin_digest, twin->round, twin->author));

    auto twin_msg = std::make_shared<MsgHeader>(twin, twin_digest);
    for (size_t i = a_recipients; i < others.size(); ++i) {
      network_->Send(net_id_, topology_->primary_of[others[i]], twin_msg);
    }
    ScheduleRebroadcast(twin_digest, twin->round, 0);
  }

  // n = 1 degenerate committees certify immediately.
  if (proposal.votes.size() >= NarwhalCertQuorum(committee_)) {
    FormCertificate(proposal);
  }
}

void Primary::ScheduleRebroadcast(const Digest& digest, Round round, uint32_t attempt) {
  // The attempt counter lives in the retry, so it survives FormCertificate
  // erasing the proposal: the certificate re-share keeps backing off.
  timers_.ScheduleRetry(kHeaderRetry, attempt, [this, digest, round](uint32_t) {
    return RetryBroadcast(digest, round);
  });
}

bool Primary::RetryBroadcast(const Digest& digest, Round round) {
  // The paper's §6 re-transmission: stored messages are re-sent until "no
  // more needed to make progress" — here, until the round advances past the
  // proposal's round, at which point the DAG no longer needs it.
  if (round_ > round) {
    return false;
  }
  auto it = proposals_.find(digest);
  if (it != proposals_.end()) {
    // Still uncertified: resend the header to validators that have not voted.
    const Proposal& proposal = it->second;
    auto msg = std::make_shared<MsgHeader>(proposal.header, digest);
    uint64_t resent = 0;
    for (ValidatorId v = 0; v < committee_.size(); ++v) {
      if (v != id_ && proposal.votes.count(v) == 0) {
        network_->Send(net_id_, topology_->primary_of[v], msg);
        ++resent;
      }
    }
    NT_TRACE(tracer_, IncrRetryRound("header_retry", digest, resent));
  } else if (const Certificate* cert = dag_.GetCertByDigest(digest)) {
    // Certified but the round is stuck: some peers may have missed the
    // certificate; re-share it so the threshold clock can tick.
    auto msg = std::make_shared<MsgCertificate>(*cert);
    for (ValidatorId v = 0; v < committee_.size(); ++v) {
      if (v != id_) {
        network_->Send(net_id_, topology_->primary_of[v], msg);
      }
    }
    NT_TRACE(tracer_, IncrRetryRound("cert_reshare", digest, committee_.size() - 1));
  } else {
    return false;  // GC'd: no longer needed.
  }
  return true;
}

// ------------------------------------------------------------------- voting

bool Primary::AcceptParents(const std::shared_ptr<const BlockHeader>& header) {
  if (header->round == 0) {
    return true;
  }
  // >= 2f+1 distinct certificates of round-1.
  MemberSet parent_authors(committee_.size());
  for (const Certificate& parent : header->parents) {
    if (parent.round + 1 != header->round || !committee_.Contains(parent.author)) {
      return false;  // Malformed: parents must be committee blocks one round back.
    }
    parent_authors.Insert(parent.author);
  }
  if (parent_authors.size() < committee_.quorum_threshold()) {
    return false;
  }
  // A parent whose digest the DAG holds is matched, not re-checked: the
  // header digest binds author, round, batches and parents, so the same
  // digest with the same round and author is the same certified block,
  // whose votes were verified when it was added. Its vote list here is
  // not read. The same digest under another round or author cannot carry
  // honest votes, and rejects the header. A parent below the GC horizon is
  // stale but not invalid: it is skipped, as AcceptCertificate does.
  std::vector<const Certificate*> unknown;
  for (const Certificate& parent : header->parents) {
    if (parent.round < dag_.gc_round()) {
      continue;
    }
    const Certificate* held = dag_.GetCertByDigest(parent.header_digest);
    if (held == nullptr) {
      unknown.push_back(&parent);
    } else if (held->round != parent.round || held->author != parent.author) {
      LOG_WARN() << "header with a mislabelled parent from validator " << header->author;
      return false;
    }
  }
  // Unknown parents are verified with one batched flush (their votes share
  // a single multi-scalar multiplication) and then stored as they are,
  // aliasing the header, in header order, without a second check.
  if (!unknown.empty() &&
      !Certificate::VerifyAll(unknown, committee_, ledger_.verifier(), /*cache=*/nullptr)) {
    LOG_WARN() << "header with invalid parent certificate from validator " << header->author;
    return false;
  }
  for (const Certificate* parent : unknown) {
    if (!AcceptCertificate(CertPtr(header, parent), /*request_header_if_missing=*/true,
                           /*verified=*/true)) {
      return false;  // Conflicting parent certificate: reject the header.
    }
  }
  return true;
}

void Primary::HandleHeader(const MsgHeader& msg) {
  const BlockHeader& header = *msg.header;
  if (header.round < dag_.gc_round()) {
    return;  // Below GC horizon (paper §3.3).
  }
  if (!committee_.Contains(header.author)) {
    return;
  }
  if (msg.digest != header.ComputeDigest() ||
      !ledger_.verifier().Verify(committee_.key_of(header.author), msg.digest,
                                 header.author_sig)) {
    LOG_WARN() << "header with bad digest/signature from validator " << header.author;
    return;
  }

  if (!AcceptParents(msg.header)) {
    return;
  }

  // One vote per (author, round). A duplicate of the header we already voted
  // for means our vote may have been lost: re-send the identical vote
  // (deterministic signatures make this safe). A *different* header is
  // equivocation and gets nothing.
  auto& voted_round = voted_[header.round];
  auto voted_it = voted_round.find(header.author);
  if (voted_it != voted_round.end()) {
    if (voted_it->second == msg.digest && dag_.HasHeader(msg.digest)) {
      PendingHeader again;
      again.header = msg.header;
      again.digest = msg.digest;
      FinishVote(again);
    }
    return;
  }
  voted_round.emplace(header.author, msg.digest);

  PendingHeader pending;
  pending.header = msg.header;
  pending.digest = msg.digest;
  // Availability condition (paper §4.2): only sign if our own workers store
  // every referenced batch; otherwise instruct them to fetch and defer.
  for (const BatchRef& ref : header.batches) {
    if (!stored_batches_.contains(ref.digest)) {
      pending.missing_batches.insert(ref.digest);
    }
  }
  if (pending.missing_batches.empty()) {
    FinishVote(pending);
    return;
  }
  for (const Digest& missing : pending.missing_batches) {
    batch_waiters_[missing].insert(pending.digest);
    WorkerId worker = 0;
    for (const BatchRef& ref : header.batches) {
      if (ref.digest == missing) {
        worker = ref.worker;
        break;
      }
    }
    uint32_t worker_index = worker % topology_->workers_per_validator();
    network_->Send(net_id_, topology_->worker_of[id_][worker_index],
                   std::make_shared<MsgFetchBatch>(missing, header.author, worker));
  }
  waiting_batches_[pending.digest] = std::move(pending);
}

void Primary::FinishVote(const PendingHeader& pending) {
  const BlockHeader& header = *pending.header;
  StoreHeader(pending.header, pending.digest);

  Vote vote;
  vote.header_digest = pending.digest;
  vote.round = header.round;
  vote.author = header.author;
  vote.voter = id_;
  // Write-ahead double-vote guard: the (round, author) -> digest ledger
  // entry is durable (and synced) before the signed vote leaves the node,
  // or a recovered validator could vote for a conflicting header.
  vote.sig = ledger_.SignVote(VoteRecord{header.round, header.author, pending.digest},
                              Certificate::VotePreimage(pending.digest, header.round,
                                                        header.author));
  ++votes_cast_;
  network_->Send(net_id_, topology_->primary_of[header.author], std::make_shared<MsgVote>(vote));
}

// ------------------------------------------------------- votes -> certificates

void Primary::HandleVote(const Vote& vote) {
  auto it = proposals_.find(vote.header_digest);
  if (it == proposals_.end()) {
    return;  // Not an outstanding proposal (already certified or foreign).
  }
  Proposal& proposal = it->second;
  if (vote.round != proposal.header->round || vote.author != id_) {
    return;  // Vote fields inconsistent with the proposal (Byzantine voter).
  }
  if (proposal.votes.count(vote.voter) != 0) {
    return;
  }
  if (!vote.Verify(committee_, ledger_.verifier())) {
    LOG_WARN() << "invalid vote from " << vote.voter;
    return;
  }
  proposal.votes[vote.voter] = vote.sig;
  if (proposal.votes.size() >= NarwhalCertQuorum(committee_)) {
    FormCertificate(proposal);
  }
}

void Primary::FormCertificate(Proposal& proposal) {
  Certificate cert(proposal.digest, proposal.header->round, id_,
                   VoteList::Quorum(proposal.votes, NarwhalCertQuorum(committee_)));
  ++certs_formed_;
  Digest digest = proposal.digest;  // Copy: erasing invalidates `proposal`.
  NT_TRACE(tracer_, OnCertFormed(id_, digest, cert.round, network_->scheduler()->now()));
  proposals_.erase(digest);

  // The certificate is sealed here, once: every validator's DAG entry and
  // 'C' record, and every header that cites it, share this buffer. The
  // broadcast message is the certificate object the local DAG entry
  // aliases, as every recipient's does.
  auto msg = std::make_shared<MsgCertificate>(std::move(cert));
  // Its votes were each verified on arrival (HandleVote) or signed here, so
  // the certificate is not checked again.
  AcceptCertificate(CertPtr(msg, &msg->cert), /*request_header_if_missing=*/false,
                    /*verified=*/true);
  for (ValidatorId v = 0; v < committee_.size(); ++v) {
    if (v != id_) {
      network_->Send(net_id_, topology_->primary_of[v], msg);
    }
  }
}

// ----------------------------------------------------------- certificate intake

bool Primary::IngestCertificate(const Certificate& cert) {
  return AcceptCertificate(std::make_shared<const Certificate>(cert),
                           /*request_header_if_missing=*/true, /*verified=*/false);
}

bool Primary::AcceptCertificate(CertPtr ptr, bool request_header_if_missing, bool verified) {
  const Certificate& cert = *ptr;
  if (cert.round < dag_.gc_round()) {
    return true;  // Stale but not invalid.
  }
  if (dag_.GetCertByDigest(cert.header_digest) != nullptr) {
    return true;  // Already verified and stored.
  }
  // The DAG is this validator's memo of verified certificates, so the check
  // runs once per certificate and caches nothing.
  if (!verified && !cert.Verify(committee_, ledger_.verifier(), /*cache=*/nullptr)) {
    LOG_WARN() << "invalid certificate for round " << cert.round;
    return false;
  }
  if (!dag_.AddCertificate(ptr)) {
    return false;  // Equivocation (cannot happen with honest quorum).
  }
  // Persist before the hooks run: anything consensus derives from this
  // certificate (commits, GC) must be re-derivable after a crash. The record
  // is the certificate's sealed buffer itself, so storing it copies nothing.
  if (Store* store = ledger_.store(); store != nullptr) {
    PutRecord(*store, CertRecord{cert});
  }
  if (request_header_if_missing && !dag_.HasHeader(cert.header_digest)) {
    RequestHeader(cert.header_digest);
  }
  for (const auto& hook : on_certificate_hooks_) {
    hook(cert);
  }
  TryAdvanceRound();
  return true;
}

// ------------------------------------------------------------ header synchronizer

void Primary::RequestHeader(const Digest& digest) {
  if (header_sync_.count(digest) != 0 || dag_.HasHeader(digest)) {
    return;
  }
  CertPtr cert = dag_.GetSharedCert(digest);
  if (cert == nullptr) {
    return;
  }
  header_sync_[digest] = std::move(cert);
  RetryHeaderSync(digest, 0);
  timers_.ScheduleRetry(kHeaderSync, 1, [this, digest](uint32_t attempt) {
    return RetryHeaderSync(digest, attempt);
  });
}

bool Primary::RetryHeaderSync(const Digest& digest, uint32_t attempt) {
  auto it = header_sync_.find(digest);
  if (it == header_sync_.end()) {
    return false;
  }
  // Ask the certificate's signers in turn: at least f+1 of them are honest
  // and store the header (paper §4.1), so O(1) probes suffice on average.
  const VoteList& voters = it->second->votes;
  ValidatorId target = voters[attempt % voters.size()].voter;
  if (target == id_) {
    target = voters[(attempt + 1) % voters.size()].voter;
  }
  ++header_sync_requests_;
  network_->Send(net_id_, topology_->primary_of[target], std::make_shared<MsgCertRequest>(digest));
  return true;
}

void Primary::StoreHeader(std::shared_ptr<const BlockHeader> header, const Digest& digest) {
  if (dag_.HasHeader(digest)) {
    return;
  }
  Store* store = ledger_.store();
  if (store != nullptr && !store->Contains(HeaderRecord::KeyOf(digest))) {
    // The record is the header's sealed buffer itself, so storing it copies
    // nothing.
    PutRecord(*store, HeaderRecord::Of(*header, digest));
  }
  dag_.AddHeader(std::move(header), digest);
  header_sync_.erase(digest);
  for (const auto& hook : on_header_stored_hooks_) {
    hook(digest);
  }
}

// ----------------------------------------------------------------- GC & commit

void Primary::SetGcRound(Round gc_round) {
  // Re-inject own batches whose headers fell below the horizon uncommitted
  // (paper §3.3: transaction-level fairness).
  std::vector<Dag::Collected> collected = dag_.GarbageCollect(gc_round);
  std::set<Digest> collected_set;
  for (const Dag::Collected& record : collected) {
    collected_set.insert(record.digest);
  }
  // Advance the durable GC horizon and drop store records below it, keeping
  // the WAL bounded by the live DAG window. The meta record goes first:
  // recovery filters stale records against it even if the erases below
  // never land.
  if (Store* store = ledger_.store(); store != nullptr && gc_round > store_gc_round_) {
    PutRecord(*store, PrimaryMeta{gc_round});
    for (const Digest& digest : retained_cert_records_) {
      store->Erase(CertRecord::KeyOf(digest));
    }
    retained_cert_records_.clear();
    for (const Dag::Collected& record : collected) {
      store->Erase(HeaderRecord::KeyOf(record.digest));
      // Header records name their parents by digest, so a header at the new
      // horizon still needs the certificates one round below it.
      if (record.cert->round + 1 == gc_round) {
        retained_cert_records_.push_back(record.digest);
      } else {
        store->Erase(CertRecord::KeyOf(record.digest));
      }
    }
    for (auto it = voted_.begin(); it != voted_.end() && it->first < gc_round; ++it) {
      for (const auto& [author, digest] : it->second) {
        store->Erase(VoteRecord::KeyOf(it->first, author));
      }
    }
    for (Round r = store_gc_round_; r < gc_round; ++r) {
      store->Erase(ProposalRecord::KeyOf(r));
    }
    store_gc_round_ = gc_round;
  }
  for (auto it = own_headers_.begin(); it != own_headers_.end();) {
    if (collected_set.count(it->first) != 0) {
      for (const BatchRef& ref : it->second) {
        if (committed_batches_.count(ref.digest) == 0) {
          pending_batches_.push_back(ref);
          ++reinjected_batches_;
        }
      }
      it = own_headers_.erase(it);
    } else {
      ++it;
    }
  }
  voted_.erase(voted_.begin(), voted_.lower_bound(gc_round));
  for (auto it = waiting_batches_.begin(); it != waiting_batches_.end();) {
    if (it->second.header->round < gc_round) {
      it = waiting_batches_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = proposals_.begin(); it != proposals_.end();) {
    if (it->second.header->round < gc_round) {
      it = proposals_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = header_sync_.begin(); it != header_sync_.end();) {
    if (it->second->round < gc_round) {
      it = header_sync_.erase(it);
    } else {
      ++it;
    }
  }
}

void Primary::NotifyCommitted(const BlockHeader& header) {
  NT_TRACE(tracer_, OnHeaderCommitted(id_, header.ComputeDigest(), network_->scheduler()->now()));
  for (const BatchRef& ref : header.batches) {
    committed_batches_.insert(ref.digest);
  }
  if (header.author == id_) {
    own_headers_.erase(header.ComputeDigest());
  }
}

// ------------------------------------------------------------------ dispatch

void Primary::OnMessage(uint32_t from, const MessagePtr& msg) {
  Dispatch(
      Handles{}, *msg,
      [&](const MsgHeader& header) { HandleHeader(header); },
      [&](const MsgVote& vote) { HandleVote(vote.vote); },
      [&](const MsgCertificate& cert) {
        AcceptCertificate(CertPtr(msg, &cert.cert), /*request_header_if_missing=*/true,
                          /*verified=*/false);
      },
      [&](const MsgBatchReady& ready) {
        // Own worker: batch reached an availability quorum.
        stored_batches_.insert(ready.ref.digest);
        if (included_batches_.count(ready.ref.digest) == 0) {
          pending_batches_.push_back(ready.ref);
        }
        if (!proposed_current_round_) {
          SchedulePropose();
        }
      },
      [&](const MsgBatchStored& stored) {
        stored_batches_.insert(stored.digest);
        // Release headers that were waiting on this batch.
        auto waiters = batch_waiters_.find(stored.digest);
        if (waiters == batch_waiters_.end()) {
          return;
        }
        std::set<Digest> headers = std::move(waiters->second);
        batch_waiters_.erase(waiters);
        for (const Digest& header_digest : headers) {
          auto it = waiting_batches_.find(header_digest);
          if (it == waiting_batches_.end()) {
            continue;
          }
          it->second.missing_batches.erase(stored.digest);
          if (it->second.missing_batches.empty()) {
            PendingHeader pending = std::move(it->second);
            waiting_batches_.erase(it);
            FinishVote(pending);
          }
        }
      },
      [&](const MsgCertRequest& request) {
        const Certificate* cert = dag_.GetCertByDigest(request.digest);
        auto header = dag_.GetHeader(request.digest);
        if (cert != nullptr && header != nullptr) {
          network_->Send(net_id_, from, std::make_shared<MsgCertResponse>(*cert, header));
        }
      },
      [&](const MsgCertResponse& response) {
        if (response.header == nullptr) {
          return;
        }
        Digest digest = response.header->ComputeDigest();
        if (digest != response.cert.header_digest) {
          LOG_WARN() << "cert response header/cert mismatch";
          return;
        }
        // Ingest the parent certificates too, through the voting path's intake:
        // a synced header skips HandleHeader, and without its parents in the DAG
        // a causal-history walk can reach a header whose certificate nobody ever
        // fetches (the header itself being present suppresses the sync) —
        // wedging commit delivery. Requesting missing parent headers here also
        // makes deep gaps heal recursively. A header whose parents are rejected
        // is not stored.
        if (AcceptCertificate(CertPtr(msg, &response.cert),
                              /*request_header_if_missing=*/false, /*verified=*/false) &&
            AcceptParents(response.header)) {
          StoreHeader(response.header, digest);
        }
      });
}

}  // namespace nt
