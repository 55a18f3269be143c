// The signing ledger: the one holder of a validator's signing key, bound to
// the store its vote ledger lives in.
//
// A validator must never sign two conflicting statements, not even across a
// crash. So each signing method below makes the record that commits the node
// to the statement durable (PutRecord, then Store::Sync) before the
// signature is returned, and a restarted node reads the record back instead
// of signing anew (the paper's artifact stores a vote before sending it,
// §4.1 and §6). Primary and HotStuff hold a SigningLedger, not a Signer:
// outside these methods they reach only verifier(), which cannot sign.
//
// With no store attached (an ephemeral node) the ledger signs and persists
// nothing.
#ifndef SRC_STORE_LEDGER_H_
#define SRC_STORE_LEDGER_H_

#include <span>

#include "src/crypto/signer.h"
#include "src/store/record.h"
#include "src/store/store.h"

namespace nt {

class SigningLedger {
 public:
  // `signer` is not owned and outlives the ledger.
  explicit SigningLedger(const Signer* signer) : signer_(signer) {}

  // Attaches the durable store (non-owning; null = ephemeral).
  void set_store(Store* store) { store_ = store; }
  Store* store() const { return store_; }

  // Checks signatures; cannot create one.
  const Verifier& verifier() const { return *signer_; }

  // A vote: `record` commits the voter to one block for its slot. It is put
  // and synced, then `preimage` is signed. A per-slot record
  // (Prune::kGcHorizon) already stored is the entry of this vote, sent
  // before and now re-sent: nothing is put or synced again.
  template <typename R>
  Signature SignVote(const R& record, std::span<const uint8_t> preimage) {
    if (store_ != nullptr &&
        (R::kPrune != Prune::kGcHorizon || !store_->Contains(record.Key()))) {
      PutRecord(*store_, record);
      store_->Sync();
    }
    return Sign(preimage);
  }

  // A proposal: `marker` records that this node proposed in its view, so a
  // restarted node never proposes a second block there. It is put and
  // synced, then the block `digest` is signed.
  template <typename R>
  Signature SignProposal(const R& marker, const Digest& digest) {
    if (store_ != nullptr) {
      PutRecord(*store_, marker);
      store_->Sync();
    }
    return Sign(digest);
  }

  // A DAG header proposal, signed twice: by its author, and by the author's
  // own vote on it. The header `digest` is signed first, because the
  // header's record carries that signature: `seal(signature)` puts it in
  // the header and returns the record. That record and the round's `marker`
  // are put, in this order, and synced; then `self_vote` is signed and
  // returned.
  template <typename R, typename Seal>
  Signature SignHeader(const Digest& digest, Seal&& seal, const R& marker,
                       std::span<const uint8_t> self_vote) {
    const auto record = seal(Sign(digest));
    if (store_ != nullptr) {
      PutRecord(*store_, record);
      PutRecord(*store_, marker);
      store_->Sync();
    }
    return Sign(self_vote);
  }

  // --- Signatures no record guards -------------------------------------------

  // A HotStuff timeout. The signature is a pure function of the view: a
  // restarted node re-signs the identical preimage, so there is no
  // equivocation to persist against.
  Signature SignTimeout(std::span<const uint8_t> preimage) const { return Sign(preimage); }

  // Recover's self-vote on the header a durable proposal marker names.
  // Signatures are deterministic, so the recomputed vote equals the
  // pre-crash one bit for bit, and the marker already guards it.
  Signature RederiveSelfVote(std::span<const uint8_t> preimage) const { return Sign(preimage); }

  // The conflicting twin header a DST equivocator signs, and its self-vote.
  // Equivocation is the fault being injected: nothing may guard it.
  Signature SignEquivocatorTwin(std::span<const uint8_t> preimage) const {
    return Sign(preimage);
  }

 private:
  Signature Sign(std::span<const uint8_t> preimage) const {
    return signer_->Sign(preimage.data(), preimage.size());
  }

  const Signer* signer_;
  Store* store_ = nullptr;
};

}  // namespace nt

#endif  // SRC_STORE_LEDGER_H_
