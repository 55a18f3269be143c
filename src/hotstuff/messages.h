// Network messages for the HotStuff family: proposals, votes, timeouts,
// block catch-up, plus the mempool-mode traffic (gossip aggregates for
// baseline-HS; batch dissemination for Batched-HS reuses MsgBatch et al.).
#ifndef SRC_HOTSTUFF_MESSAGES_H_
#define SRC_HOTSTUFF_MESSAGES_H_

#include <memory>

#include "src/hotstuff/types.h"
#include "src/net/message.h"

namespace nt {

struct MsgHsProposal : MessageOf<MessageTypeId::kHsProposal> {
  std::shared_ptr<const HsBlock> block;
  Digest digest{};

  MsgHsProposal(std::shared_ptr<const HsBlock> b, const Digest& d)
      : block(std::move(b)), digest(d) {}
  size_t WireSize() const override { return block->WireSize(); }
};

struct MsgHsVote : MessageOf<MessageTypeId::kHsVote> {
  Digest block_digest{};
  View view = 0;
  ValidatorId voter = 0;
  Signature sig{};

  MsgHsVote(const Digest& d, View v, ValidatorId voter_id, const Signature& s)
      : block_digest(d), view(v), voter(voter_id), sig(s) {}
  size_t WireSize() const override { return 32 + 8 + 4 + 64; }
};

struct MsgHsTimeout : MessageOf<MessageTypeId::kHsTimeout> {
  View view = 0;
  ValidatorId voter = 0;
  Signature sig{};
  QuorumCert high_qc;

  MsgHsTimeout(View v, ValidatorId voter_id, const Signature& s, QuorumCert qc)
      : view(v), voter(voter_id), sig(s), high_qc(std::move(qc)) {}
  size_t WireSize() const override { return 8 + 4 + 64 + high_qc.WireSize(); }
};

// Catch-up: fetch a missing ancestor block by digest.
struct MsgHsBlockRequest : MessageOf<MessageTypeId::kHsBlockRequest> {
  Digest digest{};

  explicit MsgHsBlockRequest(const Digest& d) : digest(d) {}
  size_t WireSize() const override { return 32; }
};

struct MsgHsBlockResponse : MessageOf<MessageTypeId::kHsBlockResponse> {
  std::shared_ptr<const HsBlock> block;
  Digest digest{};

  MsgHsBlockResponse(std::shared_ptr<const HsBlock> b, const Digest& d)
      : block(std::move(b)), digest(d) {}
  size_t WireSize() const override { return block->WireSize(); }
};

// Baseline-HS gossip mempool: periodic aggregate of freshly received
// transactions, re-shared with every peer (the double transmission the
// paper's §2.2 identifies). Content is accounting-only: no node dispatches it
// (AccountingOnly, src/runtime/message_table.h).
struct MsgGossipTxs : MessageOf<MessageTypeId::kGossipTxs> {
  uint64_t num_txs = 0;
  uint64_t payload_bytes = 0;

  MsgGossipTxs(uint64_t n, uint64_t bytes) : num_txs(n), payload_bytes(bytes) {}
  size_t WireSize() const override { return 16 + payload_bytes; }
};

}  // namespace nt

#endif  // SRC_HOTSTUFF_MESSAGES_H_
