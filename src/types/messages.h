// Network message wrappers for the Narwhal protocol (primary-to-primary,
// worker-to-worker, and the local primary<->worker channel), plus the pull
// synchronizer's request/response pairs (paper §4.1).
#ifndef SRC_TYPES_MESSAGES_H_
#define SRC_TYPES_MESSAGES_H_

#include <memory>
#include <utility>

#include "src/net/message.h"
#include "src/types/types.h"

namespace nt {

// Worker -> worker: bulk batch dissemination.
struct MsgBatch : MessageOf<MessageTypeId::kBatch> {
  std::shared_ptr<const Batch> batch;
  Digest digest{};  // Precomputed Batch::ComputeDigest().

  MsgBatch(std::shared_ptr<const Batch> b, const Digest& d) : batch(std::move(b)), digest(d) {}
  size_t WireSize() const override { return batch->WireSize(); }
};

// Worker -> worker: storage acknowledgment for a batch.
struct MsgBatchAck : MessageOf<MessageTypeId::kBatchAck> {
  Digest digest{};
  WorkerId worker = 0;

  MsgBatchAck(const Digest& d, WorkerId w) : digest(d), worker(w) {}
  size_t WireSize() const override { return 32 + 4; }
};

// Worker -> its own primary: a batch reached a quorum of workers and may be
// included in the next header.
struct MsgBatchReady : MessageOf<MessageTypeId::kBatchReady> {
  BatchRef ref{};

  explicit MsgBatchReady(const BatchRef& r) : ref(r) {}
  size_t WireSize() const override { return 32 + 4 + 8 + 8; }
};

// Primary -> its own worker: another validator's header references a batch
// this worker should hold; fetch it if missing.
struct MsgFetchBatch : MessageOf<MessageTypeId::kFetchBatch> {
  Digest digest{};
  ValidatorId batch_author = 0;
  WorkerId worker = 0;

  MsgFetchBatch(const Digest& d, ValidatorId a, WorkerId w)
      : digest(d), batch_author(a), worker(w) {}
  size_t WireSize() const override { return 32 + 4 + 4; }
};

// Worker -> its own primary: confirmation that a batch is stored locally.
struct MsgBatchStored : MessageOf<MessageTypeId::kBatchStored> {
  Digest digest{};

  explicit MsgBatchStored(const Digest& d) : digest(d) {}
  size_t WireSize() const override { return 32; }
};

// Primary -> primary: a proposed header (reliable-broadcast "send" phase).
struct MsgHeader : MessageOf<MessageTypeId::kHeader> {
  std::shared_ptr<const BlockHeader> header;
  Digest digest{};  // Precomputed ComputeDigest().

  MsgHeader(std::shared_ptr<const BlockHeader> h, const Digest& d)
      : header(std::move(h)), digest(d) {}
  size_t WireSize() const override { return header->WireSize(); }
};

// Primary -> primary: a vote (signed acknowledgment) on a header.
struct MsgVote : MessageOf<MessageTypeId::kVote> {
  Vote vote{};

  explicit MsgVote(const Vote& v) : vote(v) {}
  size_t WireSize() const override { return vote.WireSize(); }
};

// Primary -> primary: a freshly assembled certificate of availability.
struct MsgCertificate : MessageOf<MessageTypeId::kCertificate> {
  Certificate cert{};

  explicit MsgCertificate(Certificate c) : cert(std::move(c)) {}
  size_t WireSize() const override { return cert.WireSize(); }
};

// Primary -> primary: pull request for a missing certified block (the DoS-
// resistant pull strategy of §4.1). The responder returns the certificate
// and its header.
struct MsgCertRequest : MessageOf<MessageTypeId::kCertRequest> {
  Digest digest{};

  explicit MsgCertRequest(const Digest& d) : digest(d) {}
  size_t WireSize() const override { return 32; }
};

struct MsgCertResponse : MessageOf<MessageTypeId::kCertResponse> {
  Certificate cert{};
  std::shared_ptr<const BlockHeader> header;

  MsgCertResponse(Certificate c, std::shared_ptr<const BlockHeader> h)
      : cert(std::move(c)), header(std::move(h)) {}
  size_t WireSize() const override { return cert.WireSize() + header->WireSize(); }
};

// Worker -> worker: pull request for a missing batch.
struct MsgBatchRequest : MessageOf<MessageTypeId::kBatchRequest> {
  Digest digest{};

  explicit MsgBatchRequest(const Digest& d) : digest(d) {}
  size_t WireSize() const override { return 32; }
};

struct MsgBatchResponse : MessageOf<MessageTypeId::kBatchResponse> {
  std::shared_ptr<const Batch> batch;
  Digest digest{};

  MsgBatchResponse(std::shared_ptr<const Batch> b, const Digest& d)
      : batch(std::move(b)), digest(d) {}
  size_t WireSize() const override { return batch->WireSize(); }
};

}  // namespace nt

#endif  // SRC_TYPES_MESSAGES_H_
