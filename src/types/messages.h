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
struct MsgBatch : MessageOf<MsgBatch, MessageTypeId::kBatch> {
  std::shared_ptr<const Batch> batch;
  Digest digest{};  // Precomputed Batch::ComputeDigest().

  MsgBatch(std::shared_ptr<const Batch> b, const Digest& d) : batch(std::move(b)), digest(d) {}
  static auto Fields(auto& self) { return WireFields(self.batch); }
};

// Worker -> worker: storage acknowledgment for a batch.
struct MsgBatchAck : MessageOf<MsgBatchAck, MessageTypeId::kBatchAck> {
  Digest digest{};
  WorkerId worker = 0;

  MsgBatchAck(const Digest& d, WorkerId w) : digest(d), worker(w) {}
  static auto Fields(auto& self) { return WireFields(self.digest, self.worker); }
};

// Worker -> its own primary: a batch reached a quorum of workers and may be
// included in the next header.
struct MsgBatchReady : MessageOf<MsgBatchReady, MessageTypeId::kBatchReady> {
  BatchRef ref{};

  explicit MsgBatchReady(const BatchRef& r) : ref(r) {}
  static auto Fields(auto& self) { return WireFields(self.ref); }
};

// Primary -> its own worker: another validator's header references a batch
// this worker should hold; fetch it if missing.
struct MsgFetchBatch : MessageOf<MsgFetchBatch, MessageTypeId::kFetchBatch> {
  Digest digest{};
  ValidatorId batch_author = 0;
  WorkerId worker = 0;

  MsgFetchBatch(const Digest& d, ValidatorId a, WorkerId w)
      : digest(d), batch_author(a), worker(w) {}
  static auto Fields(auto& self) {
    return WireFields(self.digest, self.batch_author, self.worker);
  }
};

// Worker -> its own primary: confirmation that a batch is stored locally.
struct MsgBatchStored : MessageOf<MsgBatchStored, MessageTypeId::kBatchStored> {
  Digest digest{};

  explicit MsgBatchStored(const Digest& d) : digest(d) {}
  static auto Fields(auto& self) { return WireFields(self.digest); }
};

// Primary -> primary: a proposed header (reliable-broadcast "send" phase).
struct MsgHeader : MessageOf<MsgHeader, MessageTypeId::kHeader> {
  std::shared_ptr<const BlockHeader> header;
  Digest digest{};  // Precomputed ComputeDigest().

  MsgHeader(std::shared_ptr<const BlockHeader> h, const Digest& d)
      : header(std::move(h)), digest(d) {}
  static auto Fields(auto& self) { return WireFields(self.header); }
};

// Primary -> primary: a vote (signed acknowledgment) on a header.
struct MsgVote : MessageOf<MsgVote, MessageTypeId::kVote> {
  Vote vote{};

  explicit MsgVote(const Vote& v) : vote(v) {}
  static auto Fields(auto& self) { return WireFields(self.vote); }
};

// Primary -> primary: a freshly assembled certificate of availability.
struct MsgCertificate : MessageOf<MsgCertificate, MessageTypeId::kCertificate> {
  Certificate cert{};

  explicit MsgCertificate(Certificate c) : cert(std::move(c)) {}
  static auto Fields(auto& self) { return WireFields(self.cert); }
};

// Primary -> primary: pull request for a missing certified block (the DoS-
// resistant pull strategy of §4.1). The responder returns the certificate
// and its header.
struct MsgCertRequest : MessageOf<MsgCertRequest, MessageTypeId::kCertRequest> {
  Digest digest{};

  explicit MsgCertRequest(const Digest& d) : digest(d) {}
  static auto Fields(auto& self) { return WireFields(self.digest); }
};

struct MsgCertResponse : MessageOf<MsgCertResponse, MessageTypeId::kCertResponse> {
  Certificate cert{};
  std::shared_ptr<const BlockHeader> header;

  MsgCertResponse(Certificate c, std::shared_ptr<const BlockHeader> h)
      : cert(std::move(c)), header(std::move(h)) {}
  static auto Fields(auto& self) { return WireFields(self.cert, self.header); }
};

// Worker -> worker: pull request for a missing batch.
struct MsgBatchRequest : MessageOf<MsgBatchRequest, MessageTypeId::kBatchRequest> {
  Digest digest{};

  explicit MsgBatchRequest(const Digest& d) : digest(d) {}
  static auto Fields(auto& self) { return WireFields(self.digest); }
};

struct MsgBatchResponse : MessageOf<MsgBatchResponse, MessageTypeId::kBatchResponse> {
  std::shared_ptr<const Batch> batch;
  Digest digest{};

  MsgBatchResponse(std::shared_ptr<const Batch> b, const Digest& d)
      : batch(std::move(b)), digest(d) {}
  static auto Fields(auto& self) { return WireFields(self.batch); }
};

}  // namespace nt

#endif  // SRC_TYPES_MESSAGES_H_
