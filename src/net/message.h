// Typed message envelope for the simulated network. Protocol messages derive
// from Message and report their wire size so bandwidth queues can account
// for them without materializing byte buffers on every hop.
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>
#include <memory>

namespace nt {

// Stable identity for every concrete message type in the tree. Per-type
// traffic accounting indexes a flat array by this id on the send hot path;
// human-readable names are resolved only at report time (MessageTypeName).
// Order is append-only: ids are part of the benchmark/trace surface.
enum class MessageTypeId : uint8_t {
  kBatch = 0,
  kBatchAck,
  kBatchReady,
  kFetchBatch,
  kBatchStored,
  kHeader,
  kVote,
  kCertificate,
  kCertRequest,
  kCertResponse,
  kBatchRequest,
  kBatchResponse,
  kHsProposal,
  kHsVote,
  kHsTimeout,
  kHsBlockRequest,
  kHsBlockResponse,
  kGossipTxs,
  // Ad-hoc traffic from tests and benchmarks.
  kTest,
  kCount,
};

inline constexpr size_t kMessageTypeCount = static_cast<size_t>(MessageTypeId::kCount);

// Short stable display name for a type id ("Batch", "Vote", ...).
const char* MessageTypeName(MessageTypeId id);

class Message {
 public:
  virtual ~Message() = default;

  // Serialized size in bytes, used for transmission-delay accounting. Must
  // match what the canonical codec would produce (checked in tests for the
  // protocol types).
  virtual size_t WireSize() const = 0;

  // Stable type id for per-type statistics; cheaper than a name on the send
  // hot path.
  virtual MessageTypeId TypeId() const = 0;
};

// Messages are immutable once sent; a broadcast shares one allocation.
using MessagePtr = std::shared_ptr<const Message>;

// A network endpoint. Nodes never block; they react to deliveries and
// timers scheduled on the shared Scheduler.
class NetNode {
 public:
  virtual ~NetNode() = default;

  // Called when a message is delivered to this node.
  virtual void OnMessage(uint32_t from, const MessagePtr& msg) = 0;

  // Called once when the simulation starts.
  virtual void OnStart() {}
};

}  // namespace nt

#endif  // SRC_NET_MESSAGE_H_
