// Typed message envelope for the simulated network. Protocol messages derive
// from Message and report their wire size so bandwidth queues can account
// for them without materializing byte buffers on every hop.
//
// The message table is typed: each message struct derives from
// MessageOf<its id>, each node names the structs it handles as a
// MessageList and dispatches through Dispatch, and CheckMessageTable proves
// at compile time that every id has exactly one struct and every struct a
// node that handles it (src/runtime/message_table.h holds the tree's table).
#ifndef SRC_NET_MESSAGE_H_
#define SRC_NET_MESSAGE_H_

#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/common/overloaded.h"

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

// Short stable display names, indexed by id.
inline constexpr const char* kMessageTypeNames[] = {
    "Batch",        "BatchAck",      "BatchReady",     "FetchBatch",      "BatchStored",
    "Header",       "Vote",          "Certificate",    "CertRequest",     "CertResponse",
    "BatchRequest", "BatchResponse", "HsProposal",     "HsVote",          "HsTimeout",
    "HsBlockRequest", "HsBlockResponse", "GossipTxs",  "Test",
};
static_assert(std::size(kMessageTypeNames) == kMessageTypeCount,
              "kMessageTypeNames needs one name per MessageTypeId");

// Short stable display name for a type id ("Batch", "Vote", ...).
constexpr const char* MessageTypeName(MessageTypeId id) {
  const auto index = static_cast<size_t>(id);
  return index < kMessageTypeCount ? kMessageTypeNames[index] : "Unknown";
}

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

// The base of every protocol message struct: binds the struct to its id in
// one place, and no subclass can report another.
template <MessageTypeId kId>
struct MessageOf : Message {
  static constexpr MessageTypeId kTypeId = kId;
  MessageTypeId TypeId() const final { return kId; }
};

// Messages are immutable once sent; a broadcast shares one allocation.
using MessagePtr = std::shared_ptr<const Message>;

// A list of message structs: what a node handles, or the whole table.
template <typename... M>
struct MessageList {};

// Calls the handler taking `const M&` for the struct M of `handles` whose id
// `msg` carries, and returns whether there was one. The handlers must accept
// every struct of the list, so a node cannot list a message it does not
// handle. The cast is exact because CheckMessageTable gives each id one
// struct.
template <typename... M, typename... F>
bool Dispatch(MessageList<M...> /*handles*/, const Message& msg, F... handlers) {
  const Overloaded<F...> handler{std::move(handlers)...};
  static_assert((std::is_invocable_v<const Overloaded<F...>&, const M&> && ...),
                "Dispatch: a listed message struct has no handler");
  const MessageTypeId id = msg.TypeId();
  return ((id == M::kTypeId && (handler(static_cast<const M&>(msg)), true)) || ...);
}

namespace message_table {

template <MessageTypeId kId, typename... M>
inline constexpr size_t kStructsWithId = ((M::kTypeId == kId ? 1 : 0) + ... + 0);

template <typename M, typename... H>
constexpr bool Lists(MessageList<H...>) {
  return (std::is_same_v<M, H> || ...);
}

template <typename M, typename... Handles>
inline constexpr bool kHandled = (Lists<M>(Handles{}) || ...);

// One static_assert per id and per struct, so the compiler names the
// offending one in the instantiation that fails.
template <MessageTypeId kId, size_t kStructs>
constexpr bool OneStructPerId() {
  static_assert(kStructs == (kId == MessageTypeId::kTest ? 0 : 1),
                "message table: every MessageTypeId except kTest names exactly one message struct");
  return true;
}

template <typename M, bool kIsHandled>
constexpr bool HandledByANode() {
  static_assert(kIsHandled,
                "message table: a message struct is in no node's dispatch list and not "
                "accounting-only");
  return true;
}

template <typename All, typename Ids, typename... Handles>
struct Checker;

template <typename... M, size_t... kIds, typename... Handles>
struct Checker<MessageList<M...>, std::index_sequence<kIds...>, Handles...> {
  static constexpr bool kOk =
      (OneStructPerId<static_cast<MessageTypeId>(kIds),
                      kStructsWithId<static_cast<MessageTypeId>(kIds), M...>>() &&
       ...) &&
      (HandledByANode<M, kHandled<M, Handles...>>() && ...);
};

}  // namespace message_table

// Checks a message table at compile time: `all` lists every message struct,
// `handles` are what each node dispatches plus the structs no node
// dispatches on purpose. Every id except kTest must name exactly one struct
// of `all`, and every struct of `all` must appear in some list of `handles`.
template <typename All, typename... Handles>
constexpr bool CheckMessageTable(All /*all*/, Handles... /*handles*/) {
  return message_table::Checker<All, std::make_index_sequence<kMessageTypeCount>, Handles...>::kOk;
}

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
