// The message table: every message struct in the tree, and the nodes that
// dispatch it. CheckMessageTable (src/net/message.h) makes both directions a
// compile error: a MessageTypeId with no struct here (or with two), and a
// struct here that no node's Handles list names.
#ifndef SRC_RUNTIME_MESSAGE_TABLE_H_
#define SRC_RUNTIME_MESSAGE_TABLE_H_

#include "src/hotstuff/hotstuff.h"
#include "src/hotstuff/messages.h"
#include "src/hotstuff/payload.h"
#include "src/narwhal/primary.h"
#include "src/narwhal/worker.h"
#include "src/net/message.h"
#include "src/types/messages.h"

namespace nt {

using AllMessages =
    MessageList<MsgBatch, MsgBatchAck, MsgBatchReady, MsgFetchBatch, MsgBatchStored, MsgHeader,
                MsgVote, MsgCertificate, MsgCertRequest, MsgCertResponse, MsgBatchRequest,
                MsgBatchResponse, MsgHsProposal, MsgHsVote, MsgHsTimeout, MsgHsBlockRequest,
                MsgHsBlockResponse, MsgGossipTxs>;

// Sized for the bandwidth model only: sent, and dispatched by no node.
using AccountingOnly = MessageList<MsgGossipTxs>;

static_assert(CheckMessageTable(AllMessages{}, Primary::Handles{}, Worker::Handles{},
                                HotStuff::Handles{}, BatchedProvider::Handles{},
                                AccountingOnly{}));

}  // namespace nt

#endif  // SRC_RUNTIME_MESSAGE_TABLE_H_
