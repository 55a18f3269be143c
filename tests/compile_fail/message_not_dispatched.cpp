// Compile-fail fixture: a registered message struct no node dispatches.
// With NT_DEFECT the worker's Handles list is left out, so MsgBatchAck,
// MsgFetchBatch and MsgBatchResponse are in the table with no handler, and
// CheckMessageTable rejects them. Without it, the tree's own table compiles.
#include "src/runtime/message_table.h"

namespace nt {

#ifdef NT_DEFECT
static_assert(CheckMessageTable(AllMessages{}, Primary::Handles{}, HotStuff::Handles{},
                                BatchedProvider::Handles{}, AccountingOnly{}));
#else
static_assert(CheckMessageTable(AllMessages{}, Primary::Handles{}, Worker::Handles{},
                                HotStuff::Handles{}, BatchedProvider::Handles{},
                                AccountingOnly{}));
#endif

}  // namespace nt
