// Compile-fail fixture: a MessageTypeId with no message struct. With
// NT_DEFECT the table lacks the struct for kGossipTxs, as if the enumerator
// had been added without one, and CheckMessageTable rejects it. Without it,
// the tree's own table compiles.
#include <type_traits>

#include "src/runtime/message_table.h"

namespace nt {

template <typename... A, typename... B>
MessageList<A..., B...> operator+(MessageList<A...>, MessageList<B...>) {
  return {};
}

// The list without `Drop`.
template <typename Drop, typename... M>
auto Without(MessageList<M...>) {
  return (MessageList<>{} + ... +
          std::conditional_t<std::is_same_v<M, Drop>, MessageList<>, MessageList<M>>{});
}

#ifdef NT_DEFECT
using Table = decltype(Without<MsgGossipTxs>(AllMessages{}));
#else
using Table = AllMessages;
#endif

static_assert(CheckMessageTable(Table{}, Primary::Handles{}, Worker::Handles{},
                                HotStuff::Handles{}, BatchedProvider::Handles{},
                                AccountingOnly{}));

}  // namespace nt
