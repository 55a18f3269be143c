// An overload set of lambdas: the visitor ForEachRecord (src/store/record.h)
// and Dispatch (src/net/message.h) call with each record or message type.
#ifndef SRC_COMMON_OVERLOADED_H_
#define SRC_COMMON_OVERLOADED_H_

namespace nt {

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <typename... F>
Overloaded(F...) -> Overloaded<F...>;

}  // namespace nt

#endif  // SRC_COMMON_OVERLOADED_H_
