// Compile-fail fixture: a one-sided codec in the decode fuzzer's codec list.
// With NT_DEFECT the list names a type that can encode itself but has no
// Decode, and CodecList's TwoSidedCodec constraint rejects it. Without it,
// the list holds only two-sided codecs and compiles.
#include <optional>

#include "src/common/codec.h"

namespace nt {

struct Payload {
  uint64_t value = 0;
  void Encode(Writer& w) const { w.PutU64(value); }
#ifndef NT_DEFECT
  static std::optional<Payload> Decode(Reader& r) {
    Payload p{r.GetU64()};
    return r.ok() ? std::optional(p) : std::nullopt;
  }
#endif
};

using FuzzedCodecs = CodecList<Payload>;
[[maybe_unused]] FuzzedCodecs codecs;

}  // namespace nt
