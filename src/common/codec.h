// Canonical little-endian binary codec. Every protocol message, digest
// pre-image, and persisted record is encoded through Writer/Reader so that
// (a) digests/signatures are computed over a unique canonical form and
// (b) the simulated network can account wire sizes faithfully.
//
// A wire type lists its fields once, in wire order, and EncodeWire,
// DecodeWire and WireSizeOf walk that list (see "Field lists" below), so its
// layout is written once and encode, decode and size cannot drift apart.
#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bytes.h"

namespace nt {

// Appends primitive values to an owned byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian(v, 2); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  // The low `n` bytes of `v`, least significant first.
  void PutLittleEndian(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  // Raw bytes, no length prefix (fixed-size fields like digests/keys).
  void PutRaw(const uint8_t* data, size_t len) { buf_.insert(buf_.end(), data, data + len); }
  void PutRaw(const Bytes& data) { PutRaw(data.data(), data.size()); }
  template <size_t N>
  void PutRaw(const std::array<uint8_t, N>& data) {
    PutRaw(data.data(), N);
  }

  // u32 length prefix followed by the bytes (variable-size fields).
  void PutVar(const Bytes& data) {
    PutU32(static_cast<uint32_t>(data.size()));
    PutRaw(data);
  }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  // Empties the buffer and keeps its capacity, for a Writer that is reused.
  void Clear() { buf_.clear(); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Consumes primitive values from a borrowed byte span. All getters are
// total: on underflow they set a sticky failure flag and return zeroed
// values, so parse functions check `ok()` once at the end.
class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Reader(const Bytes& data) : Reader(data.data(), data.size()) {}

  uint8_t GetU8() { return static_cast<uint8_t>(GetLittleEndian(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(GetLittleEndian(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLittleEndian(4)); }
  uint64_t GetU64() { return GetLittleEndian(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  bool GetBool() { return GetU8() != 0; }
  // An `n`-byte little-endian value (zero on underflow).
  uint64_t GetLittleEndian(int n) {
    if (!Ensure(static_cast<size_t>(n))) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  bool GetRaw(uint8_t* out, size_t n) {
    if (!Ensure(n)) {
      std::memset(out, 0, n);
      return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  template <size_t N>
  std::array<uint8_t, N> GetArray() {
    std::array<uint8_t, N> out{};
    GetRaw(out.data(), N);
    return out;
  }
  // The next `n` raw bytes, borrowed from the input (empty on underflow).
  std::span<const uint8_t> GetRawView(size_t n) {
    if (!Ensure(n)) {
      return {};
    }
    std::span<const uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }
  Bytes GetVar() {
    std::span<const uint8_t> view = GetVarView();
    return Bytes(view.begin(), view.end());
  }
  // As GetVar, but borrows the bytes from the input instead of copying them:
  // the view is valid as long as the input is.
  std::span<const uint8_t> GetVarView() { return GetRawView(GetU32()); }
  std::string GetString() { return std::string(GetStringView()); }
  // As GetVarView, as characters.
  std::string_view GetStringView() {
    std::span<const uint8_t> view = GetVarView();
    return {reinterpret_cast<const char*>(view.data()), view.size()};
  }

  // True iff no getter has underflowed so far.
  bool ok() const { return ok_; }
  // True iff the whole input was consumed and no underflow occurred.
  bool AtEnd() const { return ok_ && pos_ == len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------- Field lists
//
// A field-listed type names its wire fields once, in wire order, for a const
// or a mutable instance:
//
//   static auto Fields(auto& self) { return WireFields(self.a, self.b); }
//
// A field is an integer, bool or enum (little-endian, its sizeof() bytes); a
// byte array (Digest, Signature); a std::vector (a u32 count, then the
// elements; any sized range to encode and size); a nested field-listed type
// or OwnCodec leaf; a shared_ptr, sized as what it points to; or, last,
// Tail{bytes}: raw bytes to the end of the input.

// An lvalue field is held by reference, a prvalue (a view, a Tail) by value.
template <typename... F>
std::tuple<F...> WireFields(F&&... fields) {
  return std::tuple<F...>(std::forward<F>(fields)...);
}

template <typename B>
struct Tail {
  B& bytes;
};

template <typename T>
concept FieldListed = requires(T& value, const T& cvalue) {
  T::Fields(value);
  T::Fields(cvalue);
};

// A leaf whose encoding is a buffer it holds (Batch, VoteList), so a field
// list would only copy it: declared by `static constexpr bool kOwnCodec =
// true;` with the reason, and it must have both legs.
template <typename T>
concept OwnCodec = requires(const T& value, Writer& w, Reader& r) {
  requires T::kOwnCodec;
  value.Encode(w);
  { T::Decode(r) } -> std::same_as<std::optional<T>>;
};

namespace wire {

template <typename T, template <typename...> class Template>
inline constexpr bool kIs = false;
template <template <typename...> class Template, typename... A>
inline constexpr bool kIs<Template<A...>, Template> = true;

template <typename T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;
template <typename T>
concept ByteArray = std::same_as<T, std::array<uint8_t, sizeof(T)>>;

// The fewest bytes a T encodes to, which bounds a decoded count by the
// input before anything is allocated (an own-codec leaf counts one).
template <typename T>
constexpr size_t MinSize() {
  if constexpr (Scalar<T> || ByteArray<T>) {
    return sizeof(T);
  } else if constexpr (kIs<T, std::vector> || kIs<T, Tail>) {
    return kIs<T, std::vector> ? 4 : 0;
  } else if constexpr (FieldListed<T>) {
    using Fields = decltype(T::Fields(std::declval<T&>()));
    return []<size_t... I>(std::index_sequence<I...>) {
      return (MinSize<std::remove_cvref_t<std::tuple_element_t<I, Fields>>>() + ... + 0);
    }(std::make_index_sequence<std::tuple_size_v<Fields>>{});
  } else {
    return 1;
  }
}

// Reads `out` in place: false on a short read, a count the input cannot
// hold, or a malformed leaf.
template <typename T>
bool Get(Reader& r, T& out) {
  if constexpr (Scalar<T>) {
    out = static_cast<T>(r.GetLittleEndian(sizeof(T)));
  } else if constexpr (ByteArray<T>) {
    r.GetRaw(out.data(), out.size());
  } else if constexpr (kIs<T, std::tuple>) {
    return std::apply([&r](auto&... field) { return (Get(r, field) && ...); }, out);
  } else if constexpr (kIs<T, Tail>) {
    const std::span<const uint8_t> rest = r.GetRawView(r.remaining());
    out.bytes.assign(rest.begin(), rest.end());
  } else if constexpr (FieldListed<T>) {
    auto fields = T::Fields(out);
    return Get(r, fields);
  } else if constexpr (OwnCodec<T>) {
    std::optional<T> value = T::Decode(r);
    if (!value.has_value()) {
      return false;
    }
    out = std::move(*value);
  } else {
    const uint32_t count = r.GetU32();
    if (!r.ok() || count > r.remaining() / std::max<size_t>(1, MinSize<typename T::value_type>())) {
      return false;
    }
    for (uint32_t i = 0; i < count; ++i) {
      if (!Get(r, out.emplace_back())) {
        return false;
      }
    }
  }
  return r.ok();
}

}  // namespace wire

// Appends `value`'s encoding; `value` may be the tuple a Fields() call
// returns.
template <typename T>
void EncodeWire(Writer& w, const T& value) {
  if constexpr (wire::Scalar<T>) {
    w.PutLittleEndian(static_cast<uint64_t>(value), sizeof(T));
  } else if constexpr (wire::ByteArray<T>) {
    w.PutRaw(value);
  } else if constexpr (wire::kIs<T, std::tuple>) {
    std::apply([&w](const auto&... field) { (EncodeWire(w, field), ...); }, value);
  } else if constexpr (wire::kIs<T, Tail>) {
    w.PutRaw(value.bytes.data(), value.bytes.size());
  } else if constexpr (FieldListed<T>) {
    EncodeWire(w, T::Fields(value));
  } else if constexpr (OwnCodec<T>) {
    value.Encode(w);
  } else {
    w.PutU32(static_cast<uint32_t>(std::ranges::size(value)));
    for (const auto& element : value) {
      EncodeWire(w, element);
    }
  }
}

// Reads one T from `r`, which may hold more: nullopt on a short read, a
// count the input cannot hold, or a malformed leaf.
template <typename T>
std::optional<T> DecodeWire(Reader& r) {
  if constexpr (OwnCodec<T>) {
    return T::Decode(r);
  } else {
    std::optional<T> value(std::in_place);
    return wire::Get(r, *value) ? value : std::nullopt;
  }
}

// As DecodeWire, for a T that must fill the rest of `r`.
template <typename T>
std::optional<T> DecodeWhole(Reader& r) {
  std::optional<T> value = DecodeWire<T>(r);
  return value.has_value() && r.AtEnd() ? value : std::nullopt;
}

// The bytes `value` costs on the wire, by arithmetic over its field list
// (never by encoding it), or its own accounting model.
template <typename T>
size_t WireSizeOf(const T& value) {
  if constexpr (wire::Scalar<T> || wire::ByteArray<T>) {
    return sizeof(T);
  } else if constexpr (wire::kIs<T, std::tuple>) {
    return std::apply([](const auto&... field) { return (WireSizeOf(field) + ... + size_t{0}); },
                      value);
  } else if constexpr (wire::kIs<T, Tail>) {
    return value.bytes.size();
  } else if constexpr (wire::kIs<T, std::shared_ptr>) {
    return WireSizeOf(*value);
  } else if constexpr (FieldListed<T>) {
    return WireSizeOf(T::Fields(value));
  } else if constexpr (requires { value.WireSize(); }) {
    return value.WireSize();
  } else if constexpr (OwnCodec<T>) {
    return value.bytes().size();  // The encoding the leaf holds.
  } else {
    size_t size = 4;
    for (const auto& element : value) {
      size += WireSizeOf(element);
    }
    return size;
  }
}

// A type with both codec legs: a field list, which gives both, or an own
// codec with its Encode and its static Decode.
template <typename T>
concept TwoSidedCodec = FieldListed<T> || OwnCodec<T>;

// A list of two-sided codecs (the decode fuzzer's corpus). Listing a type
// that has neither a field list nor a declared own codec with both legs is
// a compile error.
template <TwoSidedCodec... T>
struct CodecList {};

}  // namespace nt

#endif  // SRC_COMMON_CODEC_H_
