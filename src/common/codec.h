// Canonical little-endian binary codec. Every protocol message, digest
// pre-image, and persisted record is encoded through Writer/Reader so that
// (a) digests/signatures are computed over a unique canonical form and
// (b) the simulated network can account wire sizes faithfully.
#ifndef SRC_COMMON_CODEC_H_
#define SRC_COMMON_CODEC_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

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
  void PutLittleEndian(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

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

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// A type with both codec legs: it encodes itself into a Writer, and a static
// Decode reads it back from a Reader.
template <typename T>
concept TwoSidedCodec = requires(const T& value, Writer& w, Reader& r) {
  value.Encode(w);
  T::Decode(r);
};

// A list of two-sided codecs (the decode fuzzer's corpus). Listing a type
// that has only one of Encode and Decode is a compile error.
template <TwoSidedCodec... T>
struct CodecList {};

}  // namespace nt

#endif  // SRC_COMMON_CODEC_H_
