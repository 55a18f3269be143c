// Typed WAL records: the one seam between a protocol object's durable state
// and its Store.
//
// A record type R is a small struct declared next to its owner:
//
//   static constexpr uint8_t kTag;            first byte of the stored value
//   static constexpr Prune kPrune;            what keeps the tag bounded
//   <fields>
//   Digest Key() const;                        the store key
//   static auto Fields(auto& self);            the field list
//                                              (src/common/codec.h): what
//                                              follows the tag
//
// The stored value is the tag, then EncodeWire over the field list;
// DecodeRecord reads it back through the same list, and yields nullopt on a
// short read or trailing bytes. A record with no field list does not compile
// into a RecordList.
//
// A sealed record type also keeps its whole stored value as one immutable
// buffer, written once by SealRecordValue and shared by every store that
// holds it (the primary's 'H' and 'C' records are the buffers their author
// sealed into the header and the certificate):
//
//   SharedBytes Sealed() const;                  the value PutRecord stores,
//                                                the same bytes the field
//                                                list gives
//   static std::optional<R> Adopt(SharedBytes);  DecodeRecord over a stored
//                                                value, keeping the buffer
//
// SealRecordValue, and through it PutRecord, is the only writer of a tag
// byte; ForEachRecord is the only place one is dispatched on. Each store
// names the record types it holds once, as a RecordList, whose tags must be
// distinct.
#ifndef SRC_STORE_RECORD_H_
#define SRC_STORE_RECORD_H_

#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/common/codec.h"
#include "src/common/overloaded.h"
#include "src/crypto/hash.h"
#include "src/store/store.h"

namespace nt {

// A record type's prune rule: how many records of its tag a store can hold.
enum class Prune {
  // One fixed key, overwritten in place: exactly one record once written.
  kLatestOnly,
  // Keyed per DAG vertex (or per round) and erased below the GC horizon: at
  // most (round - gc_round + 2) * n records, the +2 covering the current
  // round and the parents of headers at the horizon.
  kGcHorizon,
};

// SHA-256(tag ‖ digest): the key of a record named by one digest.
inline Digest TaggedKey(uint8_t tag, const Digest& digest) {
  uint8_t buf[1 + sizeof(Digest)];
  buf[0] = tag;
  std::memcpy(buf + 1, digest.data(), digest.size());
  return Sha256::Hash(buf, sizeof(buf));
}

// The value of a record tagged `tag`: the tag, then what
// `encode_fields(Writer&)` writes, in an exact-size immutable buffer. The
// bytes are first written into a reused per-thread buffer: a store keeps its
// records for many rounds, so none of them keeps a Writer's growth slack, and
// the reused buffer grows once per thread instead of once per record.
// `encode_fields` must not seal another value.
template <typename EncodeFields>
SharedBytes SealRecordValue(uint8_t tag, const EncodeFields& encode_fields) {
  thread_local Writer encoding;
  encoding.Clear();
  encoding.PutU8(tag);
  encode_fields(encoding);
  return std::make_shared<const Bytes>(Bytes(encoding.bytes().begin(), encoding.bytes().end()));
}

template <typename R>
concept WalRecord = FieldListed<R> && requires(const R& record) {
  { R::kTag } -> std::convertible_to<uint8_t>;
  R::kPrune;
  { record.Key() } -> std::same_as<Digest>;
};

template <typename R>
concept SealedRecord = requires(const R& record, SharedBytes value) {
  { record.Sealed() } -> std::same_as<SharedBytes>;
  { R::Adopt(std::move(value)) } -> std::same_as<std::optional<R>>;
};

// Stores `record`: a sealed record's own buffer, any other sealed afresh.
template <typename R>
void PutRecord(Store& store, const R& record) {
  if constexpr (SealedRecord<R>) {
    store.Put(record.Key(), record.Sealed());
  } else {
    store.Put(record.Key(), SealRecordValue(R::kTag, [&](Writer& w) { EncodeWire(w, record); }));
  }
}

// Decodes a stored value as R: nullopt if the tag differs, or on a short
// read or trailing bytes.
template <typename R>
std::optional<R> DecodeRecord(const Bytes& value) {
  if (value.empty() || value[0] != R::kTag) {
    return std::nullopt;
  }
  Reader r(value.data() + 1, value.size() - 1);
  return DecodeWhole<R>(r);
}

// Reads a latest-only record, if one is stored intact.
template <typename R>
std::optional<R> GetRecord(const Store& store) {
  SharedBytes value = store.Get(R{}.Key());
  return value != nullptr ? DecodeRecord<R>(*value) : std::nullopt;
}

// Visits every intact record of the listed types, in store key order, with
// `visit(R&&)` (a handler may take the decoded record by const& or move from
// it; a sealed record adopts the stored buffer); other owners' tags are
// skipped. Every listed type needs a handler (pass an Overloaded set).
// Returns the number of values carrying a listed tag, intact or not.
template <typename... R, typename Visitor>
size_t ForEachRecord(const Store& store, Visitor&& visit) {
  static_assert((std::is_invocable_v<Visitor&, R&&> && ...),
                "ForEachRecord: a listed record type has no handler");
  size_t seen = 0;
  store.ForEach([&](const Digest&, const SharedBytes& stored) {
    const Bytes& value = *stored;
    auto try_one = [&]<typename One>() {
      if (value.empty() || value[0] != One::kTag) {
        return false;
      }
      std::optional<One> record;
      if constexpr (SealedRecord<One>) {
        record = One::Adopt(stored);
      } else {
        record = DecodeRecord<One>(value);
      }
      if (record.has_value()) {
        visit(std::move(*record));
      }
      return true;
    };
    seen += (try_one.template operator()<R>() || ...) ? 1 : 0;
  });
  return seen;
}

// The record types one store holds. Declaring the list is what checks that
// each is a record with a field list and that their tags are distinct.
template <WalRecord... R>
struct RecordList {
  static_assert(
      [] {
        constexpr uint8_t tags[] = {R::kTag...};
        for (size_t i = 0; i < sizeof...(R); ++i) {
          for (size_t j = i + 1; j < sizeof...(R); ++j) {
            if (tags[i] == tags[j]) {
              return false;
            }
          }
        }
        return true;
      }(),
      "record tags within one store must be distinct");

  template <typename Visitor>
  static size_t ForEach(const Store& store, Visitor&& visit) {
    return ForEachRecord<R...>(store, visit);
  }

  // Calls fn.template operator()<R>() once per listed type, in list order.
  template <typename Fn>
  static void ForEachType(Fn&& fn) {
    (fn.template operator()<R>(), ...);
  }
};

}  // namespace nt

#endif  // SRC_STORE_RECORD_H_
