// Compile-fail fixture: codec drift, the bug shape ntlint's retired R4
// (codec-mismatch) rule looked for. With NT_DEFECT a WAL record writes and
// reads its fields by hand, and its Decode reads the round as a u64 where
// Encode wrote a u32; the record has no field list, so RecordList's
// WalRecord constraint (src/store/record.h) rejects it, and so would the
// decode fuzzer's CodecList. Without it, the record lists its fields once,
// the layout EncodeWire, DecodeWire and WireSizeOf all walk, and compiles.
#include <optional>
#include <string_view>

#include "src/store/record.h"

namespace nt {

struct DriftRecord {
  static constexpr uint8_t kTag = 'X';
  static constexpr Prune kPrune = Prune::kLatestOnly;
  uint32_t round = 0;
  uint64_t count = 0;

  Digest Key() const { return Sha256::Hash(std::string_view("drift")); }
#ifdef NT_DEFECT
  void Encode(Writer& w) const {
    w.PutU32(round);
    w.PutU64(count);
  }
  static std::optional<DriftRecord> Decode(Reader& r) {
    DriftRecord rec{static_cast<uint32_t>(r.GetU64()), r.GetU64()};
    return r.AtEnd() ? std::optional(rec) : std::nullopt;
  }
#else
  static auto Fields(auto& self) { return WireFields(self.round, self.count); }
#endif
};

using DriftStoreRecords = RecordList<DriftRecord>;
[[maybe_unused]] DriftStoreRecords records;

}  // namespace nt
