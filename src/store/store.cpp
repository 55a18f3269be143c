#include "src/store/store.h"

#include <cstring>

// WalStore is the real-disk durability surface; the fsync/truncate syscalls
// below are what the simulated Store contract is modeling. Protocol code
// never touches file IO directly — it goes through the Store interface.
// ntlint:allow(nondet): raw file IO is the WAL durability layer itself
#include <unistd.h>

#include "src/common/codec.h"

namespace nt {
namespace {

// WAL record layout:
//   u32 magic | u8 op | 32B key | u32 value_len | value | u32 crc
// crc covers everything before it (magic..value).
constexpr uint32_t kRecordMagic = 0x4e54574c;  // "NTWL"
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpErase = 2;

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const Crc32Table table;
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c = table.t[(c ^ data[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

// ------------------------------------------------------------------ MemStore

void MemStore::Put(const Digest& key, SharedBytes value) { map_[key] = std::move(value); }

SharedBytes MemStore::Get(const Digest& key) const {
  const SharedBytes* value = map_.find(key);
  return value == nullptr ? nullptr : *value;
}

bool MemStore::Contains(const Digest& key) const { return map_.contains(key); }

bool MemStore::Erase(const Digest& key) { return map_.erase(key); }

void MemStore::ForEach(const std::function<void(const Digest&, const SharedBytes&)>& fn) const {
  map_.ForEachSorted(DigestLess{}, fn);
}

// ------------------------------------------------------------------ WalStore

std::unique_ptr<WalStore> WalStore::Open(const std::string& path) {
  // Make sure the file exists before the replay pass (first open of a fresh
  // log), without holding an append handle yet — the tail may need to be
  // truncated first.
  {
    std::FILE* create = std::fopen(path.c_str(), "ab");
    if (create == nullptr) {
      return nullptr;
    }
    std::fclose(create);
  }

  // Replay phase: read records up to the first torn or corrupt one,
  // remembering the byte offset of the last good record boundary.
  MemStore mem;
  size_t recovered = 0;
  long good_end = 0;
  long file_end = 0;
  {
    std::FILE* rf = std::fopen(path.c_str(), "rb");
    if (rf == nullptr) {
      return nullptr;
    }
    std::fseek(rf, 0, SEEK_END);
    file_end = std::ftell(rf);
    std::fseek(rf, 0, SEEK_SET);
    for (;;) {
      uint8_t head[4 + 1 + 32 + 4];
      if (std::fread(head, 1, sizeof(head), rf) != sizeof(head)) {
        break;  // Clean EOF or torn header: stop replay.
      }
      Reader hr(head, sizeof(head));
      uint32_t magic = hr.GetU32();
      uint8_t op = hr.GetU8();
      Digest key = hr.GetArray<32>();
      uint32_t value_len = hr.GetU32();
      if (magic != kRecordMagic || value_len > (64u << 20)) {
        break;  // Corrupt record; stop at last good prefix.
      }
      Bytes value(value_len);
      if (value_len > 0 && std::fread(value.data(), 1, value_len, rf) != value_len) {
        break;  // Torn value.
      }
      uint8_t crc_bytes[4];
      if (std::fread(crc_bytes, 1, 4, rf) != 4) {
        break;  // Torn crc.
      }
      Reader cr(crc_bytes, 4);
      uint32_t stored_crc = cr.GetU32();

      Writer crc_input;
      crc_input.PutRaw(head, sizeof(head));
      crc_input.PutRaw(value);
      if (Crc32(crc_input.bytes().data(), crc_input.size()) != stored_crc) {
        break;  // Corrupt record.
      }

      if (op == kOpPut) {
        mem.Put(key, std::move(value));
      } else if (op == kOpErase) {
        mem.Erase(key);
      } else {
        break;
      }
      ++recovered;
      good_end = std::ftell(rf);
    }
    std::fclose(rf);
  }

  // Truncate a torn/corrupt tail back to the last good record boundary
  // BEFORE reopening for append. Appending after the garbage would make
  // every subsequent record unreachable on the next recovery (replay stops
  // at the garbage), silently losing acknowledged data.
  size_t truncated = 0;
  if (good_end < file_end) {
    // ntlint:allow(nondet): truncate(2) is the WAL torn-tail repair
    if (::truncate(path.c_str(), good_end) != 0) {
      return nullptr;
    }
    truncated = static_cast<size_t>(file_end - good_end);
  }

  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return nullptr;
  }
  auto store = std::unique_ptr<WalStore>(new WalStore(f, path));
  store->mem_ = std::move(mem);
  store->recovered_records_ = recovered;
  store->truncated_bytes_ = truncated;
  return store;
}

WalStore::~WalStore() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void WalStore::AppendRecord(uint8_t op, const Digest& key, const Bytes& value) {
  Writer w(4 + 1 + 32 + 4 + value.size() + 4);
  w.PutU32(kRecordMagic);
  w.PutU8(op);
  w.PutRaw(key);
  w.PutU32(static_cast<uint32_t>(value.size()));
  w.PutRaw(value);
  uint32_t crc = Crc32(w.bytes().data(), w.size());
  w.PutU32(crc);
  std::fwrite(w.bytes().data(), 1, w.size(), file_);
}

void WalStore::Put(const Digest& key, SharedBytes value) {
  AppendRecord(kOpPut, key, *value);
  mem_.Put(key, std::move(value));
}

SharedBytes WalStore::Get(const Digest& key) const { return mem_.Get(key); }

bool WalStore::Contains(const Digest& key) const { return mem_.Contains(key); }

bool WalStore::Erase(const Digest& key) {
  if (!mem_.Contains(key)) {
    return false;
  }
  AppendRecord(kOpErase, key, {});
  return mem_.Erase(key);
}

void WalStore::ForEach(const std::function<void(const Digest&, const SharedBytes&)>& fn) const {
  mem_.ForEach(fn);
}

void WalStore::Sync() {
  std::fflush(file_);
  // A real durability barrier: fflush only moves data into the OS page
  // cache, which a process crash still loses from the application's point
  // of view once the ack is out. The paper's artifact relies on RocksDB's
  // WAL fsync for the same reason.
  // ntlint:allow(nondet): fsync/fileno are the WAL durability barrier
  ::fsync(::fileno(file_));
  ++sync_count_;
}

}  // namespace nt
