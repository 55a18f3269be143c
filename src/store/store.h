// Persistent key-value storage — the role RocksDB plays in the paper's
// artifact (§6: "Data-structures are persisted using RocksDB").
//
// Two implementations:
//  - MemStore: plain in-memory hash index (used by most simulations).
//  - WalStore: in-memory index backed by an append-only write-ahead log on
//    disk with CRC-protected records and recovery, for durability tests and
//    the storage micro-benchmarks.
//
// Both model the durable disk a validator recovers from after a crash:
// the runtime keeps Store objects alive across a simulated process restart
// and the protocol objects rebuild their state from them (Recover paths in
// Primary/Tusk/HotStuff). Sync() is the durability barrier — for WalStore
// it is a real fsync, for MemStore a counted no-op — and sync_count()
// lets tests assert the sync-on-seal policy (a worker's batch ack implies
// the batch is on disk).
#ifndef SRC_STORE_STORE_H_
#define SRC_STORE_STORE_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/crypto/digest_table.h"

namespace nt {

// Digest-keyed blob store. Values are immutable shared buffers: a store
// keeps the pointer it is given, so a value written by one owner (a sealed
// batch) costs no copy however many stores hold it.
class Store {
 public:
  virtual ~Store() = default;

  // Inserts or overwrites. `value` must not be null.
  virtual void Put(const Digest& key, SharedBytes value) = 0;
  void Put(const Digest& key, Bytes value) {
    Put(key, std::make_shared<const Bytes>(std::move(value)));
  }

  // Returns the stored value itself (no copy), or null if the key is absent.
  virtual SharedBytes Get(const Digest& key) const = 0;

  virtual bool Contains(const Digest& key) const = 0;

  // Removes the key if present. Returns true if it was present.
  virtual bool Erase(const Digest& key) = 0;

  virtual size_t size() const = 0;

  // Visits every live record in DigestLess key order, whatever the order of
  // puts and erases (deterministic: both stores sort a snapshot of their
  // hashed index). Recovery scans are built on this.
  virtual void ForEach(
      const std::function<void(const Digest&, const SharedBytes&)>& fn) const = 0;

  // Durability barrier: after Sync() returns, every preceding Put/Erase
  // survives a process crash. MemStore only counts the call (simulated disk
  // is process memory); WalStore does a real fsync.
  virtual void Sync() { ++sync_count_; }

  uint64_t sync_count() const { return sync_count_; }

 protected:
  uint64_t sync_count_ = 0;
};

class MemStore : public Store {
 public:
  using Store::Put;
  void Put(const Digest& key, SharedBytes value) override;
  SharedBytes Get(const Digest& key) const override;
  bool Contains(const Digest& key) const override;
  bool Erase(const Digest& key) override;
  size_t size() const override { return map_.size(); }
  void ForEach(const std::function<void(const Digest&, const SharedBytes&)>& fn) const override;

 private:
  // Hashed for one-probe lookups; ForEach restores key order.
  DigestMap<SharedBytes> map_;
};

// Append-only WAL-backed store. Every mutation is written as a
// length-prefixed, CRC32-protected record before being applied to the
// in-memory index. Open() replays the log, truncating a torn or corrupt
// tail back to the last good record boundary before reopening for append
// (appending after garbage would silently orphan every later record on the
// *next* recovery).
class WalStore : public Store {
 public:
  // Opens (creating if needed) the log at `path` and replays it.
  // Returns nullptr if the file cannot be opened for appending or a
  // corrupt tail cannot be truncated away.
  static std::unique_ptr<WalStore> Open(const std::string& path);

  ~WalStore() override;

  using Store::Put;
  // Appends the bytes to the log; the index keeps the pointer.
  void Put(const Digest& key, SharedBytes value) override;
  SharedBytes Get(const Digest& key) const override;
  bool Contains(const Digest& key) const override;
  bool Erase(const Digest& key) override;
  size_t size() const override { return mem_.size(); }
  void ForEach(const std::function<void(const Digest&, const SharedBytes&)>& fn) const override;

  // Flushes buffered records and fsyncs the file: a real durability
  // barrier, not just a libc-buffer flush.
  void Sync() override;

  // Number of records replayed by Open() (for recovery tests).
  size_t recovered_records() const { return recovered_records_; }

  // Bytes of torn/corrupt tail Open() truncated away (0 for a clean log).
  size_t truncated_bytes() const { return truncated_bytes_; }

 private:
  WalStore(std::FILE* file, const std::string& path) : file_(file), path_(path) {}

  void AppendRecord(uint8_t op, const Digest& key, const Bytes& value);

  std::FILE* file_;
  std::string path_;
  MemStore mem_;
  size_t recovered_records_ = 0;
  size_t truncated_bytes_ = 0;
};

// CRC32 (IEEE 802.3 polynomial, bit-reflected) over a byte buffer; used by
// the WAL record format and exposed for tests.
uint32_t Crc32(const uint8_t* data, size_t len);

}  // namespace nt

#endif  // SRC_STORE_STORE_H_
