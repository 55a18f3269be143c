// The digest-keyed containers: FlatTable, the one hash map, and
// DigestWindow, the one position index.
//
// FlatTable sits behind every digest-keyed lookup index (the DAG's
// certificate and header indexes, the stores, the committed sets, the batch
// indexes and the batch directory, the verified-certificate cache) and behind
// the execution lanes' string-keyed books.
//
// Digest keys are SHA-256 outputs, already uniform, so their hash is the
// digest's first 8 bytes (DigestHash). String keys hash with FNV-1a
// (StringHash), the function that also routes keys to execution lanes. Either
// hash is then mixed by a multiplicative step before it picks a slot, and a
// lookup compares the full key only on a slot whose 7-bit tag matches. Open
// addressing with linear probing over one flat slot array and a parallel
// control-byte array; erasure shifts the probe run back (no tombstones), so a
// table that churns under garbage collection never degrades. Capacity is a
// power of two grown at 7/8 load; nothing is allocated until the first
// insert.
//
// There is no begin()/end(): slot order depends on insertion history, and
// nothing the protocol emits may depend on it. The only iteration is
// ForEachSorted, which visits a snapshot in a caller-given key order.
//
// DigestWindow is a worker's duplicate filter: it remembers the last W
// admitted digests, each stored once, in a ring, and indexes them with an
// open-addressing table (FlatTable's hash, probing and erase rules) whose
// 8-byte entries hold a ring position and a 32-bit hash tag instead of a
// second copy of the digest.
#ifndef SRC_CRYPTO_DIGEST_TABLE_H_
#define SRC_CRYPTO_DIGEST_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/hash.h"

namespace nt {

// The table hash of a digest: its first 8 bytes.
struct DigestHash {
  uint64_t operator()(const Digest& d) const {
    uint64_t h;
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

// The table hash of a string key.
struct StringHash {
  uint64_t operator()(std::string_view s) const { return Fnv1a(s); }
};

// What a table's find, emplace and erase take: the key itself, except that a
// string-keyed table is probed with a view, so a lookup builds no
// std::string (only an insertion does).
template <typename Key>
struct LookupKey {
  using type = const Key&;
};
template <>
struct LookupKey<std::string> {
  using type = std::string_view;
};

template <typename Key, typename Value, typename Hash = DigestHash>
class FlatTable {
  using KeyArg = typename LookupKey<Key>::type;

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value* find(KeyArg key) {
    const size_t i = Locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const Value* find(KeyArg key) const {
    const size_t i = Locate(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  bool contains(KeyArg key) const { return Locate(key) != kNone; }

  // Inserts (key, value) unless `key` is present. Returns the stored value
  // and whether it was inserted. Pointers into the table stay valid until
  // the next insertion or erasure.
  std::pair<Value*, bool> emplace(KeyArg key, Value value) {
    if ((size_ + 1) * 8 > ctrl_.size() * 7) {
      Rehash(ctrl_.empty() ? 16 : ctrl_.size() * 2);
    }
    const uint64_t h = Mix(key);
    const uint8_t tag = Tag(h);
    for (size_t i = Home(h);; i = (i + 1) & mask_) {
      if (ctrl_[i] == 0) {
        ctrl_[i] = tag;
        slots_[i].key = Key(key);
        slots_[i].value = std::move(value);
        ++size_;
        return {&slots_[i].value, true};
      }
      if (ctrl_[i] == tag && slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
    }
  }
  // Set-style insert: true if `key` was absent.
  bool insert(KeyArg key) { return emplace(key, Value{}).second; }
  // The value under `key`, default-inserted if absent.
  Value& operator[](KeyArg key) { return *emplace(key, Value{}).first; }

  // Removes `key`; true if it was present.
  bool erase(KeyArg key) {
    size_t hole = Locate(key);
    if (hole == kNone) {
      return false;
    }
    // Backward-shift deletion: pull each later member of the probe run into
    // the hole unless that would move it before its home slot.
    for (size_t j = (hole + 1) & mask_; ctrl_[j] != 0; j = (j + 1) & mask_) {
      const size_t home = Home(Mix(slots_[j].key));
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        ctrl_[hole] = ctrl_[j];
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    ctrl_[hole] = 0;
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Drops every entry and releases the storage.
  void clear() {
    ctrl_ = {};
    slots_ = {};
    size_ = 0;
    mask_ = 0;
    shift_ = 64;
  }

  // Visits every entry as fn(key, value), in ascending `less` order of keys.
  template <typename Less, typename Fn>
  void ForEachSorted(Less less, Fn&& fn) const {
    std::vector<const Slot*> order;
    order.reserve(size_);
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] != 0) {
        order.push_back(&slots_[i]);
      }
    }
    std::sort(order.begin(), order.end(),
              [&less](const Slot* a, const Slot* b) { return less(a->key, b->key); });
    for (const Slot* slot : order) {
      fn(slot->key, slot->value);
    }
  }

 private:
  struct Slot {
    Key key{};
    [[no_unique_address]] Value value{};
  };
  static constexpr size_t kNone = ~size_t{0};

  // Spreads the hash so keys that differ only in a few bits (hand-built
  // test digests, FNV-1a of short names) still land apart; a no-op for
  // uniform digests.
  uint64_t Mix(KeyArg key) const { return Hash{}(key) * 0x9E3779B97F4A7C15ull; }
  size_t Home(uint64_t mixed) const { return static_cast<size_t>(mixed >> shift_); }
  // Nonzero control byte of an occupied slot: 0x80 plus 7 hash bits.
  static uint8_t Tag(uint64_t mixed) { return static_cast<uint8_t>(0x80 | (mixed & 0x7f)); }

  size_t Locate(KeyArg key) const {
    if (size_ == 0) {
      return kNone;
    }
    const uint64_t h = Mix(key);
    const uint8_t tag = Tag(h);
    for (size_t i = Home(h);; i = (i + 1) & mask_) {
      if (ctrl_[i] == 0) {
        return kNone;
      }
      if (ctrl_[i] == tag && slots_[i].key == key) {
        return i;
      }
    }
  }

  void Rehash(size_t capacity) {
    std::vector<uint8_t> old_ctrl = std::exchange(ctrl_, std::vector<uint8_t>(capacity, 0));
    std::vector<Slot> old_slots = std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == 0) {
        continue;
      }
      size_t j = Home(Mix(old_slots[i].key));
      while (ctrl_[j] != 0) {
        j = (j + 1) & mask_;
      }
      ctrl_[j] = old_ctrl[i];
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<uint8_t> ctrl_;  // 0 = empty; else the slot's tag.
  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

// A digest-keyed map and set.
template <typename Value>
using DigestMap = FlatTable<Digest, Value>;
struct Present {};
using DigestSet = FlatTable<Digest, Present>;

// A sliding-window duplicate filter over digests: Admit answers whether a
// digest is absent from the last `window` admitted ones, and admits it if
// so. The ring holds each remembered digest once; the index holds, per
// digest, (32-bit tag << 32) | (ring position + 1), 0 marking an empty
// entry. A probe reads the ring only on an entry whose tag matches and
// decides a hit on all 32 bytes, so its answers are exactly those of a
// DigestSet plus a FIFO of the same digests.
//
// Nothing is allocated until the first Admit. The ring then grows with the
// admitted digests and stops at exactly `window` slots, after which each
// admission overwrites the oldest digest in place; the index grows at 7/8
// load and never holds more than `window` entries.
class DigestWindow {
 public:
  // Ring positions are 32-bit and position + 1 must fit an entry's low
  // half, so a window of 2^32 - 1 or more is refused (std::invalid_argument)
  // rather than truncated. 0 disables the filter: Admit admits everything.
  explicit DigestWindow(uint64_t window) : window_(window) {
    if (window >= kMaxWindow) {
      throw std::invalid_argument("dedup window of " + std::to_string(window) +
                                  " digests is too large: ring positions are 32-bit, so it "
                                  "must be below 4294967295");
    }
  }

  // True (and `d` is remembered) unless `d` is among the last `window`
  // admitted digests.
  bool Admit(const Digest& d) {
    if (window_ == 0) {
      return true;
    }
    const uint64_t h = Mix(d);
    const uint64_t tag = h & kPosMask;
    if (size() > 0) {
      for (size_t i = Home(h);; i = (i + 1) & mask_) {
        const uint64_t e = index_[i];
        if (e == 0) {
          break;
        }
        if ((e >> 32) == tag && ring_[(e & kPosMask) - 1] == d) {
          return false;
        }
      }
    }
    uint64_t pos;
    if (ring_.size() < window_) {
      if (ring_.size() == ring_.capacity()) {
        ring_.reserve(std::min<uint64_t>(std::max<size_t>(16, ring_.capacity() * 2), window_));
      }
      pos = ring_.size();
      ring_.push_back(d);
    } else {
      pos = oldest_;
      EraseEntry(pos);
      ring_[pos] = d;
      oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
    }
    if ((entries_ + 1) * 8 > index_.size() * 7) {
      Rehash(index_.empty() ? 16 : index_.size() * 2);
    }
    Place((tag << 32) | (pos + 1), Home(h));
    ++entries_;
    return true;
  }

  // Digests remembered now (at most `window`).
  size_t size() const { return entries_; }
  size_t ring_capacity() const { return ring_.capacity(); }
  // Bytes held: the ring's and the index's allocated capacity.
  size_t memory_bytes() const {
    return ring_.capacity() * sizeof(Digest) + index_.capacity() * sizeof(uint64_t);
  }

 private:
  static constexpr uint64_t kMaxWindow = 0xffffffffull;
  static constexpr uint64_t kPosMask = 0xffffffffull;

  // FlatTable's Mix and Home over DigestHash; the tag is the mixed hash's
  // low 32 bits, which Home (its top bits) leaves unused up to 2^32 slots.
  static uint64_t Mix(const Digest& d) { return DigestHash{}(d) * 0x9E3779B97F4A7C15ull; }
  size_t Home(uint64_t mixed) const { return static_cast<size_t>(mixed >> shift_); }
  size_t HomeOf(uint64_t entry) const { return Home(Mix(ring_[(entry & kPosMask) - 1])); }

  // Stores `entry` in the first empty slot from its home slot on.
  void Place(uint64_t entry, size_t i) {
    while (index_[i] != 0) {
      i = (i + 1) & mask_;
    }
    index_[i] = entry;
  }

  // Removes the entry of ring position `pos` (present: the ring is full) by
  // FlatTable's backward shift. It is found by position, so no digest is
  // compared.
  void EraseEntry(uint64_t pos) {
    size_t hole = Home(Mix(ring_[pos]));
    while ((index_[hole] & kPosMask) != pos + 1) {
      hole = (hole + 1) & mask_;
    }
    for (size_t j = (hole + 1) & mask_; index_[j] != 0; j = (j + 1) & mask_) {
      const size_t home = HomeOf(index_[j]);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = 0;
    --entries_;
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old = std::exchange(index_, std::vector<uint64_t>(capacity, 0));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (uint64_t e : old) {
      if (e != 0) {
        Place(e, HomeOf(e));
      }
    }
  }

  uint64_t window_;
  std::vector<Digest> ring_;     // Admission order, from `oldest_` once full.
  uint64_t oldest_ = 0;          // Next ring slot to overwrite once full.
  std::vector<uint64_t> index_;  // 0 = empty; else (tag << 32) | (pos + 1).
  size_t entries_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace nt

#endif  // SRC_CRYPTO_DIGEST_TABLE_H_
