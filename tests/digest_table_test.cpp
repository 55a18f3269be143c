// FlatTable (src/crypto/digest_table.h): the hashed digest index under the
// DAG, the stores, the committed sets and the certificate cache. Checked
// against an ordered reference map under random churn, including keys that
// share their first 8 bytes (one probe run for all of them), so every
// backward-shift erase path is exercised.
//
// DigestWindow, the workers' duplicate filter, is checked against the set
// plus FIFO it replaced (kept here only as the reference), for its memory
// budget and for allocating nothing before its first admission.
#include "src/crypto/digest_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <ranges>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"

namespace nt {
namespace {

// FlatTable has no begin()/end(): slot order depends on insertion history,
// and ForEachSorted is the only way to visit a table. Adding order-exposing
// iteration (members or ADL begin/end) fails this file at compile time.
template <typename T>
concept ExposesSlotOrder =
    requires(T& t) { t.begin(); } || requires(T& t) { t.end(); } || std::ranges::range<T> ||
    std::ranges::range<const T>;
static_assert(!ExposesSlotOrder<DigestMap<uint64_t>>);
static_assert(!ExposesSlotOrder<DigestSet>);
static_assert(!ExposesSlotOrder<FlatTable<std::string, uint64_t, StringHash>>);

// Key i: a SHA-256 digest, or with `colliding`, one whose first 8 bytes are
// shared by every key (so only the full compare tells them apart).
Digest MakeKey(uint64_t i, bool colliding) {
  Digest d = Sha256::Hash("digest table key " + std::to_string(i));
  if (colliding) {
    std::fill(d.begin(), d.begin() + 8, 0xab);
  }
  return d;
}

void ExpectSameContents(const DigestMap<uint64_t>& table,
                        const std::map<Digest, uint64_t, DigestLess>& reference) {
  ASSERT_EQ(table.size(), reference.size());
  std::vector<std::pair<Digest, uint64_t>> visited;
  table.ForEachSorted(DigestLess{},
                      [&](const Digest& key, uint64_t value) { visited.emplace_back(key, value); });
  std::vector<std::pair<Digest, uint64_t>> expected(reference.begin(), reference.end());
  EXPECT_EQ(visited, expected);
  for (const auto& [key, value] : reference) {
    const uint64_t* found = table.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
}

TEST(DigestTableTest, MatchesAnOrderedMapUnderRandomChurn) {
  for (bool colliding : {false, true}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      DigestMap<uint64_t> table;
      std::map<Digest, uint64_t, DigestLess> reference;
      const uint64_t key_space = colliding ? 40 : 500;
      for (int op = 0; op < 4000; ++op) {
        const Digest key = MakeKey(rng.NextBelow(key_space), colliding);
        switch (rng.NextBelow(4)) {
          case 0:
            EXPECT_EQ(table.erase(key), reference.erase(key) != 0);
            break;
          case 1: {
            auto [value, inserted] = table.emplace(key, static_cast<uint64_t>(op));
            auto [it, ref_inserted] = reference.emplace(key, static_cast<uint64_t>(op));
            EXPECT_EQ(inserted, ref_inserted);
            EXPECT_EQ(*value, it->second);  // emplace never overwrites.
            break;
          }
          case 2:
            table[key] = static_cast<uint64_t>(op);
            reference[key] = static_cast<uint64_t>(op);
            break;
          default:
            EXPECT_EQ(table.contains(key), reference.count(key) != 0);
            break;
        }
        if (op % 500 == 0) {
          ExpectSameContents(table, reference);
        }
      }
      ExpectSameContents(table, reference);
      // Erase everything: each erase shifts the rest of its run back, and
      // nothing is lost on the way.
      while (!reference.empty()) {
        const Digest key = reference.begin()->first;
        reference.erase(reference.begin());
        ASSERT_TRUE(table.erase(key));
        for (const auto& [k, v] : reference) {
          ASSERT_TRUE(table.contains(k));
        }
      }
      EXPECT_TRUE(table.empty());
    }
  }
}

TEST(DigestTableTest, SetInsertReportsNovelty) {
  DigestSet set;
  EXPECT_FALSE(set.contains(MakeKey(1, false)));
  EXPECT_TRUE(set.insert(MakeKey(1, false)));
  EXPECT_FALSE(set.insert(MakeKey(1, false)));
  EXPECT_TRUE(set.contains(MakeKey(1, false)));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.erase(MakeKey(1, false)));
  EXPECT_FALSE(set.erase(MakeKey(1, false)));
  EXPECT_TRUE(set.empty());
}

TEST(DigestTableTest, CopiesAreIndependentAndClearReleases) {
  DigestSet a;
  for (uint64_t i = 0; i < 100; ++i) {
    a.insert(MakeKey(i, false));
  }
  DigestSet b = a;
  b.insert(MakeKey(1000, false));
  a.erase(MakeKey(0, false));
  EXPECT_EQ(a.size(), 99u);
  EXPECT_EQ(b.size(), 101u);
  EXPECT_TRUE(b.contains(MakeKey(0, false)));
  EXPECT_FALSE(a.contains(MakeKey(1000, false)));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.contains(MakeKey(5, false)));
  EXPECT_TRUE(a.insert(MakeKey(5, false)));  // Usable again after clear.
}

// A string-keyed table is probed with a std::string_view: slices of a larger
// buffer find, update and erase the keys a std::string inserted.
TEST(DigestTableTest, StringKeysAreProbedByView) {
  FlatTable<std::string, uint64_t, StringHash> table;
  table[std::string("alice")] = 1;
  table[std::string("bob")] = 2;
  const std::string_view wire = "alicebobcarol";
  ASSERT_NE(table.find(wire.substr(0, 5)), nullptr);
  EXPECT_EQ(*table.find(wire.substr(0, 5)), 1u);
  EXPECT_TRUE(table.contains(wire.substr(5, 3)));
  EXPECT_FALSE(table.contains(wire.substr(8)));
  table[wire.substr(8)] += 3;  // Inserts an owned copy of the slice.
  EXPECT_EQ(*table.find("carol"), 3u);
  EXPECT_TRUE(table.erase(wire.substr(5, 3)));
  EXPECT_FALSE(table.contains("bob"));
  EXPECT_EQ(table.size(), 2u);
}

// The duplicate filter DigestWindow replaced: a set answers membership, a
// FIFO of the same digests says which one leaves next.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(uint64_t window) : window_(window) {}
  bool Admit(const Digest& d) {
    if (!set_.insert(d)) {
      return false;
    }
    order_.push_back(d);
    if (order_.size() > window_) {
      set_.erase(order_.front());
      order_.pop_front();
    }
    return true;
  }

 private:
  uint64_t window_;
  DigestSet set_;
  std::deque<Digest> order_;
};

Digest RandomDigest(Rng& rng) {
  Digest d;
  for (size_t i = 0; i < d.size(); i += 8) {
    const uint64_t word = rng.NextU64();
    std::memcpy(d.data() + i, &word, 8);
  }
  return d;
}

// Feeds `stream` to both filters and expects the same verdict on each
// digest; returns how many were dropped as duplicates.
uint64_t ExpectSameVerdicts(uint64_t window, const std::vector<Digest>& stream) {
  DigestWindow filter(window);
  ReferenceWindow reference(window);
  uint64_t dropped = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool admitted = reference.Admit(stream[i]);
    EXPECT_EQ(filter.Admit(stream[i]), admitted) << "window " << window << ", digest " << i;
    if (!admitted) {
      ++dropped;
    }
    EXPECT_LE(filter.size(), window);
    EXPECT_LE(filter.ring_capacity(), window);
  }
  return dropped;
}

// Random streams that resubmit admitted digests at distances W - 1, W and
// W + 1 (the edge of the window) and at random distances, for long enough to
// wrap the ring more than twice.
TEST(DigestWindowTest, MatchesSetPlusFifoAtTheWindowEdge) {
  for (uint64_t window : {1, 2, 7, 8, 1000, 100000}) {
    Rng rng(window);
    std::vector<Digest> admitted;  // What the reference admitted, in order.
    std::vector<Digest> stream;
    ReferenceWindow reference(window);
    const size_t length = 2 * window + window / 2 + 2000;
    while (stream.size() < length) {
      Digest d = RandomDigest(rng);
      const uint64_t pick = rng.NextBelow(8);
      if (pick < 4 && !admitted.empty()) {
        // Distance 1 is the digest admitted last.
        const uint64_t distance = pick == 3 ? 1 + rng.NextBelow(2 * window + 2) : window + pick - 1;
        if (distance >= 1 && distance <= admitted.size()) {
          d = admitted[admitted.size() - distance];
        }
      }
      stream.push_back(d);
      if (reference.Admit(d)) {
        admitted.push_back(d);
      }
    }
    const uint64_t dropped = ExpectSameVerdicts(window, stream);
    EXPECT_GT(dropped, 0u) << "window " << window;
    EXPECT_LT(dropped, stream.size()) << "window " << window;
  }
}

// Digests that share their first 8 bytes share a home slot and a tag, so
// only the full compare tells them apart, and every eviction shifts one long
// probe run back. Four such groups interleave their runs.
TEST(DigestWindowTest, DigestsSharingTheirHashKeepExactVerdicts) {
  auto colliding = [](uint64_t group, uint64_t i) {
    Digest d = Sha256::Hash("window key " + std::to_string(group) + "/" + std::to_string(i));
    std::fill(d.begin(), d.begin() + 8, static_cast<uint8_t>(0x10 + group));
    return d;
  };
  for (uint64_t window : {1, 2, 7, 8, 64, 1000}) {
    Rng rng(window + 17);
    std::vector<Digest> stream;
    for (int i = 0; i < 6000; ++i) {
      stream.push_back(colliding(rng.NextBelow(4), rng.NextBelow(window + 40)));
    }
    ExpectSameVerdicts(window, stream);
  }
  // One group only: the whole index is one probe run.
  for (uint64_t window : {7, 64, 500}) {
    Rng rng(window);
    std::vector<Digest> stream;
    for (int i = 0; i < 4000; ++i) {
      stream.push_back(colliding(0, rng.NextBelow(window + window / 2 + 1)));
    }
    ExpectSameVerdicts(window, stream);
  }
}

// Full at W = 100000, the ring and index hold at most 48 bytes per
// remembered digest (about 42.5: 32 in the ring, 8 per index entry at 76%
// load). The set plus FIFO it replaced, counted the same way (a 33-byte
// slot per table entry at the same load, plus 32 per queued digest and the
// deque's block map), held about 78.
TEST(DigestWindowTest, FullWindowStaysWithinItsMemoryBudget) {
  constexpr uint64_t kWindow = 100000;
  DigestWindow filter(kWindow);
  EXPECT_EQ(filter.memory_bytes(), 0u);
  EXPECT_EQ(filter.ring_capacity(), 0u);
  Rng rng(42);
  for (uint64_t i = 0; i < kWindow + kWindow / 3; ++i) {
    ASSERT_TRUE(filter.Admit(RandomDigest(rng)));
    ASSERT_LE(filter.ring_capacity(), kWindow);
  }
  EXPECT_EQ(filter.size(), kWindow);
  EXPECT_EQ(filter.ring_capacity(), kWindow);
  EXPECT_LE(filter.memory_bytes(), 48 * kWindow);
}

TEST(DigestWindowTest, DisabledWindowAdmitsEverythingAndAllocatesNothing) {
  DigestWindow filter(0);
  const Digest d = MakeKey(1, false);
  EXPECT_TRUE(filter.Admit(d));
  EXPECT_TRUE(filter.Admit(d));
  EXPECT_EQ(filter.size(), 0u);
  EXPECT_EQ(filter.memory_bytes(), 0u);
}

// Ring positions are 32-bit: a window they cannot address is refused when
// it is built, before anything is allocated, rather than truncated.
TEST(DigestWindowTest, RefusesAWindowPositionsCannotAddress) {
  EXPECT_THROW(DigestWindow(0xffffffffull), std::invalid_argument);
  EXPECT_THROW(DigestWindow(uint64_t{1} << 40), std::invalid_argument);
  DigestWindow largest(0xfffffffeull);
  EXPECT_EQ(largest.memory_bytes(), 0u);
  EXPECT_TRUE(largest.Admit(MakeKey(1, false)));
  EXPECT_FALSE(largest.Admit(MakeKey(1, false)));
  EXPECT_LE(largest.memory_bytes(), 64u * 16);  // Grown for one digest, not for the window.
}

}  // namespace
}  // namespace nt
