// FlatTable (src/crypto/digest_table.h): the hashed digest index under the
// DAG, the stores, the committed sets and the certificate cache. Checked
// against an ordered reference map under random churn, including keys that
// share their first 8 bytes (one probe run for all of them), so every
// backward-shift erase path is exercised.
#include "src/crypto/digest_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"

namespace nt {
namespace {

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

}  // namespace
}  // namespace nt
