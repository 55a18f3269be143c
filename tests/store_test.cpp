// Storage substrate: MemStore semantics, WAL persistence, recovery from
// clean shutdown, torn tails, and corruption.
#include "src/store/store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>

#include "src/common/rng.h"

namespace nt {
namespace {

Digest Key(int i) {
  Digest d{};
  d[0] = static_cast<uint8_t>(i);
  d[1] = static_cast<uint8_t>(i >> 8);
  return d;
}

class WalStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "wal_store_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".wal";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST(MemStoreTest, PutGetEraseContains) {
  MemStore store;
  EXPECT_FALSE(store.Contains(Key(1)));
  EXPECT_EQ(store.Get(Key(1)), nullptr);
  store.Put(Key(1), {1, 2, 3});
  EXPECT_TRUE(store.Contains(Key(1)));
  EXPECT_EQ(*store.Get(Key(1)), (Bytes{1, 2, 3}));
  EXPECT_EQ(store.size(), 1u);
  store.Put(Key(1), {9});  // Overwrite.
  EXPECT_EQ(*store.Get(Key(1)), (Bytes{9}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Erase(Key(1)));
  EXPECT_FALSE(store.Erase(Key(1)));
  EXPECT_EQ(store.size(), 0u);
}

TEST(MemStoreTest, EmptyValueIsStored) {
  MemStore store;
  store.Put(Key(5), Bytes{});
  EXPECT_TRUE(store.Contains(Key(5)));
  EXPECT_TRUE(store.Get(Key(5))->empty());
}

// A store keeps the buffer it is given: n stores holding one value share one
// copy of its bytes, and Get returns that buffer.
TEST(MemStoreTest, KeepsTheSharedBufferItIsGiven) {
  const SharedBytes value = std::make_shared<const Bytes>(Bytes{4, 5, 6});
  MemStore a;
  MemStore b;
  a.Put(Key(1), value);
  b.Put(Key(1), value);
  for (const MemStore* store : {&a, &b}) {
    store->ForEach([&](const Digest&, const SharedBytes& held) { EXPECT_EQ(held, value); });
    EXPECT_EQ(store->Get(Key(1)), value);
  }
}

// Applies `ops` random puts and erases over a key space of 300 hashed keys
// to `store` and to an ordered reference map.
void RandomChurn(Store* store, std::map<Digest, Bytes, DigestLess>* reference, uint64_t seed,
                 int ops) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const uint64_t k = rng.NextBelow(300);
    const Digest key = Sha256::Hash("store key " + std::to_string(k));
    if (rng.NextBelow(3) == 0) {
      EXPECT_EQ(store->Erase(key), reference->erase(key) != 0);
    } else {
      Bytes value = {static_cast<uint8_t>(i), static_cast<uint8_t>(k)};
      store->Put(key, value);
      (*reference)[key] = value;
    }
  }
}

// ForEach visits records in DigestLess key order, whatever the order of the
// puts and erases that built the store: recovery scans rely on it.
void ExpectForEachInKeyOrder(const Store& store,
                             const std::map<Digest, Bytes, DigestLess>& reference) {
  std::vector<std::pair<Digest, Bytes>> visited;
  store.ForEach(
      [&](const Digest& key, const SharedBytes& value) { visited.emplace_back(key, *value); });
  std::vector<std::pair<Digest, Bytes>> expected(reference.begin(), reference.end());
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(store.size(), reference.size());
}

TEST(MemStoreTest, ForEachIsInKeyOrderAfterRandomChurn) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    MemStore store;
    std::map<Digest, Bytes, DigestLess> reference;
    RandomChurn(&store, &reference, seed, 2000);
    ExpectForEachInKeyOrder(store, reference);
  }
}

TEST_F(WalStoreTest, ForEachIsInKeyOrderAfterRandomChurnAndReopen) {
  std::map<Digest, Bytes, DigestLess> reference;
  {
    auto store = WalStore::Open(path_);
    ASSERT_NE(store, nullptr);
    RandomChurn(store.get(), &reference, 7, 1500);
    ExpectForEachInKeyOrder(*store, reference);
    store->Sync();
  }
  auto reopened = WalStore::Open(path_);
  ASSERT_NE(reopened, nullptr);
  ExpectForEachInKeyOrder(*reopened, reference);
}

TEST_F(WalStoreTest, PersistsAcrossReopen) {
  {
    auto store = WalStore::Open(path_);
    ASSERT_NE(store, nullptr);
    store->Put(Key(1), {1, 1, 1});
    store->Put(Key(2), {2, 2});
    store->Erase(Key(1));
    store->Sync();
  }
  auto reopened = WalStore::Open(path_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->recovered_records(), 3u);
  EXPECT_FALSE(reopened->Contains(Key(1)));
  EXPECT_EQ(*reopened->Get(Key(2)), (Bytes{2, 2}));
  EXPECT_EQ(reopened->size(), 1u);
}

// The WAL writes the bytes of a shared buffer to its log and indexes the
// buffer itself.
TEST_F(WalStoreTest, IndexesTheSharedBufferAndLogsItsBytes) {
  const SharedBytes value = std::make_shared<const Bytes>(Bytes(40, 0x5a));
  {
    auto store = WalStore::Open(path_);
    ASSERT_NE(store, nullptr);
    store->Put(Key(3), value);
    store->ForEach([&](const Digest&, const SharedBytes& held) { EXPECT_EQ(held, value); });
    EXPECT_EQ(store->Get(Key(3)), value);
    store->Sync();
  }
  auto reopened = WalStore::Open(path_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(*reopened->Get(Key(3)), *value);
}

TEST_F(WalStoreTest, OverwriteKeepsLatestValue) {
  {
    auto store = WalStore::Open(path_);
    store->Put(Key(7), {1});
    store->Put(Key(7), {2});
    store->Put(Key(7), {3});
  }
  auto reopened = WalStore::Open(path_);
  EXPECT_EQ(*reopened->Get(Key(7)), (Bytes{3}));
}

TEST_F(WalStoreTest, TornTailIsIgnored) {
  {
    auto store = WalStore::Open(path_);
    store->Put(Key(1), Bytes(100, 0xaa));
    store->Put(Key(2), Bytes(100, 0xbb));
  }
  // Truncate mid-way through the second record.
  long size;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    size = std::ftell(f);
    std::fclose(f);
  }
  ASSERT_EQ(truncate(path_.c_str(), size - 30), 0);

  auto reopened = WalStore::Open(path_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->recovered_records(), 1u);
  EXPECT_TRUE(reopened->Contains(Key(1)));
  EXPECT_FALSE(reopened->Contains(Key(2)));
  // And the store remains writable after recovery.
  reopened->Put(Key(3), {3});
  EXPECT_TRUE(reopened->Contains(Key(3)));
}

TEST_F(WalStoreTest, CorruptRecordStopsReplay) {
  {
    auto store = WalStore::Open(path_);
    store->Put(Key(1), Bytes(50, 0x11));
    store->Put(Key(2), Bytes(50, 0x22));
  }
  // Flip a byte inside the second record's value.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    std::fseek(f, -20, SEEK_END);
    uint8_t byte = 0;
    ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
    std::fseek(f, -20, SEEK_END);
    byte ^= 0xff;
    std::fwrite(&byte, 1, 1, f);
    std::fclose(f);
  }
  auto reopened = WalStore::Open(path_);
  EXPECT_EQ(reopened->recovered_records(), 1u);
  EXPECT_TRUE(reopened->Contains(Key(1)));
  EXPECT_FALSE(reopened->Contains(Key(2)));
}

// Regression for the torn-tail repair: replaying past garbage and then
// appending produces records that are unreachable on the *next* recovery
// (replay stops at the garbage), silently losing acknowledged writes. The
// torture sweep truncates the log at every tail byte offset and corrupts
// every tail byte in turn; each time, reopen must surface exactly the
// last-good prefix, accept new appends, and keep them across a second
// reopen.
TEST_F(WalStoreTest, TortureEveryTailOffset) {
  // Two synced records; their byte extents are the torture region.
  long full_size = 0;
  long first_end = 0;
  {
    auto store = WalStore::Open(path_);
    ASSERT_NE(store, nullptr);
    store->Put(Key(1), Bytes(13, 0xaa));
    store->Sync();
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    first_end = std::ftell(f);
    std::fclose(f);
    store->Put(Key(2), Bytes(29, 0xbb));
    store->Sync();
  }
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    full_size = std::ftell(f);
    std::fclose(f);
  }
  Bytes pristine(static_cast<size_t>(full_size));
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_EQ(std::fread(pristine.data(), 1, pristine.size(), f), pristine.size());
    std::fclose(f);
  }
  auto restore = [&] {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    std::fwrite(pristine.data(), 1, pristine.size(), f);
    std::fclose(f);
  };
  auto expect_prefix = [&](long cut, const char* what) {
    // Anything short of the full second record must recover exactly the
    // first; cutting into the first as well must recover nothing.
    size_t want = cut >= full_size ? 2u : (cut >= first_end ? 1u : 0u);
    auto reopened = WalStore::Open(path_);
    ASSERT_NE(reopened, nullptr) << what << " at offset " << cut;
    EXPECT_EQ(reopened->recovered_records(), want) << what << " at offset " << cut;
    EXPECT_EQ(reopened->Contains(Key(1)), want >= 1) << what << " at offset " << cut;
    EXPECT_EQ(reopened->Contains(Key(2)), want >= 2) << what << " at offset " << cut;
    // Appending after repair must survive a second crash-reopen — this is
    // the bug the torn-tail truncation exists to prevent.
    reopened->Put(Key(3), {3});
    reopened->Sync();
    reopened.reset();
    auto again = WalStore::Open(path_);
    ASSERT_NE(again, nullptr) << what << " at offset " << cut;
    EXPECT_EQ(again->recovered_records(), want + 1) << what << " at offset " << cut;
    EXPECT_TRUE(again->Contains(Key(3))) << what << " at offset " << cut;
    EXPECT_EQ(again->truncated_bytes(), 0u) << what << " at offset " << cut;
  };

  // Torn tail: truncate at every offset inside the log.
  for (long cut = 0; cut < full_size; ++cut) {
    restore();
    ASSERT_EQ(truncate(path_.c_str(), cut), 0);
    {
      auto reopened = WalStore::Open(path_);
      ASSERT_NE(reopened, nullptr);
      // The repair only rewinds to a record boundary; any mid-record cut
      // reports the dangling bytes as truncated.
      long boundary = cut >= first_end ? first_end : 0;
      EXPECT_EQ(reopened->truncated_bytes(), static_cast<size_t>(cut - boundary));
    }
    expect_prefix(cut, "truncate");
  }

  // Corruption: flip every byte of the second record in turn (the first
  // record stays intact, so recovery must stop exactly at its boundary).
  for (long at = first_end; at < full_size; ++at) {
    restore();
    {
      std::FILE* f = std::fopen(path_.c_str(), "rb+");
      std::fseek(f, at, SEEK_SET);
      uint8_t byte = 0;
      ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
      std::fseek(f, at, SEEK_SET);
      byte ^= 0xff;
      std::fwrite(&byte, 1, 1, f);
      std::fclose(f);
    }
    expect_prefix(first_end, "corrupt");
  }
}

// Regression for the fsync fix: Sync() must reach the file descriptor (not
// just the stdio buffer), and each call is counted so policy code (e.g.
// sync-on-seal in the worker) is observable in tests.
TEST_F(WalStoreTest, SyncIsCountedAndDataIsOnDiskBeforeClose) {
  auto store = WalStore::Open(path_);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->sync_count(), 0u);
  store->Put(Key(4), Bytes(64, 0x44));
  store->Sync();
  EXPECT_EQ(store->sync_count(), 1u);
  // Without closing the writing store, a reader must already see the full
  // record — fflush+fsync pushed it past the stdio buffer.
  auto reader = WalStore::Open(path_);
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->recovered_records(), 1u);
  EXPECT_EQ(*reader->Get(Key(4)), Bytes(64, 0x44));
}

TEST_F(WalStoreTest, LargeValuesRoundTrip) {
  Bytes big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 31);
  }
  {
    auto store = WalStore::Open(path_);
    store->Put(Key(9), big);
  }
  auto reopened = WalStore::Open(path_);
  EXPECT_EQ(*reopened->Get(Key(9)), big);
}

TEST(Crc32Test, KnownAnswer) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xcbf43926.
  const char* msg = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(msg), 9), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

}  // namespace
}  // namespace nt
