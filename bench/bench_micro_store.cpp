// Micro-benchmarks for the storage substrate and codec: the roles RocksDB
// and bincode play in the paper's artifact.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/common/codec.h"
#include "src/store/store.h"
#include "src/types/types.h"

namespace nt {
namespace {

Digest KeyOf(uint64_t i) {
  Writer w;
  w.PutU64(i);
  return Sha256::Hash(w.bytes());
}

void BM_MemStorePut(benchmark::State& state) {
  MemStore store;
  Bytes value(state.range(0), 0x55);
  uint64_t i = 0;
  for (auto _ : state) {
    store.Put(KeyOf(i++), value);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemStorePut)->Arg(512)->Arg(512 * 1024);

// Get returns the stored SharedBytes itself, so this measures the hashed
// lookup and a reference-count increment, not a copy of the 512-byte value.
void BM_MemStoreGet(benchmark::State& state) {
  MemStore store;
  const int kKeys = 1024;
  for (int i = 0; i < kKeys; ++i) {
    store.Put(KeyOf(i), Bytes(512, 1));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(KeyOf(i++ % kKeys)));
  }
}
BENCHMARK(BM_MemStoreGet);

void BM_WalStorePut(benchmark::State& state) {
  std::string path = std::string("/tmp/nt_bench_wal_") + std::to_string(state.range(0)) + ".wal";
  std::remove(path.c_str());
  auto store = WalStore::Open(path);
  Bytes value(state.range(0), 0x66);
  uint64_t i = 0;
  for (auto _ : state) {
    store->Put(KeyOf(i++), value);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  store.reset();
  std::remove(path.c_str());
}
BENCHMARK(BM_WalStorePut)->Arg(512)->Arg(64 * 1024);

void BM_Crc32(benchmark::State& state) {
  Bytes data(state.range(0), 0x77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(512)->Arg(512 * 1024);

void BM_HeaderEncode(benchmark::State& state) {
  // A realistic header: 10 batch refs, 7 parent certificates with 7 votes.
  BlockHeader header;
  header.author = 1;
  header.round = 42;
  for (int i = 0; i < 10; ++i) {
    BatchRef ref;
    ref.digest = KeyOf(i);
    ref.num_txs = 1000;
    ref.payload_bytes = 512000;
    header.batches.push_back(ref);
  }
  for (int i = 0; i < 7; ++i) {
    std::vector<VoteList::Entry> votes;
    for (int v = 0; v < 7; ++v) {
      votes.emplace_back(v, Signature{});
    }
    header.parents.emplace_back(KeyOf(100 + i), 41, i, votes);
  }
  for (auto _ : state) {
    Writer w;
    EncodeWire(w, header);
    benchmark::DoNotOptimize(w.bytes());
  }
}
BENCHMARK(BM_HeaderEncode);

void BM_HeaderDigest(benchmark::State& state) {
  BlockHeader header;
  header.author = 3;
  header.round = 9;
  for (int i = 0; i < 10; ++i) {
    BatchRef ref;
    ref.digest = KeyOf(i);
    header.batches.push_back(ref);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(header.ComputeDigest());
  }
}
BENCHMARK(BM_HeaderDigest);

}  // namespace
}  // namespace nt

BENCHMARK_MAIN();
