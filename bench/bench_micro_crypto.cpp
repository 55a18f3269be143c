// Micro-benchmarks for the crypto substrate (google-benchmark): SHA-2,
// Ed25519 (single and batched), the FastSigner used in protocol simulations,
// and the coin. These are the §6 "implementation" costs — the data-path rates
// that inform the simulator's processing model.
//
// After the google-benchmark suite, main() runs a dedicated single-vs-batch
// report (speedup per batch size, a 10k-signature batch/single agreement
// check, and the verified-certificate cache hit rate) and writes it to
// BENCH_micro_crypto.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/crypto/coin.h"
#include "src/crypto/ed25519.h"
#include "src/crypto/hash.h"
#include "src/crypto/signer.h"
#include "src/types/cert_cache.h"
#include "src/types/types.h"

namespace nt {
namespace {

// `n` valid (pk, msg, sig) triples from distinct signers; messages owned by
// the fixture so items can point into them.
struct BatchFixture {
  std::vector<Ed25519PublicKey> pks;
  std::vector<Bytes> msgs;
  std::vector<Ed25519BatchItem> items;

  explicit BatchFixture(size_t n, uint8_t salt = 0) {
    std::vector<Ed25519Seed> seeds;
    for (size_t i = 0; i < n; ++i) {
      Ed25519Seed seed{};
      for (int j = 0; j < 32; ++j) {
        seed[j] = static_cast<uint8_t>(i * 13 + j * 5 + salt + 1);
      }
      seeds.push_back(seed);
      pks.push_back(Ed25519Public(seed));
      Bytes msg(64);
      for (size_t j = 0; j < msg.size(); ++j) {
        msg[j] = static_cast<uint8_t>(i + j + salt);
      }
      msgs.push_back(std::move(msg));
    }
    for (size_t i = 0; i < n; ++i) {
      Ed25519BatchItem item;
      item.pk = pks[i];
      item.msg = msgs[i].data();
      item.len = msgs[i].size();
      item.sig = Ed25519Sign(seeds[i], msgs[i]);
      items.push_back(item);
    }
  }
};

// The portable reference kernel against the one Sha256() dispatches to (SHA-NI
// where CPUID reports it), on the same inputs. The label names the kernel run.
void BM_Sha256(benchmark::State& state, Sha256::Kernel kernel) {
  Bytes data(state.range(0), 0xab);
  for (auto _ : state) {
    Sha256 h(kernel);
    h.Update(data);
    benchmark::DoNotOptimize(h.Finalize());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(kernel == Sha256::Kernel::kShaNi ? "sha-ni" : "portable");
}
BENCHMARK_CAPTURE(BM_Sha256, portable, Sha256::Kernel::kPortable)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(64 * 1024);
BENCHMARK_CAPTURE(BM_Sha256, dispatched, Sha256::dispatched_kernel())
    ->Arg(64)
    ->Arg(1024)
    ->Arg(64 * 1024);

void BM_Sha512(benchmark::State& state) {
  Bytes data(state.range(0), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(64 * 1024);

void BM_Ed25519Sign(benchmark::State& state) {
  Ed25519Seed seed{};
  seed[0] = 1;
  Bytes msg(64, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Sign(seed, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Ed25519Seed seed{};
  seed[0] = 2;
  Ed25519PublicKey pk = Ed25519Public(seed);
  Bytes msg(64, 7);
  Ed25519Signature sig = Ed25519Sign(seed, msg);
  Ed25519KeyCache keys;  // A verifier's memo, as Ed25519Signer keeps one.
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Verify(pk, msg.data(), msg.size(), sig, &keys));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ed25519Verify);

void BM_Ed25519BatchVerify(benchmark::State& state) {
  BatchFixture fixture(static_cast<size_t>(state.range(0)));
  Ed25519KeyCache keys;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519BatchVerify(fixture.items, &keys));
  }
  // items/s is directly comparable with BM_Ed25519Verify.
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Ed25519BatchVerify)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FastSignerSign(benchmark::State& state) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  Bytes msg(64, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->Sign(msg));
  }
}
BENCHMARK(BM_FastSignerSign);

void BM_FastSignerVerify(benchmark::State& state) {
  auto signer = MakeSigner(SignerKind::kFast, DeriveSeed(1, 0));
  Bytes msg(64, 7);
  Signature sig = signer->Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->Verify(signer->public_key(), msg, sig));
  }
}
BENCHMARK(BM_FastSignerVerify);

// A header's parent set at committee size n: 2f+1 FastSigner certificates of
// one round, each carrying 2f+1 votes — what every receiver verifies per
// header.
struct ParentSetFixture {
  Committee committee;
  std::vector<std::unique_ptr<Signer>> signers;
  std::vector<Certificate> parents;

  explicit ParentSetFixture(uint32_t n) {
    std::vector<ValidatorInfo> infos;
    for (uint32_t v = 0; v < n; ++v) {
      signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(4242, v)));
      infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
    }
    committee = Committee(std::move(infos));
    for (ValidatorId author = 0; author < committee.quorum_threshold(); ++author) {
      const Digest digest = Sha256::Hash("bench-parent-" + std::to_string(author));
      Bytes preimage = Certificate::VotePreimage(digest, 7, author);
      std::vector<VoteList::Entry> votes;
      for (uint32_t v = 0; v < committee.quorum_threshold(); ++v) {
        votes.emplace_back(v, signers[v]->Sign(preimage));
      }
      parents.emplace_back(digest, 7, author, votes);
    }
  }
};

// Certificate::VerifyAll over a parent set no cache has seen: every vote
// signature is verified. items/s counts certificates.
void BM_CertVerifyAllCold(benchmark::State& state) {
  ParentSetFixture fixture(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    VerifiedCertCache cache;
    benchmark::DoNotOptimize(
        Certificate::VerifyAll(fixture.parents, fixture.committee, *fixture.signers[0], &cache));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(fixture.parents.size()));
}
BENCHMARK(BM_CertVerifyAllCold)->Arg(10)->Arg(20)->Arg(50);

// The same parent set re-presented to a cache that already verified it: the
// per-delivery cost once a certificate is known (a cache probe and a
// vote-set compare per certificate, no hashing).
void BM_CertVerifyAllWarm(benchmark::State& state) {
  ParentSetFixture fixture(static_cast<uint32_t>(state.range(0)));
  VerifiedCertCache cache;
  Certificate::VerifyAll(fixture.parents, fixture.committee, *fixture.signers[0], &cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Certificate::VerifyAll(fixture.parents, fixture.committee, *fixture.signers[0], &cache));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(fixture.parents.size()));
}
BENCHMARK(BM_CertVerifyAllWarm)->Arg(10)->Arg(20)->Arg(50);

void BM_CommonCoin(benchmark::State& state) {
  CommonCoin coin(7);
  uint64_t wave = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coin.LeaderOf(++wave, 50));
  }
}
BENCHMARK(BM_CommonCoin);

// ---------------------------------------------------------------------------
// Single-vs-batch report (written to BENCH_micro_crypto.json).
// ---------------------------------------------------------------------------

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Wall-clock speedup of one batched verification over the same signatures
// verified individually, averaged over `reps` repetitions.
double MeasureBatchSpeedup(const BatchFixture& fixture, int reps, double* single_per_s,
                           double* batch_per_s) {
  const size_t n = fixture.items.size();
  Ed25519KeyCache keys;
  // Warm both paths once (fills the decoded-key cache, faults in tables) so
  // neither timed side pays one-time costs.
  for (const Ed25519BatchItem& item : fixture.items) {
    benchmark::DoNotOptimize(Ed25519Verify(item.pk, item.msg, item.len, item.sig, &keys));
  }
  benchmark::DoNotOptimize(Ed25519BatchVerify(fixture.items, &keys));

  // Best of three trials per side: the box is shared, so a scheduler blip in
  // any one window would otherwise dominate a millisecond-scale measurement.
  double single_s = 1e30;
  double batch_s = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      for (const Ed25519BatchItem& item : fixture.items) {
        benchmark::DoNotOptimize(Ed25519Verify(item.pk, item.msg, item.len, item.sig, &keys));
      }
    }
    single_s = std::min(single_s, SecondsSince(t0));
    auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(Ed25519BatchVerify(fixture.items, &keys));
    }
    batch_s = std::min(batch_s, SecondsSince(t1));
  }
  double total_items = static_cast<double>(n) * reps;
  if (single_per_s != nullptr) {
    *single_per_s = total_items / single_s;
  }
  if (batch_per_s != nullptr) {
    *batch_per_s = total_items / batch_s;
  }
  return single_s / batch_s;
}

// Batch and single verification must agree on every item of a large mixed
// valid/corrupted population. Returns the number of disagreements.
size_t CheckBatchAgreement(size_t n) {
  BatchFixture fixture(n, /*salt=*/42);
  uint64_t rng = 0x2545f4914f6cdd1dull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (auto& item : fixture.items) {
    if (next() % 2 == 0) {
      item.sig[next() % 64] ^= static_cast<uint8_t>(1 + next() % 255);
    }
  }
  std::vector<bool> batch = Ed25519BatchVerify(fixture.items);
  size_t mismatches = 0;
  for (size_t i = 0; i < fixture.items.size(); ++i) {
    const Ed25519BatchItem& item = fixture.items[i];
    if (batch[i] != Ed25519Verify(item.pk, item.msg, item.len, item.sig)) {
      ++mismatches;
    }
  }
  return mismatches;
}

// Hit rate of the verified-certificate cache when each certificate is
// presented `deliveries` times — the re-delivery pattern certificates see in
// the protocol (own broadcast, parent references, consensus proposals).
double MeasureCertCacheHitRate(size_t num_certs, int deliveries) {
  constexpr uint32_t kN = 4;
  std::vector<std::unique_ptr<Signer>> signers;
  std::vector<ValidatorInfo> infos;
  for (uint32_t v = 0; v < kN; ++v) {
    signers.push_back(MakeSigner(SignerKind::kFast, DeriveSeed(7777, v)));
    infos.push_back(ValidatorInfo{signers.back()->public_key(), 0});
  }
  Committee committee(std::move(infos));

  std::vector<Certificate> certs;
  for (size_t i = 0; i < num_certs; ++i) {
    const Digest digest = Sha256::Hash("bench-cert-" + std::to_string(i));
    const auto author = static_cast<ValidatorId>(i % kN);
    Bytes preimage = Certificate::VotePreimage(digest, 1, author);
    std::vector<VoteList::Entry> votes;
    for (uint32_t v = 0; v < committee.quorum_threshold(); ++v) {
      votes.emplace_back(v, signers[v]->Sign(preimage));
    }
    certs.emplace_back(digest, 1, author, votes);
  }

  VerifiedCertCache cache;
  for (int d = 0; d < deliveries; ++d) {
    for (const Certificate& cert : certs) {
      cert.Verify(committee, *signers[0], &cache);
    }
  }
  const VerifiedCertCache::Stats& stats = cache.stats();
  uint64_t total = stats.hits + stats.misses;
  return total == 0 ? 0.0 : static_cast<double>(stats.hits) / static_cast<double>(total);
}

void RunBatchReport() {
  BenchJson json("micro_crypto");
  PrintBanner("Ed25519 single vs batch verification");
  std::printf("%8s %12s %12s %9s\n", "batch", "single/s", "batch/s", "speedup");
  for (size_t n : {4u, 16u, 64u, 256u}) {
    BatchFixture fixture(n);
    int reps = n >= 64 ? 2 : 8;
    double single_per_s = 0;
    double batch_per_s = 0;
    double speedup = MeasureBatchSpeedup(fixture, reps, &single_per_s, &batch_per_s);
    std::printf("%8zu %12.0f %12.0f %8.2fx\n", n, single_per_s, batch_per_s, speedup);
    std::fflush(stdout);
    json.Set("batch" + std::to_string(n) + "_speedup", speedup);
    if (n == 64) {
      json.Set("single_verifies_per_s", single_per_s);
      json.Set("batch64_verifies_per_s", batch_per_s);
    }
  }

  PrintBanner("Batch/single agreement (10k mixed valid+corrupted)");
  size_t mismatches = CheckBatchAgreement(10000);
  std::printf("mismatches: %zu / 10000\n", mismatches);
  json.Set("agreement_items", 10000);
  json.Set("agreement_mismatches", static_cast<double>(mismatches));

  PrintBanner("Verified-certificate cache");
  double hit_rate = MeasureCertCacheHitRate(/*num_certs=*/256, /*deliveries=*/4);
  std::printf("hit rate over 4 deliveries per certificate: %.3f\n", hit_rate);
  json.Set("cert_cache_hit_rate", hit_rate);

  std::string path = json.Write();
  std::printf("\nwrote %s\n", path.empty() ? "(failed to write JSON)" : path.c_str());
}

}  // namespace
}  // namespace nt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  nt::RunBatchReport();
  return 0;
}
