// Narwhal as a standalone certified key-value mempool — the paper's §2.1
// abstraction: write(d,b), valid(d,c(d)), read(d), read_causal(d), live on a
// running 4-validator cluster.
//
//   $ ./examples/mempool_kv_api
#include <cstdio>

#include "src/narwhal/mempool.h"
#include "src/runtime/cluster.h"

using namespace nt;

int main() {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 7;
  Cluster cluster(config);
  cluster.Start();

  Mempool pool = cluster.MempoolOf(0);

  // --- write(d, b) -----------------------------------------------------------
  std::printf("write(d, b): submitting a block of 3 transactions to validator 0...\n");
  std::vector<Bytes> block = {{0xca, 0xfe}, {0xba, 0xbe}, {0xf0, 0x0d}};
  Digest d = pool.Write(block);
  std::printf("  d = %s\n", DigestHex(d).substr(0, 16).c_str());

  std::printf("  before dissemination: certified=%d\n", pool.IsWriteCertified(d));
  cluster.scheduler().RunUntil(Seconds(5));
  std::printf("  after 5s:             certified=%d  <- write(d,b) succeeded\n",
              pool.IsWriteCertified(d));

  // --- valid(d, c(d)) --------------------------------------------------------
  auto cert = pool.CertificateFor(d);
  if (!cert.has_value()) {
    std::fprintf(stderr, "write(d, b) was not certified\n");
    return 1;
  }
  auto verifier = MakeSigner(SignerKind::kFast, DeriveSeed(config.seed, 0));
  std::printf("\nvalid(d, c(d)): certificate has %zu signatures (2f+1 = %u needed)\n",
              cert->votes.size(), cluster.committee().quorum_threshold());
  const bool genuine_valid = pool.Valid(cluster.committee(), *verifier, *cert);
  std::printf("  genuine certificate:  valid=%d\n", genuine_valid);
  std::vector<VoteList::Entry> votes = cert->votes.Entries();
  votes[0].second[0] ^= 0xff;
  Certificate forged = *cert;
  forged.votes = VoteList(votes);
  const bool forged_valid = pool.Valid(cluster.committee(), *verifier, forged);
  std::printf("  forged signature:     valid=%d\n", forged_valid);
  if (!genuine_valid || forged_valid) {
    std::fprintf(stderr, "valid(d, c(d)) gave the wrong verdict\n");
    return 1;
  }

  // --- read(d) ----------------------------------------------------------------
  std::printf("\nread(d): every validator can retrieve the block (Block-Availability):\n");
  for (ValidatorId v = 0; v < 4; ++v) {
    auto batch = cluster.MempoolOf(v).Read(d);
    std::printf("  validator %u: %s (%zu txs)\n", v,
                batch != nullptr ? "found, digest matches" : "MISSING",
                batch != nullptr ? batch->txs().size() : 0);
  }

  // --- read_causal(d) ---------------------------------------------------------
  std::printf("\nread_causal(d): writing 4 more blocks, then reading the causal history\n");
  std::vector<Digest> writes;
  for (uint8_t i = 0; i < 4; ++i) {
    writes.push_back(cluster.MempoolOf(i % 4).Write({{i, i, i}}));
    cluster.scheduler().RunUntil(Seconds(7 + 2 * i));
  }
  cluster.scheduler().RunUntil(Seconds(16));
  auto last_cert = pool.CertificateFor(writes.back());
  if (last_cert.has_value()) {
    std::vector<Digest> history = pool.ReadCausal(last_cert->header_digest);
    std::printf("  history of the block carrying the last write: %zu blocks\n", history.size());
    // Containment: the history of any member is a subset.
    std::set<Digest> outer(history.begin(), history.end());
    size_t checked = 0, contained = 0;
    for (const Digest& member : history) {
      for (const Digest& inner : pool.ReadCausal(member)) {
        ++checked;
        contained += outer.count(inner);
      }
    }
    std::printf("  containment check: %zu/%zu inner blocks inside the outer history\n",
                contained, checked);
  }
  std::printf("\nDone. These five calls are the entire §2.1 mempool API.\n");
  return 0;
}
