// A replicated key-value + token-ledger service on Narwhal + Tusk — the full
// Figure 3 pipeline: clients -> workers (dissemination) -> primaries (DAG) ->
// Tusk (total order) -> execution engine (state machine). Every replica ends
// with byte-identical state.
//
//   $ ./examples/replicated_kv
#include <cstdio>

#include "src/runtime/cluster.h"

using namespace nt;

int main() {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 1234;
  // One execution lane (a single state machine) per validator, fed by its
  // Tusk output and reading batch data from its own worker (the §8.4
  // data-location path).
  config.exec_lanes = 1;
  Cluster cluster(config);
  cluster.Start();

  std::printf("Minting: alice <- 1000, bob <- 250 (submitted at different validators)\n");
  cluster.worker(0, 0)->SubmitBlock({ExecTx::Mint("alice", 1000).Encode()});
  cluster.worker(2, 0)->SubmitBlock({ExecTx::Mint("bob", 250).Encode()});
  cluster.scheduler().RunUntil(Seconds(4));

  std::printf("Submitting 20 cross-validator transfers and a few KV writes...\n");
  for (int i = 0; i < 20; ++i) {
    ValidatorId entry = i % 4;
    cluster.worker(entry, 0)->SubmitBlock({
        ExecTx::Transfer("alice", "bob", 25).Encode(),
        ExecTx::Put("last-writer", {static_cast<uint8_t>(entry)}).Encode(),
    });
    cluster.scheduler().RunUntil(Seconds(5) + Millis(400) * i);
  }
  cluster.scheduler().RunUntil(Seconds(20));

  std::vector<const KvStateMachine*> replicas;
  for (ValidatorId v = 0; v < 4; ++v) {
    replicas.push_back(&cluster.sharded_executor(v)->lane(0));
  }
  std::printf("\nPer-replica view after convergence:\n");
  std::printf("  %-9s %10s %10s %8s %10s  %s\n", "replica", "alice", "bob", "applied",
              "rejected", "state digest");
  for (ValidatorId v = 0; v < 4; ++v) {
    std::printf("  validator%u %9llu %10llu %8llu %10llu  %s\n", v,
                static_cast<unsigned long long>(replicas[v]->BalanceOf("alice")),
                static_cast<unsigned long long>(replicas[v]->BalanceOf("bob")),
                static_cast<unsigned long long>(replicas[v]->applied()),
                static_cast<unsigned long long>(replicas[v]->rejected()),
                DigestHex(replicas[v]->state_digest()).substr(0, 16).c_str());
  }
  bool agree = true;
  for (ValidatorId v = 1; v < 4; ++v) {
    agree = agree && replicas[v]->state_digest() == replicas[0]->state_digest();
  }
  std::printf("\nState digests %s. Total supply: %llu (minted 1250).\n",
              agree ? "AGREE across all replicas" : "DISAGREE (bug!)",
              static_cast<unsigned long long>(replicas[0]->BalanceOf("alice") +
                                              replicas[0]->BalanceOf("bob")));
  return agree ? 0 : 1;
}
