// Per-layer attribution from outside the program: forwarding NetNodes that
// time every node's message handlers, and post-run re-drives of layer entry
// points (certificate verification, consensus, execution, hashing) with
// inputs captured from the run.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"

namespace perfbench {

double SecondsSince(std::chrono::steady_clock::time_point start);

// Wraps every topology node in a NetNode that forwards OnMessage/OnStart to
// the protocol object and adds the wall time spent to a per-(role, message
// type) total. Installed through Network::ReplaceNode.
class NodeTimers {
 public:
  enum Role { kPrimary = 0, kWorker, kConsensus, kRoleCount };

  explicit NodeTimers(nt::Cluster* cluster);
  ~NodeTimers();
  NodeTimers(const NodeTimers&) = delete;
  NodeTimers& operator=(const NodeTimers&) = delete;

  // Validator `v` was rebuilt after a restart: the cluster swapped its new
  // objects into the network, so put the wrappers back in front of them.
  void Rewrap(nt::ValidatorId v);

  double BusySeconds(Role role) const;
  double BusySeconds(Role role, nt::MessageTypeId type) const;
  uint64_t Calls(Role role, nt::MessageTypeId type) const;

 private:
  class TimedNode;
  struct Slot {
    int64_t ns = 0;
    uint64_t calls = 0;
  };
  // One slot per message type plus a last one for OnStart.
  using Row = std::array<Slot, nt::kMessageTypeCount + 1>;

  void Install(uint32_t id, const nt::Topology::NodeRole& role);

  nt::Cluster* cluster_;
  std::array<Row, kRoleCount> rows_{};
  std::map<uint32_t, std::unique_ptr<TimedNode>> nodes_;
};

// Certificates and headers as they enter one primary's DAG.
class DagCapture {
 public:
  void Attach(nt::Primary* primary);

  const std::vector<nt::Certificate>& certs() const { return certs_; }
  const std::map<nt::Digest, std::shared_ptr<const nt::BlockHeader>>& headers() const {
    return headers_;
  }

 private:
  std::vector<nt::Certificate> certs_;
  std::map<nt::Digest, std::shared_ptr<const nt::BlockHeader>> headers_;
};

struct ExecReplay {
  double busy_s = 0;  // Replay time up to each validator's executed header count, summed.
  double seconds = 0;
  uint64_t txs = 0;
  uint64_t rejected = 0;
  uint64_t cross = 0;
};

// Executes `sequence` (a validator's committed headers) on a fresh
// ShardedExecutor and checks every validator's live executor against it:
// equal lane digests at equal executed-header counts, and conservation of
// balance.
ExecReplay ReplayExecution(nt::Cluster& cluster,
                           const std::vector<std::shared_ptr<const nt::BlockHeader>>& sequence,
                           std::vector<std::string>* violations);

struct ConsensusReplay {
  double us_per_cert = 0;
};

// Feeds the captured DAG, round by round, into a fresh committer of the
// cluster's DAG consensus (Tusk or Bullshark) over a standalone primary,
// timing its OnHeaderStored/OnCertificate calls. Its commit sequence must be
// prefix-consistent with `live`, the observer's.
ConsensusReplay ReplayConsensus(nt::Cluster& cluster, const DagCapture& capture,
                                const std::vector<nt::Digest>& live,
                                std::vector<std::string>* violations);

struct VerifyCost {
  double hit_us = 0;   // Certificate::VerifyAll over a header's parents, all cached.
  double miss_us = 0;  // ... with a cold cache.
};
VerifyCost TimeParentVerification(nt::Cluster& cluster, const DagCapture& capture,
                                  std::vector<std::string>* violations);

// Nanoseconds per KB of Sha256::Hash over `size`-byte inputs.
double TimeSha256(size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
