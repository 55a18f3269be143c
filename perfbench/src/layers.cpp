#include "src/layers.h"

#include <algorithm>
#include <functional>

#include "src/crypto/coin.h"
#include "src/types/cert_cache.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

NodeTimers::Role RoleOf(nt::Topology::NodeRole::Kind kind) {
  switch (kind) {
    case nt::Topology::NodeRole::Kind::kPrimary:
      return NodeTimers::kPrimary;
    case nt::Topology::NodeRole::Kind::kWorker:
      return NodeTimers::kWorker;
    case nt::Topology::NodeRole::Kind::kConsensus:
      break;
  }
  return NodeTimers::kConsensus;
}

// The protocol object currently behind a topology node.
nt::NetNode* CurrentNode(nt::Cluster* cluster, const nt::Topology::NodeRole& role) {
  switch (role.kind) {
    case nt::Topology::NodeRole::Kind::kPrimary:
      return cluster->primary(role.validator);
    case nt::Topology::NodeRole::Kind::kWorker:
      return cluster->worker(role.validator, role.worker);
    case nt::Topology::NodeRole::Kind::kConsensus:
      break;
  }
  return cluster->hotstuff(role.validator);
}

// Addressable endpoint for the standalone replay network; drops everything.
class SinkNode : public nt::NetNode {
 public:
  void OnMessage(uint32_t, const nt::MessagePtr&) override {}
};

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class NodeTimers::TimedNode : public nt::NetNode {
 public:
  TimedNode(Row* row, nt::NetNode* inner) : row_(row), inner_(inner) {}

  nt::NetNode* inner() const { return inner_; }
  void set_inner(nt::NetNode* inner) { inner_ = inner; }

  void OnMessage(uint32_t from, const nt::MessagePtr& msg) override {
    Slot& slot = (*row_)[static_cast<size_t>(msg->TypeId())];
    const Clock::time_point start = Clock::now();
    inner_->OnMessage(from, msg);
    Charge(slot, start);
  }

  void OnStart() override {
    const Clock::time_point start = Clock::now();
    inner_->OnStart();
    Charge((*row_)[nt::kMessageTypeCount], start);
  }

 private:
  static void Charge(Slot& slot, Clock::time_point start) {
    slot.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
    ++slot.calls;
  }

  Row* row_;
  nt::NetNode* inner_;
};

NodeTimers::NodeTimers(nt::Cluster* cluster) : cluster_(cluster) {
  for (const auto& [id, role] : cluster_->topology().role_of) {
    Install(id, role);
  }
}

NodeTimers::~NodeTimers() {
  for (const auto& [id, node] : nodes_) {
    cluster_->network().ReplaceNode(id, node->inner());
  }
}

void NodeTimers::Install(uint32_t id, const nt::Topology::NodeRole& role) {
  auto node = std::make_unique<TimedNode>(&rows_[RoleOf(role.kind)], CurrentNode(cluster_, role));
  cluster_->network().ReplaceNode(id, node.get());
  nodes_[id] = std::move(node);
}

void NodeTimers::Rewrap(nt::ValidatorId v) {
  for (const auto& [id, node] : nodes_) {
    const nt::Topology::NodeRole& role = cluster_->topology().role_of.at(id);
    if (role.validator == v) {
      node->set_inner(CurrentNode(cluster_, role));
      cluster_->network().ReplaceNode(id, node.get());
    }
  }
}

double NodeTimers::BusySeconds(Role role) const {
  int64_t ns = 0;
  for (const Slot& slot : rows_[role]) {
    ns += slot.ns;
  }
  return static_cast<double>(ns) / 1e9;
}

double NodeTimers::BusySeconds(Role role, nt::MessageTypeId type) const {
  return static_cast<double>(rows_[role][static_cast<size_t>(type)].ns) / 1e9;
}

uint64_t NodeTimers::Calls(Role role, nt::MessageTypeId type) const {
  return rows_[role][static_cast<size_t>(type)].calls;
}

void DagCapture::Attach(nt::Primary* primary) {
  primary->add_on_certificate([this, primary](const nt::Certificate& cert) {
    certs_.push_back(cert);
    if (auto header = primary->dag().GetHeader(cert.header_digest)) {
      headers_.emplace(cert.header_digest, std::move(header));
    }
  });
  primary->add_on_header_stored([this, primary](const nt::Digest& digest) {
    if (auto header = primary->dag().GetHeader(digest)) {
      headers_.emplace(digest, std::move(header));
    }
  });
}

ExecReplay ReplayExecution(nt::Cluster& cluster,
                           const std::vector<std::shared_ptr<const nt::BlockHeader>>& sequence,
                           std::vector<std::string>* violations) {
  const uint32_t n = cluster.committee().size();
  nt::ShardedExecutor replay(cluster.config().exec_lanes,
                             [&cluster, n](const nt::BatchRef& ref) {
                               for (nt::ValidatorId v = 0; v < n; ++v) {
                                 if (auto batch = cluster.worker(v, 0)->GetBatch(ref.digest)) {
                                   return batch;
                                 }
                               }
                               return std::shared_ptr<const nt::Batch>();
                             });

  // Live executors grouped by how many headers they executed.
  std::map<uint64_t, std::vector<nt::ValidatorId>> stopped_at;
  for (nt::ValidatorId v = 0; v < n; ++v) {
    stopped_at[cluster.sharded_executor(v)->executed_headers()].push_back(v);
  }
  auto check_lanes = [&](uint64_t executed) {
    auto it = stopped_at.find(executed);
    if (it == stopped_at.end()) {
      return;
    }
    for (nt::ValidatorId v : it->second) {
      if (cluster.sharded_executor(v)->LaneDigests() != replay.LaneDigests()) {
        violations->push_back("validator " + std::to_string(v) + "'s lane digests differ from" +
                              " the replay after " + std::to_string(executed) + " headers");
      }
    }
  };

  // reached[k]: replay seconds until k headers had executed.
  std::vector<double> reached(sequence.size() + 1, 0.0);
  double seconds = 0;
  uint64_t executed = 0;
  check_lanes(0);
  for (const auto& header : sequence) {
    const Clock::time_point start = Clock::now();
    replay.OnCommittedHeader(header);
    seconds += SecondsSince(start);
    while (executed < replay.executed_headers()) {
      reached[++executed] = seconds;
      check_lanes(executed);
    }
  }

  ExecReplay out;
  out.seconds = seconds;
  out.txs = replay.applied_txs() + replay.rejected_txs();
  out.rejected = replay.rejected_txs();
  out.cross = replay.cross_shard_txs();
  for (nt::ValidatorId v = 0; v < n; ++v) {
    const nt::ShardedExecutor& live = *cluster.sharded_executor(v);
    if (live.executed_headers() > executed) {
      violations->push_back("validator " + std::to_string(v) + " executed headers the replay" +
                            " could not");
    } else {
      out.busy_s += reached[live.executed_headers()];
    }
    if (live.total_balance() != live.minted_total()) {
      violations->push_back("validator " + std::to_string(v) + " breaks conservation of balance");
    }
  }
  if (replay.total_balance() != replay.minted_total() || executed == 0) {
    violations->push_back("execution replay is empty or breaks conservation of balance");
  }
  return out;
}

ConsensusReplay ReplayConsensus(nt::Cluster& cluster, const DagCapture& capture,
                                const std::vector<nt::Digest>& live,
                                std::vector<std::string>* violations) {
  const nt::Committee& committee = cluster.committee();
  const nt::ClusterConfig& config = cluster.config();

  // A standalone network the replay primary can address: header sync
  // requests it may issue are scheduled on a scheduler that never runs.
  nt::Scheduler scheduler;
  nt::FixedLatencyModel latency(nt::Millis(50));
  nt::Network network(&scheduler, &latency, nullptr, config.net, config.seed);
  SinkNode sink;
  nt::Topology topology;
  for (nt::ValidatorId v = 0; v < committee.size(); ++v) {
    const uint32_t machine = network.NewMachine();
    topology.primary_of.push_back(network.AddNode(&sink, 0, machine));
    topology.worker_of.push_back({network.AddNode(&sink, 0, machine)});
    topology.role_of[topology.primary_of[v]] = {nt::Topology::NodeRole::Kind::kPrimary, v, 0};
    topology.role_of[topology.worker_of[v][0]] = {nt::Topology::NodeRole::Kind::kWorker, v, 0};
  }
  std::unique_ptr<nt::Signer> signer =
      nt::MakeSigner(config.signer_kind, nt::DeriveSeed(config.seed, 0));
  nt::Primary primary(0, committee, config.narwhal, &network, &topology, signer.get());
  primary.set_net_id(topology.primary_of[0]);

  std::vector<nt::Digest> replayed;
  nt::CommonCoin coin(config.seed);
  std::unique_ptr<nt::Tusk> tusk;
  std::unique_ptr<nt::Bullshark> bullshark;
  std::function<void(const nt::Digest&)> on_header;
  std::function<void(const nt::Certificate&)> on_cert;
  if (config.system == nt::SystemKind::kTusk) {
    tusk = std::make_unique<nt::Tusk>(&primary, committee, &coin, config.narwhal.gc_depth);
    tusk->add_on_commit([&](const nt::Tusk::Committed& c) { replayed.push_back(c.digest); });
    on_header = [&](const nt::Digest& d) { tusk->OnHeaderStored(d); };
    on_cert = [&](const nt::Certificate& c) { tusk->OnCertificate(c); };
  } else {
    bullshark = std::make_unique<nt::Bullshark>(&primary, committee, config.narwhal.gc_depth,
                                                config.bullshark);
    bullshark->add_on_commit(
        [&](const nt::Bullshark::Committed& c) { replayed.push_back(c.digest); });
    on_header = [&](const nt::Digest& d) { bullshark->OnHeaderStored(d); };
    on_cert = [&](const nt::Certificate& c) { bullshark->OnCertificate(c); };
  }

  std::vector<const nt::Certificate*> order;
  for (const nt::Certificate& cert : capture.certs()) {
    order.push_back(&cert);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const nt::Certificate* a, const nt::Certificate* b) {
                     return a->round != b->round ? a->round < b->round : a->author < b->author;
                   });
  double seconds = 0;
  for (const nt::Certificate* cert : order) {
    auto header = capture.headers().find(cert->header_digest);
    if (header != capture.headers().end()) {
      primary.mutable_dag().AddHeader(header->second, header->first);
      const Clock::time_point start = Clock::now();
      on_header(header->first);
      seconds += SecondsSince(start);
    }
    primary.mutable_dag().AddCertificate(*cert);
    const Clock::time_point start = Clock::now();
    on_cert(*cert);
    seconds += SecondsSince(start);
  }

  const size_t common = std::min(live.size(), replayed.size());
  if (common == 0 || !std::equal(live.begin(), live.begin() + static_cast<ptrdiff_t>(common),
                                 replayed.begin())) {
    violations->push_back("consensus replay over the observer's DAG disagrees with its commits");
  }
  ConsensusReplay out;
  out.us_per_cert = order.empty() ? 0 : seconds * 1e6 / static_cast<double>(order.size());
  return out;
}

VerifyCost TimeParentVerification(nt::Cluster& cluster, const DagCapture& capture,
                                  std::vector<std::string>* violations) {
  constexpr size_t kMaxHeaders = 256;
  const nt::ClusterConfig& config = cluster.config();
  std::unique_ptr<nt::Signer> verifier =
      nt::MakeSigner(config.signer_kind, nt::DeriveSeed(config.seed, 0));
  std::vector<const nt::BlockHeader*> picked;
  const size_t stride = std::max<size_t>(1, capture.headers().size() / kMaxHeaders);
  size_t i = 0;
  for (const auto& [digest, header] : capture.headers()) {
    if (i++ % stride == 0 && !header->parents.empty()) {
      picked.push_back(header.get());
    }
  }
  VerifyCost out;
  if (picked.empty()) {
    return out;
  }
  double hit_s = 0;
  double miss_s = 0;
  for (const nt::BlockHeader* header : picked) {
    nt::VerifiedCertCache cache;
    Clock::time_point start = Clock::now();
    const bool cold = nt::Certificate::VerifyAll(header->parents, cluster.committee(), *verifier,
                                                 &cache);
    miss_s += SecondsSince(start);
    start = Clock::now();
    const bool warm = nt::Certificate::VerifyAll(header->parents, cluster.committee(), *verifier,
                                                 &cache);
    hit_s += SecondsSince(start);
    if (!cold || !warm) {
      violations->push_back("a committed header's parent certificates do not verify");
      break;
    }
  }
  out.hit_us = hit_s * 1e6 / static_cast<double>(picked.size());
  out.miss_us = miss_s * 1e6 / static_cast<double>(picked.size());
  return out;
}

double TimeSha256(size_t size) {
  constexpr size_t kTotalBytes = 4 << 20;
  std::vector<uint8_t> input(size);
  for (size_t i = 0; i < size; ++i) {
    input[i] = static_cast<uint8_t>(i * 131);
  }
  const size_t reps = kTotalBytes / size;
  nt::Digest chain{};
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < reps; ++i) {
    input[0] = chain[0];  // Each hash depends on the previous one.
    chain = nt::Sha256::Hash(input.data(), input.size());
  }
  const double seconds = SecondsSince(start);
  return seconds * 1e9 / (static_cast<double>(reps * size) / 1024.0);
}

}  // namespace perfbench
