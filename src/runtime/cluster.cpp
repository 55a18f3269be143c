#include "src/runtime/cluster.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "src/common/logging.h"
#include "src/runtime/message_table.h"
#include "src/tusk/dag_rider.h"

namespace nt {

namespace {
// Period of the tracer's gauge samples (StartGaugeSampling).
constexpr TimeDelta kTraceGaugeInterval = Millis(100);

// Baseline-HS proposals carry raw transactions, up to 500 KB per block; a
// transaction is proposable 200 ms after submission (gossip spread), and each
// validator flushes its gossip traffic every 50 ms.
constexpr uint64_t kBaselineMaxBlockBytes = 500 * 1000;
constexpr TimeDelta kBaselineGossipInterval = Millis(50);
constexpr TimeDelta kBaselineGossipDelay = Millis(200);
// Batched-HS proposals carry at most 128 batch digests (4 KB): the bound that
// throttles Batched-HS catch-up after stalls, while a single Narwhal
// certificate commits its entire causal history (§7.3).
constexpr uint64_t kBatchedMaxDigestsPerBlock = 128;

// Every system's display name, the lowercase name flags and repro files
// spell, and which nodes each validator runs: a Narwhal mempool (primary
// and workers) and/or a HotStuff consensus node. In SystemKind order.
struct SystemInfo {
  const char* name;
  const char* flag;
  bool mempool;
  bool hotstuff;
};
constexpr SystemInfo kSystems[] = {
    {"baseline-HS", "baseline-hs", false, true}, {"batched-HS", "batched-hs", false, true},
    {"Narwhal-HS", "narwhal-hs", true, true},    {"Tusk", "tusk", true, false},
    {"DAG-Rider", "dag-rider", true, false},     {"Bullshark", "bullshark", true, false},
};
static_assert(std::size(kSystems) == static_cast<size_t>(SystemKind::kBullshark) + 1);

const SystemInfo& InfoOf(SystemKind kind) { return kSystems[static_cast<size_t>(kind)]; }

}  // namespace

const char* SystemName(SystemKind kind) { return InfoOf(kind).name; }

const char* SystemFlagName(SystemKind kind) { return InfoOf(kind).flag; }

std::optional<SystemKind> ParseSystem(std::string_view flag) {
  for (size_t i = 0; i < std::size(kSystems); ++i) {
    if (flag == kSystems[i].flag) {
      return static_cast<SystemKind>(i);
    }
  }
  return std::nullopt;
}

Cluster::Cluster(const ClusterConfig& config)
    : config_(config), metrics_(&scheduler_), coin_(config.seed) {
  switch (config_.latency_kind) {
    case ClusterConfig::LatencyKind::kWan:
      latency_ = std::make_unique<WanLatencyModel>();
      break;
    case ClusterConfig::LatencyKind::kUniform:
      latency_ = std::make_unique<UniformLatencyModel>(config_.uniform_lo, config_.uniform_hi);
      break;
    case ClusterConfig::LatencyKind::kFixed:
      latency_ = std::make_unique<FixedLatencyModel>(config_.fixed_latency);
      break;
  }
  network_ = std::make_unique<Network>(&scheduler_, latency_.get(), &faults_, config_.net,
                                       config_.seed);
  if (config_.trace) {
    tracer_ = std::make_unique<Tracer>();
    metrics_.set_tracer(tracer_.get());
  }

  // Key material and committee (validators spread over the 5 WAN regions).
  const uint32_t n = config_.num_validators;
  validators_.resize(n);
  std::vector<ValidatorInfo> infos;
  for (ValidatorId v = 0; v < n; ++v) {
    validators_[v].signer = MakeSigner(config_.signer_kind, DeriveSeed(config_.seed, v));
    ValidatorInfo info;
    info.key = validators_[v].signer->public_key();
    info.region = v % kWanRegionCount;
    infos.push_back(info);
  }
  committee_ = Committee(std::move(infos));

  // Lay out the topology before any node exists: every validator's mempool
  // nodes, then every consensus node (sharing the primary's machine when
  // there is one), so net ids, machines and the network's start order follow
  // the validator order. BuildValidator binds the nodes to these ids.
  const SystemInfo& info = InfoOf(config_.system);
  const uint32_t w = config_.workers_per_validator;
  if (info.mempool) {
    topology_.primary_of.resize(n);
    topology_.worker_of.assign(n, std::vector<uint32_t>(w));
    for (ValidatorId v = 0; v < n; ++v) {
      Validator& validator = validators_[v];
      const uint32_t region = committee_.validator(v).region;
      const uint32_t primary_machine = network_->NewMachine();
      validator.primary_store = MakeStore("primary_" + std::to_string(v) + ".wal");
      const uint32_t primary_id = network_->AddNode(nullptr, region, primary_machine);
      topology_.primary_of[v] = primary_id;
      topology_.role_of[primary_id] = {Topology::NodeRole::Kind::kPrimary, v, 0};
      validator.workers.resize(w);
      validator.worker_stores.resize(w);
      for (WorkerId wi = 0; wi < w; ++wi) {
        const uint32_t machine = config_.collocate ? primary_machine : network_->NewMachine();
        validator.worker_stores[wi] =
            MakeStore("worker_" + std::to_string(v) + "_" + std::to_string(wi) + ".wal");
        const uint32_t worker_id = network_->AddNode(nullptr, region, machine);
        topology_.worker_of[v][wi] = worker_id;
        topology_.role_of[worker_id] = {Topology::NodeRole::Kind::kWorker, v, wi};
      }
      validator.consensus_store = MakeStore("consensus_" + std::to_string(v) + ".wal");
    }
  }
  if (info.hotstuff) {
    for (ValidatorId v = 0; v < n; ++v) {
      const uint32_t machine = info.mempool ? network_->machine_of(topology_.primary_of[v])
                                            : network_->NewMachine();
      const uint32_t net_id = network_->AddNode(nullptr, committee_.validator(v).region, machine);
      validators_[v].consensus_net_id = net_id;
      topology_.role_of[net_id] = {Topology::NodeRole::Kind::kConsensus, v, 0};
    }
  }
  if (config_.exec_lanes > 0 && !info.mempool) {
    LOG_ERROR() << "exec_lanes ignored for " << SystemName(config_.system)
                << " (no executable payload path)";
  }

  for (ValidatorId v = 0; v < n; ++v) {
    BuildValidator(v);
    AttachTracer(v);
  }
  if (tracer_ != nullptr) {
    RegisterTraceGauges();
  }
}

void Cluster::BuildValidator(ValidatorId v) {
  Validator& validator = validators_[v];
  if (InfoOf(config_.system).mempool) {
    validator.primary = std::make_unique<Primary>(v, committee_, config_.narwhal, network_.get(),
                                                  &topology_, validator.signer.get());
    validator.primary->set_store(validator.primary_store.get());
    validator.primary->set_net_id(topology_.primary_of[v]);
    network_->ReplaceNode(topology_.primary_of[v], validator.primary.get());
    for (WorkerId wi = 0; wi < validator.workers.size(); ++wi) {
      auto& worker = validator.workers[wi];
      worker = std::make_unique<Worker>(v, wi, committee_, config_.narwhal, network_.get(),
                                        &topology_, validator.worker_stores[wi].get(),
                                        &directory_);
      worker->set_net_id(topology_.worker_of[v][wi]);
      network_->ReplaceNode(topology_.worker_of[v][wi], worker.get());
    }
  }

  MakeConsensus(v);
  if (HotStuff* hs = validator.hotstuff.get()) {
    hs->set_store(validator.consensus_store.get());
    metrics_.RegisterCertCache(&hs->cert_cache());
    hs->set_net_id(validator.consensus_net_id);
    network_->ReplaceNode(validator.consensus_net_id, hs);
    std::vector<uint32_t> consensus_ids;
    std::vector<uint32_t> peer_ids;
    for (ValidatorId u = 0; u < config_.num_validators; ++u) {
      consensus_ids.push_back(validators_[u].consensus_net_id);
      if (u != v) {
        peer_ids.push_back(validators_[u].consensus_net_id);
      }
    }
    hs->set_peers(std::move(consensus_ids));
    validator.provider->BindNetwork(network_.get(), validator.consensus_net_id,
                                    std::move(peer_ids));
    validator.provider->set_commit_sink(
        [this, v](ValidatorId owner, uint64_t num, uint64_t bytes,
                  const std::vector<TxSample>& samples) {
          metrics_.OnCommit(v, owner, num, bytes, samples);
        });
  }

  CommitLog* log = commit_log(v);
  if (log == nullptr) {
    return;  // The HotStuff-mempool baselines deliver through the commit sink.
  }
  log->set_store(validator.consensus_store.get());
  // Convert per-header commits into per-batch metrics via the directory.
  log->add_on_commit([this, v](const CommitLog::Committed& committed) {
    for (const BatchRef& ref : committed.header->batches) {
      const BatchDirectory::Info* info = directory_.Find(ref.digest);
      ValidatorId owner = info != nullptr ? info->author : committed.header->author;
      static const std::vector<TxSample> kNoSamples;
      metrics_.OnCommit(v, owner, ref.num_txs, ref.payload_bytes,
                        info != nullptr ? info->samples : kNoSamples);
    }
  });
  if (config_.exec_lanes == 0) {
    return;
  }
  if (validator.executor == nullptr) {
    // Resolve the worker that holds the batch (`ref.worker`) at fetch time: a
    // rebuild replaces the Worker, and a raw pointer captured here would
    // dangle.
    validator.executor = std::make_unique<ShardedExecutor>(
        config_.exec_lanes,
        [this, v](const BatchRef& ref) -> std::shared_ptr<const Batch> {
          Worker* holder = worker(v, ref.worker);
          return holder != nullptr ? holder->GetBatch(ref.digest) : nullptr;
        });
    ShardedExecutor* executor = validator.executor.get();
    executor->add_on_executed([this, v, executor](const Digest&, const std::vector<Digest>&) {
      metrics_.OnExecuted(v, executor->applied_txs(), executor->rejected_txs(),
                          executor->cross_shard_txs());
    });
  }
  log->add_on_commit([executor = validator.executor.get()](const CommitLog::Committed& c) {
    executor->OnCommittedHeader(c.header);
    executor->RetryPending();
  });
}

void Cluster::MakeConsensus(ValidatorId v) {
  Validator& validator = validators_[v];
  Primary* primary = validator.primary.get();
  const Round gc_depth = config_.narwhal.gc_depth;
  Scheduler* scheduler = network_->scheduler();
  switch (config_.system) {
    case SystemKind::kTusk:
      validator.committer = std::make_unique<Tusk>(primary, committee_, &coin_, gc_depth);
      break;
    case SystemKind::kBullshark:
      validator.committer =
          std::make_unique<Bullshark>(primary, committee_, gc_depth, config_.bullshark);
      break;
    case SystemKind::kDagRider:
      validator.committer = std::make_unique<DagRider>(primary, committee_, &coin_);
      break;
    case SystemKind::kBaselineHs:
      if (shared_pool_ == nullptr) {
        shared_pool_ = std::make_unique<SharedTxPool>();
      }
      validator.provider =
          std::make_unique<BaselineProvider>(scheduler, shared_pool_.get(), kBaselineMaxBlockBytes,
                                             kBaselineGossipInterval, kBaselineGossipDelay);
      break;
    case SystemKind::kBatchedHs:
      validator.provider = std::make_unique<BatchedProvider>(
          scheduler, v, config_.narwhal.batch_size_bytes, config_.narwhal.max_batch_delay,
          kBatchedMaxDigestsPerBlock, &directory_);
      break;
    case SystemKind::kNarwhalHs:
      validator.provider = std::make_unique<NarwhalProvider>(scheduler, primary, gc_depth);
      break;
  }
  if (validator.committer != nullptr) {
    validator.committer->set_store(validator.consensus_store.get());
  } else {
    validator.hotstuff = std::make_unique<HotStuff>(v, committee_, network_.get(),
                                                    validator.signer.get(),
                                                    validator.provider.get());
  }
}

void Cluster::AttachTracer(ValidatorId v) {
  Tracer* tracer = tracer_.get();
  if (tracer == nullptr) {
    return;
  }
  Validator& validator = validators_[v];
  if (validator.primary != nullptr) {
    validator.primary->set_tracer(tracer);
  }
  for (auto& worker : validator.workers) {
    worker->set_tracer(tracer);
  }
  if (validator.committer != nullptr) {
    validator.committer->set_tracer(tracer);
  }
  if (validator.hotstuff != nullptr) {
    validator.hotstuff->set_tracer(tracer);
  }
  if (validator.executor != nullptr) {
    validator.executor->set_tracer(tracer, v, &scheduler_);
  }
}

void Cluster::RegisterTraceGauges() {
  Tracer* t = tracer_.get();
  t->RegisterGauge("scheduler/pending_events", 0, [this](TimePoint) {
    return static_cast<double>(scheduler_.pending_events());
  });
  t->RegisterGauge("cert_cache/hit_rate", 0,
                   [this](TimePoint) { return metrics_.CertCacheHitRate(); });
  for (ValidatorId v = 0; v < config_.num_validators; ++v) {
    const std::vector<uint32_t> node_ids = NodeIdsOf(v);
    if (node_ids.empty()) {
      continue;
    }
    const uint32_t machine = network_->machine_of(node_ids.front());
    const std::string tag = "v" + std::to_string(v);
    t->RegisterGauge(tag + "/egress_backlog_us", v + 1, [this, machine](TimePoint now) {
      return static_cast<double>(network_->EgressBacklog(machine, now));
    });
    // NIC utilization over the sampling interval: fraction of wall time the
    // egress link spent transmitting since the previous sample.
    t->RegisterGauge(tag + "/egress_utilization", v + 1,
                     [this, machine, prev_busy = TimeDelta{0},
                      prev_at = TimePoint{0}](TimePoint now) mutable {
                       TimeDelta busy = network_->EgressBusyUs(machine);
                       double util = now > prev_at ? static_cast<double>(busy - prev_busy) /
                                                         static_cast<double>(now - prev_at)
                                                   : 0.0;
                       prev_busy = busy;
                       prev_at = now;
                       return util;
                     });
    if (InfoOf(config_.system).mempool) {
      // Resolve the primary at sample time: a restart replaces the object.
      t->RegisterGauge(tag + "/dag_round", v + 1, [this, v](TimePoint) {
        return static_cast<double>(validators_[v].primary->round());
      });
      t->RegisterGauge(tag + "/dag_certs", v + 1, [this, v](TimePoint) {
        return static_cast<double>(validators_[v].primary->dag().TotalCertificates());
      });
    }
  }
}

void Cluster::StartGaugeSampling(TimePoint until) {
  if (tracer_ == nullptr) {
    return;
  }
  scheduler_.ScheduleAfter(kTraceGaugeInterval, [this, until] {
    TimePoint now = scheduler_.now();
    if (now >= until) {
      return;  // Bounded: no perpetual rescheduling past the horizon.
    }
    tracer_->SampleGauges(now);
    StartGaugeSampling(until);
  });
}

void Cluster::StartExecutorPump(TimePoint until) {
  if (validators_.empty() || validators_.front().executor == nullptr) {
    return;  // Execution lanes are off.
  }
  scheduler_.ScheduleAfter(Millis(500), [this, until] {
    if (scheduler_.now() >= until) {
      return;  // Bounded: no perpetual rescheduling past the horizon.
    }
    for (Validator& validator : validators_) {
      validator.executor->RetryPending();
    }
    StartExecutorPump(until);
  });
}

std::vector<uint32_t> Cluster::NodeIdsOf(ValidatorId v) const {
  std::vector<uint32_t> ids;
  if (InfoOf(config_.system).mempool) {
    ids.push_back(topology_.primary_of[v]);
    ids.insert(ids.end(), topology_.worker_of[v].begin(), topology_.worker_of[v].end());
  }
  if (InfoOf(config_.system).hotstuff) {
    ids.push_back(validators_[v].consensus_net_id);
  }
  return ids;
}

bool Cluster::IsValidatorCrashed(ValidatorId v) const {
  const std::vector<uint32_t> ids = NodeIdsOf(v);
  return !ids.empty() && network_->IsCrashed(ids.front());
}

Cluster::~Cluster() = default;

bool Cluster::SupportsRestart() const { return InfoOf(config_.system).mempool; }

CommitLog* Cluster::commit_log(ValidatorId v) {
  if (DagCommitter* c = committer(v)) {
    return c->commit_log();
  }
  auto* np = dynamic_cast<NarwhalProvider*>(provider(v));
  return np != nullptr ? np->commit_log() : nullptr;
}

std::unique_ptr<Store> Cluster::MakeStore(const std::string& name) {
  if (config_.persist_dir.empty()) {
    // In-memory, but still cluster-owned and long-lived: for simulated
    // restarts the MemStore *is* the durable disk.
    return std::make_unique<MemStore>();
  }
  std::string path = config_.persist_dir + "/" + name;
  std::unique_ptr<Store> store = WalStore::Open(path);
  if (store == nullptr) {
    // Fail loudly. Silently substituting an in-memory store here would turn
    // "durable" into "ephemeral" behind the operator's back — a crash later
    // in the run would then lose state the configuration promised to keep.
    LOG_ERROR() << "cannot open WAL store at " << path;
    throw std::runtime_error("WalStore::Open failed: " + path);
  }
  return store;
}

void Cluster::Start() { network_->Start(); }

void Cluster::SubmitTx(ValidatorId v, WorkerId w, uint64_t size_bytes,
                       std::optional<TxSample> sample) {
  Validator& validator = validators_[v];
  if (validator.workers.empty()) {
    // A HotStuff-mempool baseline: its payload provider takes the transaction.
    std::vector<TxSample> samples;
    if (sample.has_value()) {
      samples.push_back(*sample);
    }
    validator.provider->Submit(1, size_bytes, std::move(samples));
    return;
  }
  validator.workers[w % validator.workers.size()]->SubmitTransaction(size_bytes, sample);
}

void Cluster::SubmitTxPayload(ValidatorId v, WorkerId w, Bytes payload,
                              std::optional<TxSample> sample) {
  Validator& validator = validators_[v];
  if (validator.workers.empty()) {
    LOG_ERROR() << "SubmitTxPayload requires a Narwhal-based system; dropping tx";
    return;
  }
  validator.workers[w % validator.workers.size()]->SubmitTransaction(std::move(payload), sample);
}

void Cluster::CrashValidator(ValidatorId v, TimePoint when) {
  for (uint32_t id : NodeIdsOf(v)) {
    faults_.CrashAt(id, when);
  }
}

void Cluster::RestartValidator(ValidatorId v, TimePoint crash_at, TimePoint recover_at) {
  CrashValidator(v, crash_at);
  if (!SupportsRestart()) {
    LOG_ERROR() << "restart unsupported for " << SystemName(config_.system) << "; validator "
                << v << " stays down";
    return;
  }
  for (uint32_t id : NodeIdsOf(v)) {
    faults_.RecoverAt(id, recover_at);
  }
  scheduler_.ScheduleAt(recover_at, [this, v] { RebuildValidator(v); });
}

void Cluster::RebuildValidator(ValidatorId v) {
  Validator& validator = validators_[v];

  // Fold the dying HotStuff node's cert-cache activity into the run totals
  // before its pointer goes away.
  if (validator.hotstuff != nullptr) {
    metrics_.UnregisterCertCache(&validator.hotstuff->cert_cache());
  }

  // Tear down top-down: the consensus layer references the primary. Timers
  // the dead objects left in the scheduler fire as no-ops (src/sim/timers.h).
  validator.committer.reset();
  validator.hotstuff.reset();
  validator.provider.reset();
  for (auto& worker : validator.workers) {
    worker.reset();
  }
  validator.primary.reset();

  // Build bottom-up exactly as the constructor did, on the same net ids and
  // machines (the replacement is in-place as far as the network is
  // concerned), then recover from the durable stores. The commit log's
  // hooks are the new ones; the executor survived (it is the validator's
  // application state and commits are not re-delivered across a recovery).
  BuildValidator(v);
  validator.primary->Recover();
  for (auto& worker : validator.workers) {
    worker->Recover();
  }
  if (validator.committer != nullptr) {
    validator.committer->Recover();
  } else {
    validator.hotstuff->Recover();
  }
  commit_log(v)->Recover();
  AttachTracer(v);

  RecoveryStats stats;
  stats.validator = v;
  stats.recovered_at = scheduler_.now();
  stats.records_replayed = validator.primary->recovered_store_records();
  stats.resume_round = validator.primary->round();
  recovery_stats_.push_back(stats);

  // Observers re-register their per-node hooks before anything runs.
  if (on_validator_rebuilt_) {
    on_validator_rebuilt_(v);
  }

  // Rejoin: the primary resumes at its recovered round (requesting any
  // missing headers), workers restart empty-pipelined, and consensus
  // re-evaluates its commit rule over the recovered state.
  validator.primary->OnStart();
  for (auto& worker : validator.workers) {
    worker->OnStart();
  }
  if (validator.committer != nullptr) {
    validator.committer->Resume();
  } else {
    validator.hotstuff->OnStart();
  }
}

void Cluster::IsolateValidator(ValidatorId v, TimePoint start, TimePoint end) {
  for (uint32_t id : NodeIdsOf(v)) {
    faults_.Isolate(id, start, end);
  }
}

}  // namespace nt
