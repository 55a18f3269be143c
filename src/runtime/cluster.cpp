#include "src/runtime/cluster.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "src/common/logging.h"
#include "src/tusk/dag_rider.h"

namespace nt {

namespace {
// Period of the tracer's gauge samples (StartGaugeSampling).
constexpr TimeDelta kTraceGaugeInterval = Millis(100);

// Every system's display name and the lowercase name flags and repro files
// spell, in SystemKind order.
constexpr std::pair<const char*, const char*> kSystemNames[] = {
    {"baseline-HS", "baseline-hs"}, {"batched-HS", "batched-hs"}, {"Narwhal-HS", "narwhal-hs"},
    {"Tusk", "tusk"},               {"DAG-Rider", "dag-rider"},   {"Bullshark", "bullshark"},
};
static_assert(std::size(kSystemNames) == static_cast<size_t>(SystemKind::kBullshark) + 1);

}  // namespace

const char* SystemName(SystemKind kind) { return kSystemNames[static_cast<size_t>(kind)].first; }

const char* SystemFlagName(SystemKind kind) {
  return kSystemNames[static_cast<size_t>(kind)].second;
}

std::optional<SystemKind> ParseSystem(std::string_view flag) {
  for (size_t i = 0; i < std::size(kSystemNames); ++i) {
    if (flag == kSystemNames[i].second) {
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

  // Key material and committee (validators spread over the 5 WAN regions).
  std::vector<ValidatorInfo> infos;
  for (uint32_t v = 0; v < config_.num_validators; ++v) {
    signers_.push_back(MakeSigner(config_.signer_kind, DeriveSeed(config_.seed, v)));
    ValidatorInfo info;
    info.key = signers_.back()->public_key();
    info.region = v % kWanRegionCount;
    infos.push_back(info);
  }
  committee_ = Committee(std::move(infos));

  const bool narwhal_based =
      config_.system != SystemKind::kBaselineHs && config_.system != SystemKind::kBatchedHs;
  if (narwhal_based) {
    BuildNarwhal();
  }
  if (!narwhal_based || config_.system == SystemKind::kNarwhalHs) {
    BuildHotStuff();
  } else {
    consensus_stores_.resize(config_.num_validators);
    committers_.resize(config_.num_validators);
    for (ValidatorId v = 0; v < config_.num_validators; ++v) {
      consensus_stores_[v] = MakeStore("consensus_" + std::to_string(v) + ".wal");
      committers_[v] = MakeCommitter(v);
    }
  }
  if (narwhal_based) {
    for (ValidatorId v = 0; v < config_.num_validators; ++v) {
      WireCommitLogFor(v);
    }
  }
  if (config_.exec_lanes > 0 && narwhal_based) {
    executors_.resize(config_.num_validators);
    for (ValidatorId v = 0; v < config_.num_validators; ++v) {
      WireExecutorFor(v);
    }
  } else if (config_.exec_lanes > 0) {
    LOG_ERROR() << "exec_lanes ignored for " << SystemName(config_.system)
                << " (no executable payload path)";
  }
  if (config_.trace) {
    AttachTracer();
  }
}

void Cluster::WireExecutorFor(ValidatorId v) {
  if (executors_[v] == nullptr) {
    // Resolve the worker at fetch time: a restarted validator's Worker is a
    // new object, and a raw pointer captured here would dangle.
    executors_[v] = std::make_unique<ShardedExecutor>(
        config_.exec_lanes,
        [this, v](const BatchRef& ref) { return workers_[v][0]->GetBatch(ref.digest); });
    ShardedExecutor* executor = executors_[v].get();
    executor->set_on_executed([this, v, executor](const Digest&, const std::vector<Digest>&) {
      metrics_.OnExecuted(v, executor->applied_txs(), executor->rejected_txs(),
                          executor->cross_shard_txs());
    });
  }
  commit_log(v)->add_on_commit([this, v](const CommitLog::Committed& c) {
    executors_[v]->OnCommittedHeader(c.header);
    executors_[v]->RetryPending();
  });
}

void Cluster::AttachTracer() {
  tracer_ = std::make_unique<Tracer>();
  metrics_.set_tracer(tracer_.get());
  for (auto& primary : primaries_) {
    primary->set_tracer(tracer_.get());
  }
  for (auto& validator_workers : workers_) {
    for (auto& worker : validator_workers) {
      worker->set_tracer(tracer_.get());
    }
  }
  for (auto& committer : committers_) {
    committer->set_tracer(tracer_.get());
  }
  for (auto& hs : hs_nodes_) {
    hs->set_tracer(tracer_.get());
  }
  for (ValidatorId v = 0; v < executors_.size(); ++v) {
    executors_[v]->set_tracer(tracer_.get(), v, &scheduler_);
  }
  RegisterTraceGauges();
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
    if (!primaries_.empty()) {
      // Resolve the primary at sample time: a restart replaces the object.
      t->RegisterGauge(tag + "/dag_round", v + 1, [this, v](TimePoint) {
        return static_cast<double>(primaries_[v]->round());
      });
      t->RegisterGauge(tag + "/dag_certs", v + 1, [this, v](TimePoint) {
        return static_cast<double>(primaries_[v]->dag().TotalCertificates());
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
  if (executors_.empty()) {
    return;
  }
  scheduler_.ScheduleAfter(Millis(500), [this, until] {
    if (scheduler_.now() >= until) {
      return;  // Bounded: no perpetual rescheduling past the horizon.
    }
    for (auto& executor : executors_) {
      executor->RetryPending();
    }
    StartExecutorPump(until);
  });
}

std::vector<uint32_t> Cluster::NodeIdsOf(ValidatorId v) const {
  std::vector<uint32_t> ids;
  if (!topology_.primary_of.empty()) {
    ids.push_back(topology_.primary_of[v]);
    ids.insert(ids.end(), topology_.worker_of[v].begin(), topology_.worker_of[v].end());
  }
  if (!consensus_net_ids_.empty()) {
    ids.push_back(consensus_net_ids_[v]);
  }
  return ids;
}

bool Cluster::IsValidatorCrashed(ValidatorId v) const {
  const std::vector<uint32_t> ids = NodeIdsOf(v);
  return !ids.empty() && network_->IsCrashed(ids.front());
}

Cluster::~Cluster() = default;

CommitLog* Cluster::commit_log(ValidatorId v) {
  if (DagCommitter* c = committer(v)) {
    return c->commit_log();
  }
  auto* np = dynamic_cast<NarwhalProvider*>(provider(v));
  return np != nullptr ? np->commit_log() : nullptr;
}

std::unique_ptr<DagCommitter> Cluster::MakeCommitter(ValidatorId v) {
  Primary* primary = primaries_[v].get();
  const Round gc_depth = config_.narwhal.gc_depth;
  std::unique_ptr<DagCommitter> committer;
  switch (config_.system) {
    case SystemKind::kTusk:
      committer = std::make_unique<Tusk>(primary, committee_, &coin_, gc_depth);
      break;
    case SystemKind::kBullshark:
      committer = std::make_unique<Bullshark>(primary, committee_, gc_depth, config_.bullshark);
      break;
    case SystemKind::kDagRider:
      committer = std::make_unique<DagRider>(primary, committee_, &coin_);
      break;
    default:
      throw std::logic_error("no DAG committer for " + std::string(SystemName(config_.system)));
  }
  committer->set_store(consensus_stores_[v].get());
  return committer;
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

void Cluster::BuildNarwhal() {
  const uint32_t n = config_.num_validators;
  const uint32_t w = config_.workers_per_validator;
  topology_.primary_of.resize(n);
  topology_.worker_of.assign(n, std::vector<uint32_t>(w));
  primaries_.resize(n);
  workers_.resize(n);
  primary_stores_.resize(n);
  worker_stores_.resize(n);

  for (ValidatorId v = 0; v < n; ++v) {
    uint32_t region = committee_.validator(v).region;
    uint32_t primary_machine = network_->NewMachine();

    primary_stores_[v] = MakeStore("primary_" + std::to_string(v) + ".wal");
    primaries_[v] = std::make_unique<Primary>(v, committee_, config_.narwhal, network_.get(),
                                              &topology_, signers_[v].get());
    primaries_[v]->set_store(primary_stores_[v].get());
    uint32_t primary_id = network_->AddNode(primaries_[v].get(), region, primary_machine);
    primaries_[v]->set_net_id(primary_id);
    topology_.primary_of[v] = primary_id;
    topology_.role_of[primary_id] = {Topology::NodeRole::Kind::kPrimary, v, 0};

    workers_[v].resize(w);
    worker_stores_[v].resize(w);
    for (WorkerId wi = 0; wi < w; ++wi) {
      uint32_t machine = config_.collocate ? primary_machine : network_->NewMachine();
      worker_stores_[v][wi] =
          MakeStore("worker_" + std::to_string(v) + "_" + std::to_string(wi) + ".wal");
      workers_[v][wi] =
          std::make_unique<Worker>(v, wi, committee_, config_.narwhal, network_.get(), &topology_,
                                   worker_stores_[v][wi].get(), &directory_);
      uint32_t worker_id = network_->AddNode(workers_[v][wi].get(), region, machine);
      workers_[v][wi]->set_net_id(worker_id);
      topology_.worker_of[v][wi] = worker_id;
      topology_.role_of[worker_id] = {Topology::NodeRole::Kind::kWorker, v, wi};
    }
  }
}

void Cluster::BuildHotStuff() {
  const uint32_t n = config_.num_validators;
  if (config_.system == SystemKind::kBaselineHs) {
    shared_pool_ = std::make_unique<SharedTxPool>();
  }
  consensus_net_ids_.resize(n);
  providers_.resize(n);
  hs_nodes_.resize(n);
  if (config_.system == SystemKind::kNarwhalHs) {
    consensus_stores_.resize(n);
  }

  // First pass: create nodes and net ids (consensus node shares the
  // primary's machine for Narwhal-HS; otherwise it is the validator's only
  // machine).
  for (ValidatorId v = 0; v < n; ++v) {
    uint32_t region = committee_.validator(v).region;
    uint32_t machine;
    if (config_.system == SystemKind::kNarwhalHs) {
      machine = network_->machine_of(topology_.primary_of[v]);
    } else {
      machine = network_->NewMachine();
    }

    switch (config_.system) {
      case SystemKind::kBaselineHs:
        providers_[v] = std::make_unique<BaselineProvider>(
            v, shared_pool_.get(), config_.max_block_bytes, config_.gossip_interval,
            config_.gossip_delay);
        break;
      case SystemKind::kBatchedHs:
        providers_[v] = std::make_unique<BatchedProvider>(
            v, committee_, config_.narwhal.batch_size_bytes, config_.narwhal.max_batch_delay,
            config_.max_digests_per_block, &directory_);
        break;
      case SystemKind::kNarwhalHs:
        consensus_stores_[v] = MakeStore("consensus_" + std::to_string(v) + ".wal");
        providers_[v] =
            std::make_unique<NarwhalProvider>(primaries_[v].get(), config_.narwhal.gc_depth);
        break;
      default:
        break;
    }

    hs_nodes_[v] = std::make_unique<HotStuff>(v, committee_, network_.get(),
                                              signers_[v].get(), providers_[v].get());
    if (config_.system == SystemKind::kNarwhalHs) {
      hs_nodes_[v]->set_store(consensus_stores_[v].get());
    }
    metrics_.RegisterCertCache(&hs_nodes_[v]->cert_cache());
    uint32_t net_id = network_->AddNode(hs_nodes_[v].get(), region, machine);
    hs_nodes_[v]->set_net_id(net_id);
    consensus_net_ids_[v] = net_id;
    topology_.role_of[net_id] = {Topology::NodeRole::Kind::kConsensus, v, 0};
  }

  // Second pass: wire peers, providers, and metrics sinks.
  for (ValidatorId v = 0; v < n; ++v) {
    WireHotStuffValidator(v);
  }
}

void Cluster::WireHotStuffValidator(ValidatorId v) {
  hs_nodes_[v]->set_peers(consensus_net_ids_);
  std::vector<uint32_t> peer_ids;
  for (ValidatorId u = 0; u < config_.num_validators; ++u) {
    if (u != v) {
      peer_ids.push_back(consensus_net_ids_[u]);
    }
  }
  providers_[v]->BindNetwork(network_.get(), consensus_net_ids_[v], std::move(peer_ids));
  providers_[v]->set_commit_sink(
      [this, v](ValidatorId owner, uint64_t num, uint64_t bytes,
                const std::vector<TxSample>& samples) {
        metrics_.OnCommit(v, owner, num, bytes, samples);
      });
}

void Cluster::WireCommitLogFor(ValidatorId v) {
  CommitLog* log = commit_log(v);
  log->set_store(consensus_stores_[v].get());
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
}

void Cluster::Start() { network_->Start(); }

void Cluster::SubmitTx(ValidatorId v, WorkerId w, uint64_t size_bytes,
                       std::optional<TxSample> sample) {
  switch (config_.system) {
    case SystemKind::kBaselineHs: {
      auto* provider = static_cast<BaselineProvider*>(providers_[v].get());
      std::vector<TxSample> samples;
      if (sample.has_value()) {
        samples.push_back(*sample);
      }
      provider->Submit(1, size_bytes, std::move(samples));
      break;
    }
    case SystemKind::kBatchedHs: {
      auto* provider = static_cast<BatchedProvider*>(providers_[v].get());
      std::vector<TxSample> samples;
      if (sample.has_value()) {
        samples.push_back(*sample);
      }
      provider->Submit(1, size_bytes, std::move(samples));
      break;
    }
    default:  // Narwhal-based: the transaction enters through a worker.
      workers_[v][w % config_.workers_per_validator]->SubmitTransaction(size_bytes, sample);
      break;
  }
}

void Cluster::SubmitTxPayload(ValidatorId v, WorkerId w, Bytes payload,
                              std::optional<TxSample> sample) {
  if (workers_.empty()) {
    LOG_ERROR() << "SubmitTxPayload requires a Narwhal-based system; dropping tx";
    return;
  }
  workers_[v][w % config_.workers_per_validator]->SubmitTransaction(std::move(payload), sample);
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
  const uint32_t w = config_.workers_per_validator;

  // Fold the dying HotStuff node's cert-cache activity into the run totals
  // before its pointer goes away.
  if (!hs_nodes_.empty()) {
    metrics_.UnregisterCertCache(&hs_nodes_[v]->cert_cache());
  }

  // Tear down top-down: the consensus layer references the primary. Timers
  // the dead objects left in the scheduler fire as no-ops (src/sim/timers.h).
  if (!committers_.empty()) {
    committers_[v].reset();
  }
  if (!hs_nodes_.empty()) {
    hs_nodes_[v].reset();
  }
  if (!providers_.empty()) {
    providers_[v].reset();
  }
  for (WorkerId wi = 0; wi < w; ++wi) {
    workers_[v][wi].reset();
  }
  primaries_[v].reset();

  // Reconstruct bottom-up from the durable stores. Net ids and machines are
  // reused — the replacement is in-place as far as the network is concerned.
  primaries_[v] = std::make_unique<Primary>(v, committee_, config_.narwhal, network_.get(),
                                            &topology_, signers_[v].get());
  primaries_[v]->set_net_id(topology_.primary_of[v]);
  primaries_[v]->set_store(primary_stores_[v].get());
  primaries_[v]->Recover();
  network_->ReplaceNode(topology_.primary_of[v], primaries_[v].get());

  for (WorkerId wi = 0; wi < w; ++wi) {
    workers_[v][wi] =
        std::make_unique<Worker>(v, wi, committee_, config_.narwhal, network_.get(), &topology_,
                                 worker_stores_[v][wi].get(), &directory_);
    workers_[v][wi]->set_net_id(topology_.worker_of[v][wi]);
    workers_[v][wi]->Recover();
    network_->ReplaceNode(topology_.worker_of[v][wi], workers_[v][wi].get());
  }

  if (!committers_.empty()) {
    committers_[v] = MakeCommitter(v);
    committers_[v]->Recover();
  } else {  // kNarwhalHs (the only other SupportsRestart() system).
    providers_[v] =
        std::make_unique<NarwhalProvider>(primaries_[v].get(), config_.narwhal.gc_depth);
    hs_nodes_[v] = std::make_unique<HotStuff>(v, committee_, network_.get(),
                                              signers_[v].get(), providers_[v].get());
    hs_nodes_[v]->set_net_id(consensus_net_ids_[v]);
    hs_nodes_[v]->set_store(consensus_stores_[v].get());
    metrics_.RegisterCertCache(&hs_nodes_[v]->cert_cache());
    WireHotStuffValidator(v);
    hs_nodes_[v]->Recover();
    network_->ReplaceNode(consensus_net_ids_[v], hs_nodes_[v].get());
  }

  // The commit log, its metrics hook and the executor hook died with the
  // old consensus object. The executor object survived the rebuild (it is
  // the validator's application state; commits are not re-delivered across
  // a recovery), so only its hook is re-registered.
  WireCommitLogFor(v);
  commit_log(v)->Recover();
  if (!executors_.empty()) {
    WireExecutorFor(v);
  }

  // Tracing re-attaches only after recovery, so replayed records do not get
  // re-stamped as fresh protocol events.
  if (tracer_ != nullptr) {
    primaries_[v]->set_tracer(tracer_.get());
    for (WorkerId wi = 0; wi < w; ++wi) {
      workers_[v][wi]->set_tracer(tracer_.get());
    }
    if (!committers_.empty()) {
      committers_[v]->set_tracer(tracer_.get());
    }
    if (!hs_nodes_.empty()) {
      hs_nodes_[v]->set_tracer(tracer_.get());
    }
  }

  RecoveryStats stats;
  stats.validator = v;
  stats.recovered_at = scheduler_.now();
  stats.records_replayed = primaries_[v]->recovered_store_records();
  stats.resume_round = primaries_[v]->round();
  recovery_stats_.push_back(stats);

  // Observers re-register their per-node hooks before anything runs.
  if (on_validator_rebuilt_) {
    on_validator_rebuilt_(v);
  }

  // Rejoin: the primary resumes at its recovered round (requesting any
  // missing headers), workers restart empty-pipelined, and consensus
  // re-evaluates its commit rule over the recovered state.
  primaries_[v]->OnStart();
  for (WorkerId wi = 0; wi < w; ++wi) {
    workers_[v][wi]->OnStart();
  }
  if (!committers_.empty()) {
    committers_[v]->Resume();
  }
  if (!hs_nodes_.empty()) {
    hs_nodes_[v]->OnStart();
  }
}

void Cluster::IsolateValidator(ValidatorId v, TimePoint start, TimePoint end) {
  for (uint32_t id : NodeIdsOf(v)) {
    faults_.Isolate(id, start, end);
  }
}

}  // namespace nt
