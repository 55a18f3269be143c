// Cluster assembly: builds a full in-process deployment of one of the six
// evaluated systems (paper §6-7) on the simulated WAN from a single config
// struct. Each validator is one record (key, stores, primary, workers,
// committer or payload provider plus HotStuff node, executor). The
// constructor lays out the whole topology first (machines, net ids, roles,
// stores), then builds every validator through the same function that a
// crash-restart rebuilds it with.
#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/bullshark/bullshark.h"
#include "src/crypto/coin.h"
#include "src/hotstuff/hotstuff.h"
#include "src/narwhal/mempool.h"
#include "src/narwhal/primary.h"
#include "src/narwhal/worker.h"
#include "src/net/network.h"
#include "src/runtime/metrics.h"
#include "src/shard/sharded_executor.h"
#include "src/tusk/tusk.h"

namespace nt {

// Which of the evaluated systems to deploy.
enum class SystemKind {
  kBaselineHs,  // HotStuff with a gossiped transaction mempool.
  kBatchedHs,   // HotStuff over best-effort batches (Prism-style).
  kNarwhalHs,   // HotStuff over the Narwhal mempool.
  kTusk,        // Narwhal + Tusk asynchronous consensus.
  kDagRider,    // Narwhal + DAG-Rider committer (ablation).
  kBullshark,   // Narwhal + Bullshark partially-synchronous 2-round rule.
};

// The display name, as result rows print it ("Narwhal-HS").
const char* SystemName(SystemKind kind);
// The lowercase name that --system flags and repro files spell
// ("narwhal-hs").
const char* SystemFlagName(SystemKind kind);
// The system whose flag name is `flag`, if any.
std::optional<SystemKind> ParseSystem(std::string_view flag);

struct ClusterConfig {
  SystemKind system = SystemKind::kTusk;
  uint32_t num_validators = 4;
  uint32_t workers_per_validator = 1;
  // Workers share the primary's machine (true = paper's "collocate").
  bool collocate = true;
  uint64_t seed = 1;
  SignerKind signer_kind = SignerKind::kFast;
  // Propagation model: WAN region matrix (default), uniform 25-75ms random
  // delays (the paper's Lemma 5 network), or an exact constant (for
  // round-trip-denominated measurements like Table 1).
  enum class LatencyKind { kWan, kUniform, kFixed };
  LatencyKind latency_kind = LatencyKind::kWan;
  TimeDelta fixed_latency = Millis(50);
  // Bounds for kUniform. Wide bounds (e.g. 1s..90s) emulate an asynchronous
  // network: quorum steps advance at the speed of the fastest 2f+1 messages
  // while leader-driven chains lose every race against view timers.
  TimeDelta uniform_lo = Millis(25);
  TimeDelta uniform_hi = Millis(75);

  NarwhalConfig narwhal;
  BullsharkConfig bullshark;
  NetworkConfig net;

  // When non-empty, every store MakeStore opens (primary_<v>.wal,
  // worker_<v>_<w>.wal, consensus_<v>.wal) is a WAL under this directory,
  // the role RocksDB plays in the paper's artifact (§6). Empty = in-memory.
  std::string persist_dir;

  // Sharded execution lanes per validator (§8.4): when > 0, every validator
  // of a Narwhal-based system gets a ShardedExecutor with this many
  // KvStateMachine lanes, fed by its local commit stream. 0 = execution off
  // (the mempool/consensus measurements don't pay for it). Ignored for the
  // HotStuff-mempool baselines, whose payloads are synthetic bytes.
  uint32_t exec_lanes = 0;

  // Lifecycle tracing (src/common/trace.h): when set, the cluster owns a
  // Tracer, wires emit points through every node, and samples per-node
  // gauges every 100 ms once StartGaugeSampling is called.
  bool trace = false;
};

// What a validator's consensus store holds: the commit log's records, the
// DAG committer's meta record and the HotStuff core's ledger (a store is
// shared by the commit log and one of the other two). The primary store
// holds PrimaryStoreRecords; worker stores hold bare batches, keyed by
// digest.
using ConsensusStoreRecords =
    RecordList<CommitRecord, CommitterMeta, HsVoteRecord, HsLockRecord, HsViewRecord,
               HsProposedRecord, HsHighQcRecord, HsCommitRecord>;

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Starts all nodes (schedules genesis proposals etc. at the current time).
  void Start();

  // Submits one client transaction to validator `v` (worker `w` for Narwhal
  // systems; providers for HotStuff mempool modes).
  void SubmitTx(ValidatorId v, WorkerId w, uint64_t size_bytes, std::optional<TxSample> sample);

  // Submits an explicit transaction payload (an encoded ExecTx) to validator
  // `v`'s worker `w`. Narwhal-based systems only — the baselines carry
  // synthetic bytes and have no executable payload path.
  void SubmitTxPayload(ValidatorId v, WorkerId w, Bytes payload, std::optional<TxSample> sample);

  // Crashes every machine of validator `v` at `when`.
  void CrashValidator(ValidatorId v, TimePoint when);
  // Isolates every node of validator `v` during [start, end).
  void IsolateValidator(ValidatorId v, TimePoint start, TimePoint end);

  // Crash–restart: takes validator `v` down during [crash_at, recover_at),
  // then tears down its Primary/Worker/consensus objects, builds them again
  // exactly as the constructor did, and recovers them from the validator's
  // durable stores (which the cluster owns and keeps alive across the
  // rebuild — they are the simulated disk). The recovered validator pulls
  // the DAG suffix it missed through the existing header synchronizer. Only
  // supported for SupportsRestart() systems; otherwise logs an error and
  // degrades to a permanent crash.
  void RestartValidator(ValidatorId v, TimePoint crash_at, TimePoint recover_at);
  // Every Narwhal-based system restarts: its state lives in the primary,
  // worker and consensus stores.
  bool SupportsRestart() const;

  // Fired after a validator's objects were rebuilt and recovered but before
  // their OnStart runs — the window where observers (DST checker, tests)
  // re-register per-node hooks that died with the old objects.
  void set_on_validator_rebuilt(std::function<void(ValidatorId)> hook) {
    on_validator_rebuilt_ = std::move(hook);
  }

  // One entry per completed rebuild, in recovery order (EXPERIMENTS.md's
  // recovery-metrics table reads these).
  struct RecoveryStats {
    ValidatorId validator = 0;
    TimePoint recovered_at = 0;
    uint64_t records_replayed = 0;  // Store records read back by Recover().
    Round resume_round = 0;         // DAG round re-derived from the store.
  };
  const std::vector<RecoveryStats>& recovery_stats() const { return recovery_stats_; }

  const ClusterConfig& config() const { return config_; }
  Scheduler& scheduler() { return scheduler_; }
  Network& network() { return *network_; }
  FaultController& faults() { return faults_; }
  Metrics& metrics() { return metrics_; }
  const Committee& committee() const { return committee_; }
  BatchDirectory& directory() { return directory_; }

  // The cluster's tracer; nullptr when config.trace is false.
  Tracer* tracer() { return tracer_.get(); }
  // Next client transaction id, unique across all of this cluster's load
  // generators. Deliberately per-cluster, not a process-wide static: a
  // second experiment in the same process must replay identically from id 0
  // (tx ids feed payload bytes and trace labels, so a leaking counter shows
  // up as run-to-run divergence in the determinism audit).
  uint64_t NextTxId() { return next_tx_id_++; }
  // True if validator `v` is currently crashed (any of its nodes; a crash
  // takes the validator's machines down together).
  bool IsValidatorCrashed(ValidatorId v) const;
  // Samples registered gauges every 100 ms until `until` (exclusive). No-op
  // without a tracer. Bounded so RunUntilIdle style tests terminate.
  void StartGaugeSampling(TimePoint until);

  // Periodically retries executors whose committed headers still wait for
  // batch payloads (worker synchronization in flight at commit time), every
  // 500ms until `until` (exclusive). No-op without execution lanes. Bounded
  // like StartGaugeSampling so runs terminate.
  void StartExecutorPump(TimePoint until);

  Primary* primary(ValidatorId v) { return validators_[v].primary.get(); }
  // nullptr when validator `v` runs no worker `w` (the HotStuff-mempool
  // baselines run none).
  Worker* worker(ValidatorId v, WorkerId w) {
    const auto& workers = validators_[v].workers;
    return w < workers.size() ? workers[w].get() : nullptr;
  }
  // Validator `v`'s DAG committer (Tusk, Bullshark or DAG-Rider); nullptr
  // for the HotStuff-ordered systems. tusk()/bullshark() are typed views of
  // the same object, nullptr when the committer is of another kind.
  DagCommitter* committer(ValidatorId v) { return validators_[v].committer.get(); }
  Tusk* tusk(ValidatorId v) { return dynamic_cast<Tusk*>(committer(v)); }
  // Validator `v`'s commit log: the committed header stream of every
  // Narwhal-based system, whether a DAG committer or HotStuff (Narwhal-HS)
  // orders its anchors. nullptr for the HotStuff-mempool baselines.
  CommitLog* commit_log(ValidatorId v);
  Bullshark* bullshark(ValidatorId v) { return dynamic_cast<Bullshark*>(committer(v)); }
  HotStuff* hotstuff(ValidatorId v) { return validators_[v].hotstuff.get(); }
  PayloadProvider* provider(ValidatorId v) { return validators_[v].provider.get(); }
  // Validator `v`'s execution lanes; nullptr unless config.exec_lanes > 0 on
  // a Narwhal-based system. The executor object survives RestartValidator
  // rebuilds (commits are not re-delivered across a recovery, so its state
  // stays consistent); only the commit hook is re-registered.
  ShardedExecutor* sharded_executor(ValidatorId v) { return validators_[v].executor.get(); }
  Mempool MempoolOf(ValidatorId v) { return Mempool(primary(v), worker(v, 0)); }

  const Topology& topology() const { return topology_; }

  // The durable stores backing validator `v` (cluster-owned; never null for
  // Narwhal-based systems). Tests inspect them to assert persistence.
  Store* primary_store(ValidatorId v) { return validators_[v].primary_store.get(); }
  Store* consensus_store(ValidatorId v) { return validators_[v].consensus_store.get(); }
  Store* worker_store(ValidatorId v, WorkerId w) {
    const auto& stores = validators_[v].worker_stores;
    return w < stores.size() ? stores[w].get() : nullptr;
  }

 private:
  // One validator (paper §4): its key, its durable stores, its protocol
  // objects and its execution lanes. The stores are the simulated disk and
  // the executor is the application state, so both outlive a rebuild; the
  // protocol objects are replaced. Stores are declared first because the
  // nodes hold raw Store pointers, and the executor last so it dies before
  // the workers its batch source reads.
  struct Validator {
    std::unique_ptr<Signer> signer;
    std::unique_ptr<Store> primary_store;
    std::vector<std::unique_ptr<Store>> worker_stores;
    std::unique_ptr<Store> consensus_store;
    std::unique_ptr<Primary> primary;
    std::vector<std::unique_ptr<Worker>> workers;
    // Exactly one of: a DAG committer, or a payload provider ordered by a
    // HotStuff node (declared before it: the node holds the provider).
    std::unique_ptr<DagCommitter> committer;
    std::unique_ptr<PayloadProvider> provider;
    std::unique_ptr<HotStuff> hotstuff;
    std::unique_ptr<ShardedExecutor> executor;
    uint32_t consensus_net_id = 0;  // The HotStuff node's; unused otherwise.
  };

  // Creates validator `v`'s nodes for config.system over its stores, binds
  // them to the net ids the constructor laid out and wires the cluster's
  // hooks: the commit log's store and metrics hook, the executor (created
  // on first call; it survives rebuilds) and the HotStuff cache's
  // registration with metrics_. The constructor and RebuildValidator both
  // build through here; neither recovers nor starts anything in it.
  void BuildValidator(ValidatorId v);
  // Creates validator `v`'s committer, or its payload provider and HotStuff
  // node (the one place a consensus kind is chosen).
  void MakeConsensus(ValidatorId v);
  // Points validator `v`'s nodes and executor at the tracer (no-op without
  // one). Runs after BuildValidator and, on a rebuild, after recovery, so
  // replayed records are not re-stamped as fresh protocol events.
  void AttachTracer(ValidatorId v);
  void RegisterTraceGauges();
  // Network ids of validator `v`'s nodes: its primary, its workers, then its
  // consensus node — whichever of them this system runs.
  std::vector<uint32_t> NodeIdsOf(ValidatorId v) const;
  // Opens the durable store `name` under config.persist_dir (failing loudly
  // on a corrupt/unopenable WAL), or an in-memory store when persist_dir is
  // empty — either way the cluster owns it for the lifetime of the run, so
  // it survives validator rebuilds.
  std::unique_ptr<Store> MakeStore(const std::string& name);
  // Tears down validator `v`'s protocol objects and builds them again with
  // BuildValidator, then recovers them from its stores, re-attaches the
  // tracer, fires on_validator_rebuilt and starts them (the recovery half of
  // RestartValidator; runs at the scheduled recovery time).
  void RebuildValidator(ValidatorId v);

  ClusterConfig config_;
  Scheduler scheduler_;
  std::unique_ptr<LatencyModel> latency_;
  FaultController faults_;
  std::unique_ptr<Network> network_;
  // Declared before metrics_ and validators_: they hold raw Tracer
  // pointers, so the tracer must be destroyed last.
  std::unique_ptr<Tracer> tracer_;
  Metrics metrics_;
  Committee committee_;
  BatchDirectory directory_;
  Topology topology_;
  CommonCoin coin_;
  uint64_t next_tx_id_ = 0;
  // Baseline-HS's gossiped pool, shared by every validator's provider.
  std::unique_ptr<SharedTxPool> shared_pool_;
  std::vector<Validator> validators_;

  std::function<void(ValidatorId)> on_validator_rebuilt_;
  std::vector<RecoveryStats> recovery_stats_;
};

}  // namespace nt

#endif  // SRC_RUNTIME_CLUSTER_H_
