#include "src/simulate.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#include "src/layers.h"
#include "src/runtime/client.h"
#include "src/shard/workload.h"
#include "src/summary.h"

namespace perfbench {
namespace {

using nt::Millis;
using nt::Seconds;

// Why each workload exists is recorded in BENCHMARK.json and README.md; the
// run lengths keep one run of each within the benchmark's time budget.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload w;
  w.name = "wan-n20-tusk";
  w.system = nt::SystemKind::kTusk;
  w.nodes = 20;
  w.rate_tps = 50000;
  w.warmup = Seconds(4);
  w.window_end = Seconds(22);
  w.submit_for = Seconds(24);
  w.drain = Seconds(12);
  w.sub_seeds = 3;
  w.repeats = 1;
  w.setup_batch = 32;
  all.push_back(w);

  w = Workload();
  w.name = "exec-n4-bullshark";
  w.system = nt::SystemKind::kBullshark;
  w.nodes = 4;
  w.rate_tps = 20000;
  w.exec_lanes = 4;
  w.cross_ratio = 0.2;
  w.zipf_theta = 0.9;
  w.warmup = Seconds(4);
  w.window_end = Seconds(28);
  w.submit_for = Seconds(30);
  w.drain = Seconds(4);
  w.sub_seeds = 2;
  all.push_back(w);

  // Validator 9 is down throughout; validator 1 crashes at 10s and is
  // rebuilt from its stores at 20s; every link is 10x slower in [25s, 28s).
  w = Workload();
  w.name = "faults-n10-tusk";
  w.system = nt::SystemKind::kTusk;
  w.nodes = 10;
  w.rate_tps = 50000;
  w.resubmit_timeout = Seconds(10);
  w.crashed = {9};
  w.restarts = {{1, Seconds(10), Seconds(20)}};
  w.asyncs = {{Seconds(25), Seconds(28), 10.0}};
  w.warmup = Seconds(5);
  w.window_end = Seconds(35);
  w.submit_for = Seconds(45);
  w.drain = Seconds(15);
  w.sub_seeds = 4;
  w.repeats = 3;
  all.push_back(w);

  w = Workload();
  w.name = "hs-n10-crash1";
  w.system = nt::SystemKind::kNarwhalHs;
  w.nodes = 10;
  w.rate_tps = 50000;
  w.resubmit_timeout = Seconds(10);
  w.crashed = {9};
  w.warmup = Seconds(5);
  w.window_end = Seconds(30);
  w.submit_for = Seconds(40);
  w.drain = Seconds(10);
  w.sub_seeds = 4;
  w.repeats = 4;
  all.push_back(w);

  // Not a benchmark workload: the smallest run that still crosses every
  // layer (execution, a restart, resubmission), for the benchmark's tests.
  w = Workload();
  w.name = "smoke";
  w.system = nt::SystemKind::kBullshark;
  w.nodes = 4;
  w.rate_tps = 4000;
  w.exec_lanes = 2;
  w.cross_ratio = 0.2;
  w.resubmit_timeout = Seconds(2);
  w.restarts = {{3, Millis(1500), Millis(2500)}};
  w.warmup = Seconds(1);
  w.window_end = Seconds(3);
  w.submit_for = Seconds(5);
  w.drain = Seconds(3);
  w.sub_seeds = 1;
  w.setup_batch = 4;
  all.push_back(w);
  return all;
}

// The cluster and its open-loop clients for one simulation.
class Deployment {
 public:
  Deployment(const Workload& w, uint64_t seed, bool traced) : workload_(w) {
    nt::ClusterConfig config;
    config.system = w.system;
    config.num_validators = w.nodes;
    config.workers_per_validator = 1;
    config.seed = seed;
    config.exec_lanes = w.exec_lanes;
    config.trace = traced;
    if (w.exec_lanes > 0) {
      nt::TransferWorkloadConfig transfers;
      transfers.num_shards = w.exec_lanes;
      transfers.cross_ratio = w.cross_ratio;
      transfers.zipf_theta = w.zipf_theta;
      transfers_ = std::make_unique<nt::TransferWorkload>(transfers);
    }
    cluster_ = std::make_unique<nt::Cluster>(config);
    for (nt::ValidatorId v : w.crashed) {
      cluster_->CrashValidator(v, 0);
    }
    for (const Workload::Restart& r : w.restarts) {
      cluster_->RestartValidator(r.validator, r.crash_at, r.recover_at);
    }
    for (const Workload::Async& a : w.asyncs) {
      cluster_->faults().AddAsynchronyWindow(a.start, a.end, a.factor);
    }
    for (nt::ValidatorId v = 0; v < w.nodes; ++v) {
      nt::LoadGenerator::Options options;
      options.rate_tps = w.rate_tps / w.nodes;
      options.tx_size = 512;
      options.sample_rate = config.narwhal.tx_sample_rate;
      options.stop_at = w.submit_for;
      options.resubmit_timeout = w.resubmit_timeout;
      options.transfer = transfers_.get();
      clients_.push_back(std::make_unique<nt::LoadGenerator>(cluster_.get(), v, 0, options));
    }
    if (transfers_ != nullptr) {
      // Fund the accounts with one sealed block of mints right after start.
      std::vector<nt::Bytes> mints = transfers_->InitialMints();
      nt::Cluster* c = cluster_.get();
      cluster_->scheduler().ScheduleAt(Millis(1),
                                       [c, mints] { c->worker(0, 0)->SubmitBlock(mints); });
    }
  }

  void Start() {
    cluster_->Start();
    for (auto& client : clients_) {
      client->Start();
    }
    cluster_->StartExecutorPump(workload_.end());
  }

  nt::Cluster& cluster() { return *cluster_; }

  uint64_t SubmittedBy(nt::ValidatorId v) const { return clients_[v]->submitted_txs(); }
  uint64_t sample_rate() const { return cluster_->config().narwhal.tx_sample_rate; }

 private:
  const Workload& workload_;
  std::unique_ptr<nt::TransferWorkload> transfers_;  // Outlives the clients.
  std::unique_ptr<nt::Cluster> cluster_;
  std::vector<std::unique_ptr<nt::LoadGenerator>> clients_;
};

// Every validator's committed header stream, and the sampled transactions
// those headers carried.
class CommitRecorder {
 public:
  CommitRecorder(nt::Cluster* cluster, const Workload& w)
      : cluster_(cluster),
        workload_(w),
        seq_(w.nodes),
        headers_(w.nodes),
        times_(w.nodes),
        seen_(w.nodes) {}

  // (Re-)registers the hook on validator v's current consensus object.
  void Wire(nt::ValidatorId v) {
    auto hook = [this, v](const nt::Digest& digest,
                          const std::shared_ptr<const nt::BlockHeader>& header) {
      OnCommit(v, digest, header);
    };
    switch (workload_.system) {
      case nt::SystemKind::kTusk:
        cluster_->tusk(v)->add_on_commit(
            [hook](const nt::Tusk::Committed& c) { hook(c.digest, c.header); });
        break;
      case nt::SystemKind::kBullshark:
        cluster_->bullshark(v)->add_on_commit(
            [hook](const nt::Bullshark::Committed& c) { hook(c.digest, c.header); });
        break;
      default:
        dynamic_cast<nt::NarwhalProvider&>(*cluster_->provider(v)).add_on_header_commit(hook);
        break;
    }
  }

  const std::vector<nt::Digest>& sequence(nt::ValidatorId v) const { return seq_[v]; }
  const std::vector<std::shared_ptr<const nt::BlockHeader>>& headers(nt::ValidatorId v) const {
    return headers_[v];
  }
  // Simulated time of validator v's first commit at or after `t` (kNever if none).
  nt::TimePoint FirstCommitAfter(nt::ValidatorId v, nt::TimePoint t) const {
    auto it = std::lower_bound(times_[v].begin(), times_[v].end(), t);
    return it == times_[v].end() ? nt::kNever : *it;
  }
  uint64_t observer_txs() const { return observer_txs_; }

  // Fills the simulated-clock metrics and checks the commit streams.
  void Finish(SimResult* r) const {
    for (const auto& [id, s] : samples_) {
      if (s.submit < workload_.warmup || s.submit >= workload_.window_end) {
        continue;
      }
      ++r->committed_samples;
      if (s.owner_commit != nt::kNever) {
        r->latencies_s.push_back(nt::ToSeconds(s.owner_commit - s.submit));
      }
    }
    r->window_txs = window_txs_;
    r->window_s = nt::ToSeconds(last_window_commit_ - first_window_commit_);
    for (const std::string& v : violations_) {
      r->violations.push_back(v);
    }

    // Prefix consistency: every validator's sequence is a prefix of the
    // longest one.
    const nt::ValidatorId longest = Longest();
    for (nt::ValidatorId v = 0; v < workload_.nodes; ++v) {
      for (size_t i = 0; i < seq_[v].size(); ++i) {
        if (seq_[v][i] != seq_[longest][i]) {
          r->violations.push_back("validator " + std::to_string(v) + " commit #" +
                                  std::to_string(i) + " differs from validator " +
                                  std::to_string(longest) + "'s");
          break;
        }
      }
      const bool crashed = std::count(workload_.crashed.begin(), workload_.crashed.end(), v) != 0;
      if (!crashed && seq_[v].empty()) {
        r->violations.push_back("live validator " + std::to_string(v) + " committed nothing");
      }
    }
    if (window_txs_ == 0 || r->window_s <= 0 || r->latencies_s.empty()) {
      r->violations.push_back("nothing committed in the measurement window");
    }
  }

  nt::ValidatorId Longest() const {
    nt::ValidatorId longest = 0;
    for (nt::ValidatorId v = 0; v < workload_.nodes; ++v) {
      if (seq_[v].size() > seq_[longest].size()) {
        longest = v;
      }
    }
    return longest;
  }

 private:
  struct Sample {
    nt::TimePoint submit = 0;
    nt::TimePoint owner_commit = nt::kNever;  // Earliest commit where it was submitted.
  };

  void OnCommit(nt::ValidatorId v, const nt::Digest& digest,
                const std::shared_ptr<const nt::BlockHeader>& header) {
    const nt::TimePoint now = cluster_->scheduler().now();
    if (!seen_[v].insert(digest).second) {
      violations_.push_back("validator " + std::to_string(v) + " committed a header twice");
      return;
    }
    seq_[v].push_back(digest);
    headers_[v].push_back(header);
    times_[v].push_back(now);
    for (const nt::BatchRef& ref : header->batches) {
      if (v == 0) {
        observer_txs_ += ref.num_txs;
        if (now >= workload_.warmup && now < workload_.window_end) {
          ObserveWindowCommit(now, ref.num_txs);
        }
      }
      const nt::BatchDirectory::Info* info = cluster_->directory().Find(ref.digest);
      if (info == nullptr) {
        continue;
      }
      for (const nt::TxSample& s : info->samples) {
        Sample& sample = samples_[s.tx_id];
        sample.submit = s.submit_time;
        if (v == info->author) {
          sample.owner_commit = std::min(sample.owner_commit, now);
        }
      }
    }
  }

  // Throughput runs between the observer's first and last commit instants
  // inside the window: transactions committed after the first instant, over
  // the time between the two. Counting whole commits against the window's
  // fixed edges would swing with where a burst of commits falls.
  void ObserveWindowCommit(nt::TimePoint now, uint64_t txs) {
    if (first_window_commit_ == nt::kNever) {
      first_window_commit_ = now;
    } else if (now > first_window_commit_) {
      window_txs_ += txs;
    }
    last_window_commit_ = now;
  }

  nt::Cluster* cluster_;
  const Workload& workload_;
  std::vector<std::vector<nt::Digest>> seq_;
  std::vector<std::vector<std::shared_ptr<const nt::BlockHeader>>> headers_;
  std::vector<std::vector<nt::TimePoint>> times_;
  std::vector<std::set<nt::Digest>> seen_;
  std::map<uint64_t, Sample> samples_;
  nt::TimePoint first_window_commit_ = nt::kNever;
  nt::TimePoint last_window_commit_ = nt::kNever;
  uint64_t window_txs_ = 0;  // Committed at the observer after first_window_commit_.
  uint64_t observer_txs_ = 0;
  std::vector<std::string> violations_;
};

// Per-layer metrics of a traced simulation (see README.md for each one).
void CollectLayers(const Workload& w, nt::Cluster& cluster, const CommitRecorder& commits,
                   const NodeTimers& timers, const DagCapture& capture, const ExecReplay& exec,
                   SimResult* r) {
  std::map<std::string, double>& m = r->layers;
  nt::Network& net = cluster.network();
  nt::Tracer& tracer = *cluster.tracer();
  const double txs = static_cast<double>(std::max<uint64_t>(commits.observer_txs(), 1));
  const double sim_s = nt::ToSeconds(w.end());

  m["sim.events"] = static_cast<double>(r->events_fired);

  const double bytes = static_cast<double>(net.bytes_sent());
  m["net.msgs_per_tx"] = static_cast<double>(net.messages_sent()) / txs;
  m["net.bytes_per_tx"] = bytes / txs;
  const auto types = net.type_stats();
  auto header_stats = types.find("Header");
  m["net.header_bytes_frac"] =
      header_stats == types.end() || bytes == 0 ? 0.0
                                                : static_cast<double>(header_stats->second.bytes) /
                                                      bytes;
  double egress_max = 0;
  for (uint32_t machine = 0; machine < net.machine_count(); ++machine) {
    egress_max = std::max(egress_max, nt::ToSeconds(net.EgressBusyUs(machine)) / sim_s);
  }
  m["net.egress_busy_max"] = egress_max;
  m["net.dropped"] = static_cast<double>(net.messages_dropped());

  const uint64_t lookups =
      cluster.metrics().cert_cache_hits() + cluster.metrics().cert_cache_misses();
  const uint64_t headers_in = timers.Calls(NodeTimers::kPrimary, nt::MessageTypeId::kHeader);
  m["cert_cache.lookups_per_header"] =
      static_cast<double>(lookups) / static_cast<double>(std::max<uint64_t>(headers_in, 1));
  m["cert_cache.hit_rate"] = cluster.metrics().CertCacheHitRate();
  const VerifyCost verify = TimeParentVerification(cluster, capture, &r->violations);
  m["types.parents_verify_hit_us"] = verify.hit_us;
  m["types.parents_verify_miss_us"] = verify.miss_us;
  m["crypto.sha256_ns_per_kb_64b"] = TimeSha256(64);
  m["crypto.sha256_ns_per_kb_4kb"] = TimeSha256(4096);

  m["narwhal.primary_busy_s"] = timers.BusySeconds(NodeTimers::kPrimary);
  m["narwhal.header_busy_s"] = timers.BusySeconds(NodeTimers::kPrimary, nt::MessageTypeId::kHeader);
  m["narwhal.cert_busy_s"] =
      timers.BusySeconds(NodeTimers::kPrimary, nt::MessageTypeId::kCertificate);
  m["narwhal.vote_busy_s"] = timers.BusySeconds(NodeTimers::kPrimary, nt::MessageTypeId::kVote);
  m["narwhal.worker_busy_s"] = timers.BusySeconds(NodeTimers::kWorker);
  const nt::LatencyBreakdown stages = tracer.ComputeBreakdown(w.warmup, w.end());
  m["narwhal.batch_wait_p50_s"] = stages.batch_s.Percentile(50);
  m["narwhal.cert_wait_p50_s"] = stages.cert_s.Percentile(50);
  uint64_t sync_requests = 0;
  uint64_t store_records = 0;
  uint64_t store_syncs = 0;
  auto add_store = [&](const nt::Store* store) {
    if (store != nullptr) {
      store_records += store->size();
      store_syncs += store->sync_count();
    }
  };
  for (nt::ValidatorId v = 0; v < w.nodes; ++v) {
    sync_requests += cluster.primary(v)->header_sync_requests();
    add_store(cluster.primary_store(v));
    add_store(cluster.consensus_store(v));
    add_store(cluster.worker_store(v, 0));
  }
  m["narwhal.header_sync_requests"] = static_cast<double>(sync_requests);
  m["narwhal.retry_rounds"] = static_cast<double>(tracer.total_retry_rounds("header_retry") +
                                                  tracer.total_retry_rounds("cert_reshare") +
                                                  tracer.total_retry_rounds("batch_retry"));

  m["consensus.commit_wait_p50_s"] = stages.commit_s.Percentile(50);
  m["consensus.commit_wait_p99_s"] = stages.commit_s.Percentile(99);
  ConsensusReplay replay;
  if (w.system != nt::SystemKind::kNarwhalHs) {
    replay = ReplayConsensus(cluster, capture, commits.sequence(0), &r->violations);
  }
  m["consensus.replay_us_per_cert"] = replay.us_per_cert;
  double skipped = 0;
  if (w.system == nt::SystemKind::kTusk) {
    skipped = static_cast<double>(cluster.tusk(0)->skipped_leaders());
  } else if (w.system == nt::SystemKind::kBullshark) {
    skipped = static_cast<double>(cluster.bullshark(0)->skipped_anchors());
  }
  m["consensus.skipped_leaders"] = skipped;

  m["hotstuff.busy_s"] = timers.BusySeconds(NodeTimers::kConsensus);
  m["hotstuff.timeouts"] = static_cast<double>(tracer.counter("hotstuff/timeouts"));

  const double exec_txs = static_cast<double>(std::max<uint64_t>(exec.txs, 1));
  m["exec.busy_s"] = exec.busy_s;
  m["exec.replay_txs_per_s"] = exec.seconds > 0 ? static_cast<double>(exec.txs) / exec.seconds : 0;
  m["exec.rejected_frac"] = static_cast<double>(exec.rejected) / exec_txs;
  m["exec.cross_frac"] = static_cast<double>(exec.cross) / exec_txs;

  m["store.records"] = static_cast<double>(store_records);
  m["store.syncs"] = static_cast<double>(store_syncs);
  uint64_t replayed = 0;
  double catchup_s = 0;
  for (const nt::Cluster::RecoveryStats& s : cluster.recovery_stats()) {
    replayed += s.records_replayed;
    const nt::TimePoint first = commits.FirstCommitAfter(s.validator, s.recovered_at);
    if (first == nt::kNever) {
      r->violations.push_back("restarted validator " + std::to_string(s.validator) +
                              " never committed after recovery");
    } else {
      catchup_s = std::max(catchup_s, nt::ToSeconds(first - s.recovered_at));
    }
  }
  m["recovery.records_replayed"] = static_cast<double>(replayed);
  m["recovery.catchup_s"] = catchup_s;

  const double busy = timers.BusySeconds(NodeTimers::kPrimary) +
                      timers.BusySeconds(NodeTimers::kWorker) +
                      timers.BusySeconds(NodeTimers::kConsensus);
  m["runtime.traced_wall_s"] = r->run_s;
  m["runtime.unattributed_busy_s"] = r->run_s - busy;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = MakeWorkloads();
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

uint64_t SubSeed(uint64_t seed, uint32_t index) { return seed * 1000 + index; }

double TimeSetups(const Workload& workload, uint64_t seed, uint32_t count) {
  double total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    Deployment deployment(workload, seed, /*traced=*/false);
    deployment.Start();
    total += SecondsSince(start);
  }
  return total / count;
}

SimResult Simulate(const Workload& workload, uint64_t seed, bool traced) {
  SimResult r;
  const auto setup_start = std::chrono::steady_clock::now();
  Deployment deployment(workload, seed, traced);
  nt::Cluster& cluster = deployment.cluster();

  CommitRecorder commits(&cluster, workload);
  std::unique_ptr<NodeTimers> timers;
  DagCapture capture;
  for (nt::ValidatorId v = 0; v < workload.nodes; ++v) {
    commits.Wire(v);
  }
  if (traced) {
    timers = std::make_unique<NodeTimers>(&cluster);
    capture.Attach(cluster.primary(0));
  }
  cluster.set_on_validator_rebuilt([&](nt::ValidatorId v) {
    commits.Wire(v);
    if (timers != nullptr) {
      timers->Rewrap(v);
      if (v == 0) {
        capture.Attach(cluster.primary(0));
      }
    }
  });
  // Client submission counters at both ends of the window; the sampled
  // transactions offered in it follow from them (SamplesOffered).
  std::vector<uint64_t> submitted_at_start(workload.nodes, 0);
  std::vector<uint64_t> submitted_at_end(workload.nodes, 0);
  auto snapshot = [&deployment, n = workload.nodes](std::vector<uint64_t>* out) {
    for (nt::ValidatorId v = 0; v < n; ++v) {
      (*out)[v] = deployment.SubmittedBy(v);
    }
  };
  cluster.scheduler().ScheduleAt(workload.warmup, [&] { snapshot(&submitted_at_start); });
  cluster.scheduler().ScheduleAt(workload.window_end, [&] { snapshot(&submitted_at_end); });
  deployment.Start();
  r.setup_s = SecondsSince(setup_start);

  const auto run_start = std::chrono::steady_clock::now();
  cluster.scheduler().RunUntil(workload.end());
  r.run_s = SecondsSince(run_start);
  r.sim_s = nt::ToSeconds(workload.end());
  r.event_hash = cluster.scheduler().event_hash();
  r.events_fired = cluster.scheduler().events_fired();

  for (nt::ValidatorId v = 0; v < workload.nodes; ++v) {
    r.offered_samples +=
        SamplesOffered(submitted_at_start[v], submitted_at_end[v], deployment.sample_rate());
  }
  commits.Finish(&r);
  if (r.committed_samples > r.offered_samples) {
    r.violations.push_back("more window samples committed than offered");
  }
  ExecReplay exec;
  if (workload.exec_lanes > 0) {
    exec = ReplayExecution(cluster, commits.headers(commits.Longest()), &r.violations);
  }
  if (traced) {
    CollectLayers(workload, cluster, commits, *timers, capture, exec, &r);
  }
  return r;
}

}  // namespace perfbench
