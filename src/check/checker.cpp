#include "src/check/checker.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "src/check/oracle.h"
#include "src/common/seeded_bugs.h"
#include "src/hotstuff/payload.h"
#include "src/shard/sharded_executor.h"

namespace nt {

namespace {

// Keep failure reports small; one violation is enough to fail and shrink.
constexpr size_t kMaxViolations = 16;

std::string DigestPrefix(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < 4; ++i) {
    out.push_back(hex[d[i] >> 4]);
    out.push_back(hex[d[i] & 0xf]);
  }
  return out;
}

std::string Account(ValidatorId v) { return "acct-" + std::to_string(v); }

// FNV-1a fold of the per-header lane-digest sequence — the per-shard state
// fingerprint the determinism audit compares across runs.
uint64_t FoldShardState(const std::vector<std::pair<Digest, std::vector<Digest>>>& exec_global) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const Digest& d) {
    for (uint8_t byte : d) {
      h ^= byte;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [header, lanes] : exec_global) {
    mix(header);
    for (const Digest& lane : lanes) {
      mix(lane);
    }
  }
  return h;
}

}  // namespace

std::string CheckResult::Summary() const {
  if (violations.empty()) {
    return "ok";
  }
  std::ostringstream out;
  std::set<std::string> seen;
  for (const Violation& v : violations) {
    if (seen.insert(v.invariant).second) {
      if (seen.size() > 1) {
        out << ",";
      }
      out << v.invariant;
    }
  }
  return out.str();
}

CheckResult RunSchedule(const FaultSchedule& schedule) {
  // Seeded bugs travel inside the schedule so repro files are self-contained;
  // restore on every exit path.
  seeded_bugs::Scoped bugs(schedule.bugs);

  // (5) execution agreement and (8) shard state: every validator runs the
  // cluster's ShardedExecutor with `num_lanes` lanes (1 = the historical
  // single-lane behavior) whose per-lane digest vectors must agree at equal
  // sequence numbers, conserve balance, and match the pure ReplayShards
  // oracle.
  const uint32_t num_lanes = std::max<uint32_t>(1, schedule.shards);
  ClusterConfig config;
  config.system = schedule.system;
  config.num_validators = schedule.validators;
  config.seed = schedule.seed;
  config.exec_lanes = num_lanes;
  Cluster cluster(config);
  const uint32_t n = schedule.validators;
  Scheduler& scheduler = cluster.scheduler();

  CheckResult result;
  auto violation = [&result](const char* invariant, std::string detail) {
    if (result.violations.size() < kMaxViolations) {
      result.violations.push_back({invariant, std::move(detail)});
    }
  };

  // --- invariant monitors ---------------------------------------------------

  // (2) certificate uniqueness: every accepted certificate anywhere, keyed
  // by (round, author). Two distinct header digests = double-cert.
  std::map<std::pair<Round, ValidatorId>, std::set<Digest>> accepted;
  // (4) oracle input: the union of every validator's observed DAG. Headers
  // and certificates are content-addressed, so accumulation is conflict-free
  // (AddCertificate keeps the first per (round, author) — the monitor above
  // reports when that ever matters).
  Dag union_dag;
  // (1) prefix consistency: longest committed sequence seen so far. The
  // header objects ride along as the shard-oracle replay input.
  std::vector<Digest> global_seq;
  std::vector<std::shared_ptr<const BlockHeader>> global_headers;
  std::vector<std::vector<Digest>> commit_seq(n);
  std::vector<TimePoint> last_commit(n, -1);
  std::vector<std::pair<Digest, std::vector<Digest>>> exec_global;  // (header, lane digests).
  std::vector<size_t> exec_len(n, 0);
  // (7) restart consistency: validators with a scheduled recovery, the
  // headers each validator has authored (any observer's view), and each
  // validator's own committed set. A recovered validator must neither author
  // a second header for a round it signed pre-crash (equivocation through
  // amnesia) nor re-deliver a commit its pre-crash incarnation already
  // delivered.
  std::set<ValidatorId> restarting;
  std::set<ValidatorId> byzantine;
  for (const FaultSchedule::Crash& c : schedule.crashes) {
    if (c.recovers()) {
      restarting.insert(c.validator);
    }
  }
  for (const FaultSchedule::Equivocate& e : schedule.equivocators) {
    byzantine.insert(e.validator);
  }
  std::map<std::pair<Round, ValidatorId>, std::set<Digest>> authored;
  std::vector<std::set<Digest>> committed_set(n);

  // All per-validator hook wiring lives in one re-callable closure: a
  // restarted validator's Primary/consensus objects are new allocations, so
  // the cluster re-invokes this (via set_on_validator_rebuilt) after every
  // rebuild, before the recovered node starts.
  auto wire_validator = [&](ValidatorId v) {
    Primary* primary = cluster.primary(v);
    primary->add_on_certificate([&, primary](const Certificate& cert) {
      auto& digests = accepted[{cert.round, cert.author}];
      digests.insert(cert.header_digest);
      if (digests.size() > 1) {
        violation("cert-uniqueness",
                  "round " + std::to_string(cert.round) + " author " +
                      std::to_string(cert.author) + ": " + std::to_string(digests.size()) +
                      " distinct certificates accepted");
      }
      union_dag.AddCertificate(cert);
      if (auto header = primary->dag().GetHeader(cert.header_digest)) {
        union_dag.AddHeader(header, cert.header_digest);
      }
    });
    primary->add_on_header_stored([&, primary](const Digest& digest) {
      if (auto header = primary->dag().GetHeader(digest)) {
        union_dag.AddHeader(header, digest);
        // (7) equivocation-through-amnesia: two distinct header digests for
        // one (round, author) where the author restarted cleanly means its
        // recovered vote/proposal ledger failed to stop a double-sign.
        if (restarting.count(header->author) != 0 && byzantine.count(header->author) == 0) {
          auto& mine = authored[{header->round, header->author}];
          mine.insert(digest);
          if (mine.size() > 1) {
            violation("restart-consistency",
                      "recovered validator " + std::to_string(header->author) +
                          " authored " + std::to_string(mine.size()) +
                          " distinct headers for round " + std::to_string(header->round));
          }
        }
      }
    });

    // Per-commit evaluation, the same for every system.
    auto on_committed = [&, v](const Digest& digest,
                               const std::shared_ptr<const BlockHeader>& header) {
      // (7) re-delivery: the committed sets recovered from the store must
      // make delivery exactly-once across the crash. (Checker-side state
      // survives the rebuild, so a pre-crash delivery is still recorded
      // here.)
      if (!committed_set[v].insert(digest).second) {
        violation("restart-consistency",
                  "validator " + std::to_string(v) + " re-delivered commit " +
                      DigestPrefix(digest) + " after restart");
        return;
      }
      size_t i = commit_seq[v].size();
      commit_seq[v].push_back(digest);
      last_commit[v] = scheduler.now();
      if (i < global_seq.size()) {
        if (global_seq[i] != digest) {
          violation("prefix-consistency",
                    "validator " + std::to_string(v) + " commit #" + std::to_string(i) +
                        " is " + DigestPrefix(digest) + ", another validator committed " +
                        DigestPrefix(global_seq[i]));
        }
      } else {
        global_seq.push_back(digest);
        global_headers.push_back(header);
      }
      // (3) causal completeness at commit time, in the committing
      // validator's own view.
      const Dag& local = cluster.primary(v)->dag();
      if (!local.HasHeader(digest)) {
        violation("causal-completeness", "validator " + std::to_string(v) +
                                             " committed header " + DigestPrefix(digest) +
                                             " without storing it");
      }
      for (const Certificate& parent : header->parents) {
        if (parent.round >= local.gc_round() && !local.HasHeader(parent.header_digest)) {
          violation("causal-completeness",
                    "validator " + std::to_string(v) + " committed " + DigestPrefix(digest) +
                        " with missing parent " + DigestPrefix(parent.header_digest));
        }
      }
    };
    cluster.commit_log(v)->add_on_commit(
        [on_committed](const CommitLog::Committed& c) { on_committed(c.digest, c.header); });
  };
  for (ValidatorId v = 0; v < n; ++v) {
    wire_validator(v);
  }
  cluster.set_on_validator_rebuilt(wire_validator);

  // The executors survive rebuilds, so their hooks are added once, after
  // the cluster's own metrics hook.
  for (ValidatorId v = 0; v < n; ++v) {
    ShardedExecutor* executor = cluster.sharded_executor(v);
    executor->add_on_executed([&, v, executor](const Digest& header_digest,
                                               const std::vector<Digest>& lanes) {
      size_t i = exec_len[v]++;
      if (i < exec_global.size()) {
        if (exec_global[i].first != header_digest || exec_global[i].second != lanes) {
          violation("exec-agreement",
                    "validator " + std::to_string(v) + " diverges at executed header #" +
                        std::to_string(i) + " (header " + DigestPrefix(header_digest) +
                        ", lane 0 state " + DigestPrefix(lanes[0]) + ")");
        }
      } else {
        exec_global.emplace_back(header_digest, lanes);
      }
      // (8) conservation-of-balance across lanes, at every commit boundary:
      // honest execution can move supply between lanes but never create it.
      if (executor->total_balance() != executor->minted_total()) {
        violation("shard-conservation",
                  "validator " + std::to_string(v) + " holds " +
                      std::to_string(executor->total_balance()) + " tokens across " +
                      std::to_string(num_lanes) + " lane(s) with only " +
                      std::to_string(executor->minted_total()) + " minted, at executed header #" +
                      std::to_string(i));
      }
    });
  }

  // --- fault script ---------------------------------------------------------
  for (const FaultSchedule::Crash& c : schedule.crashes) {
    if (c.recovers() && cluster.SupportsRestart()) {
      cluster.RestartValidator(c.validator, c.at, c.recover_at);
    } else {
      cluster.CrashValidator(c.validator, c.at);
    }
  }
  for (const FaultSchedule::Partition& p : schedule.partitions) {
    cluster.IsolateValidator(p.validator, p.start, p.end);
  }
  for (const FaultSchedule::Async& a : schedule.asyncs) {
    cluster.faults().AddAsynchronyWindow(a.start, a.end, a.factor);
  }
  for (const FaultSchedule::Equivocate& e : schedule.equivocators) {
    cluster.faults().MarkEquivocator(e.validator, e.at);
  }
  if (schedule.loss_rate > 0) {
    cluster.faults().SetLossRate(schedule.loss_rate);
  }

  // --- workload -------------------------------------------------------------
  // Explicit ExecTx payloads so execution agreement checks real state: one
  // mint per (validator, lane) account up front, then round-robin unit
  // transfers. With one lane the account book collapses to the historical
  // Account(v) names and the stream is byte-identical to the pre-sharding
  // workload — golden event hashes stay frozen. With more lanes, per-lane
  // accounts are mined onto their lane and every third transfer crosses to
  // the next lane (a deterministic ~33% cross-shard mix).
  std::vector<std::vector<std::string>> lane_accounts(n);
  for (ValidatorId v = 0; v < n; ++v) {
    if (num_lanes == 1) {
      lane_accounts[v].push_back(Account(v));
    } else {
      for (ShardId s = 0; s < num_lanes; ++s) {
        lane_accounts[v].push_back(ShardRouter::MineAccount(Account(v), s, num_lanes));
      }
    }
  }
  for (ValidatorId v = 0; v < n; ++v) {
    std::vector<Bytes> mints;
    for (const std::string& account : lane_accounts[v]) {
      mints.push_back(ExecTx::Mint(account, 1000000).Encode());
    }
    // ntlint:allow(deferred-capture): cluster outlives the callbacks — RunUntil below drains the scheduler inside this stack frame
    scheduler.ScheduleAt(Millis(10), [&cluster, v, mints] {
      cluster.worker(v, 0)->SubmitBlock(mints);
    });
  }
  uint64_t k = 0;
  for (TimePoint t = Millis(100); t < schedule.duration; t += schedule.tx_interval, ++k) {
    ValidatorId src = static_cast<ValidatorId>(k % n);
    ValidatorId dst = static_cast<ValidatorId>((k + 1) % n);
    ShardId lane_a = static_cast<ShardId>(k % num_lanes);
    ShardId lane_b = (k % 3 == 2) ? static_cast<ShardId>((lane_a + 1) % num_lanes) : lane_a;
    Bytes payload =
        ExecTx::Transfer(lane_accounts[src][lane_a], lane_accounts[dst][lane_b], 1).Encode();
    // ntlint:allow(deferred-capture): cluster outlives the callbacks — RunUntil below drains the scheduler inside this stack frame
    scheduler.ScheduleAt(t, [&cluster, src, payload] {
      cluster.worker(src, 0)->SubmitBlock({payload});
    });
  }
  // Committed headers can execute before their batch data syncs; retry the
  // executors periodically so deferred headers drain within the run.
  for (TimePoint t = Millis(500); t < schedule.duration; t += Millis(500)) {
    // ntlint:allow(deferred-capture): cluster outlives the callbacks — RunUntil below drains the scheduler inside this stack frame
    scheduler.ScheduleAt(t, [&cluster, n] {
      for (ValidatorId v = 0; v < n; ++v) {
        cluster.sharded_executor(v)->RetryPending();
      }
    });
  }

  cluster.Start();
  scheduler.RunUntil(schedule.duration);

  // --- end-of-run invariants ------------------------------------------------

  // (4) oracle agreement (Tusk and Bullshark): pure replay of the commit
  // rule over the union DAG; every correct validator's live sequence must be
  // a prefix of the reference sequence.
  if (schedule.system == SystemKind::kTusk || schedule.system == SystemKind::kBullshark) {
    std::vector<Digest> reference;
    bool reference_complete = true;
    if (schedule.system == SystemKind::kTusk) {
      CommonCoin coin(schedule.seed);
      TuskReplay replay =
          ReplayTusk(union_dag, cluster.committee(), coin, config.narwhal.gc_depth);
      reference = std::move(replay.ordered);
      reference_complete = replay.complete;
    } else {
      BullsharkReplay replay = ReplayBullshark(union_dag, cluster.committee(),
                                               config.narwhal.gc_depth, config.bullshark);
      reference = std::move(replay.ordered);
      reference_complete = replay.complete;
    }
    for (ValidatorId v = 0; v < n; ++v) {
      if (!schedule.IsCorrect(v)) {
        continue;
      }
      size_t common = std::min(commit_seq[v].size(), reference.size());
      for (size_t i = 0; i < common; ++i) {
        if (commit_seq[v][i] != reference[i]) {
          violation("oracle-agreement",
                    "validator " + std::to_string(v) + " commit #" + std::to_string(i) +
                        " is " + DigestPrefix(commit_seq[v][i]) + ", reference replay has " +
                        DigestPrefix(reference[i]));
          break;
        }
      }
      if (reference_complete && commit_seq[v].size() > reference.size()) {
        violation("oracle-agreement",
                  "validator " + std::to_string(v) + " committed " +
                      std::to_string(commit_seq[v].size()) +
                      " headers, reference replay only " + std::to_string(reference.size()));
      }
    }
  }

  // (8) shard oracle: pure replay of the sharded execution semantics over the
  // globally committed header sequence, resolving batch data from any
  // validator's worker store. Every live executor's per-lane digest sequence
  // (already cross-checked for agreement above) must be a prefix of the
  // reference — a live path that skips locks, misroutes keys, or reorders the
  // commit boundary diverges here even when every validator computes the same
  // wrong answer.
  {
    auto resolve = [&cluster, n](const BatchRef& ref) -> std::shared_ptr<const Batch> {
      for (ValidatorId v = 0; v < n; ++v) {
        if (Worker* w = cluster.worker(v, ref.worker)) {
          if (auto batch = w->GetBatch(ref.digest)) {
            return batch;
          }
        }
      }
      return nullptr;
    };
    ShardReplay replay = ReplayShards(global_headers, num_lanes, resolve);
    size_t common = std::min(exec_global.size(), replay.lanes_after.size());
    for (size_t i = 0; i < common; ++i) {
      if (exec_global[i].second != replay.lanes_after[i]) {
        violation("shard-oracle", "live lane digests diverge from ReplayShards at executed "
                                  "header #" +
                                      std::to_string(i) + " (header " +
                                      DigestPrefix(exec_global[i].first) + ")");
        break;
      }
    }
    if (replay.complete && exec_global.size() > replay.lanes_after.size()) {
      violation("shard-oracle",
                "live executors executed " + std::to_string(exec_global.size()) +
                    " headers, ReplayShards only " + std::to_string(replay.lanes_after.size()));
    }
  }

  // (6) liveness: every correct validator commits within the slack window.
  TimePoint gst = schedule.Gst();
  const TimeDelta slack = schedule.Stressed() ? kStressedLivenessSlack : kLivenessSlack;
  if (schedule.duration >= gst + slack + Seconds(2)) {
    for (ValidatorId v = 0; v < n; ++v) {
      if (!schedule.IsCorrect(v)) {
        continue;
      }
      std::string at_round = " (mempool round " + std::to_string(cluster.primary(v)->round()) +
                             ", headers syncing " +
                             std::to_string(cluster.primary(v)->headers_syncing());
      if (const DagCommitter* committer = cluster.committer(v)) {
        at_round += ", committed wave " + std::to_string(committer->last_committed_wave()) +
                    ", skipped leaders " + std::to_string(committer->skipped_leaders());
      }
      if (const HotStuff* hs = cluster.hotstuff(v)) {
        at_round += ", hs view " + std::to_string(hs->current_view()) + ", hs commits " +
                    std::to_string(hs->committed_blocks()) + ", high qc view " +
                    std::to_string(hs->high_qc_view()) + ", locked view " +
                    std::to_string(hs->locked_view()) + ", last voted view " +
                    std::to_string(hs->last_voted_view()) + ", deferred proposals " +
                    std::to_string(hs->deferred_proposals()) + " (payload pending " +
                    std::to_string(hs->payload_pending_proposals()) + "), blocks fetching " +
                    std::to_string(hs->blocks_fetching());
        if (auto* np = dynamic_cast<NarwhalProvider*>(cluster.provider(v))) {
          at_round += ", anchors pending " + std::to_string(np->pending_anchor_count());
        }
      }
      at_round += ")";
      if (last_commit[v] <= gst) {
        violation("liveness", "validator " + std::to_string(v) +
                                  " never committed after GST (last commit at " +
                                  std::to_string(last_commit[v]) + " us, GST " +
                                  std::to_string(gst) + " us)" + at_round);
      } else if (last_commit[v] < schedule.duration - slack) {
        violation("liveness", "validator " + std::to_string(v) + " stalled: last commit at " +
                                  std::to_string(last_commit[v]) + " us of " +
                                  std::to_string(schedule.duration) + " us" + at_round);
      }
    }
  }

  result.event_hash = scheduler.event_hash();
  result.events_fired = scheduler.events_fired();
  result.shard_state_hash = FoldShardState(exec_global);
  for (ValidatorId v = 0; v < n; ++v) {
    result.commits = std::max<uint64_t>(result.commits, commit_seq[v].size());
  }
  return result;
}

CheckResult RunScheduleWithDeterminismCheck(const FaultSchedule& schedule) {
  CheckResult first = RunSchedule(schedule);
  CheckResult second = RunSchedule(schedule);
  if (first.event_hash != second.event_hash || first.events_fired != second.events_fired) {
    first.violations.push_back(
        {"determinism", "two runs of seed " + std::to_string(schedule.seed) +
                            " diverged: event hash " + std::to_string(first.event_hash) +
                            " (" + std::to_string(first.events_fired) + " events) vs " +
                            std::to_string(second.event_hash) + " (" +
                            std::to_string(second.events_fired) + " events)"});
  } else if (first.shard_state_hash != second.shard_state_hash) {
    first.violations.push_back(
        {"determinism", "two runs of seed " + std::to_string(schedule.seed) +
                            " diverged in per-shard state: " +
                            std::to_string(first.shard_state_hash) + " vs " +
                            std::to_string(second.shard_state_hash)});
  } else if (first.Summary() != second.Summary()) {
    first.violations.push_back({"determinism", "two runs of seed " +
                                                   std::to_string(schedule.seed) +
                                                   " returned different verdicts"});
  }
  return first;
}

}  // namespace nt
