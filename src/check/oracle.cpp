#include "src/check/oracle.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "src/exec/state_machine.h"
#include "src/shard/router.h"
#include "src/tusk/dag_rider.h"
#include "src/tusk/tusk.h"

namespace nt {

namespace {

// What one DAG commit rule fixes; ReplayCommits is the rest. The wave
// arithmetic is the live committers' own static functions.
struct Rule {
  Round (*leader_round)(uint64_t wave);
  Round (*support_round)(uint64_t wave);
  Round (*decision_round)(uint64_t wave);
  // Coin-elected leaders, revealed once the decision round holds a quorum
  // (Tusk, DAG-Rider). Otherwise the AnchorSchedule names the leader with no
  // gate, and each commit event settles its waves into the schedule
  // (Bullshark).
  bool coin_elected = true;
  // 2f+1 support-round blocks with a path to the leader (DAG-Rider), instead
  // of f+1 that reference it as a direct parent.
  bool path_support = false;
  // DAG-Rider retains all history (weak links), so its horizon never moves.
  bool collects_garbage = true;
};

Rule RuleOf(SystemKind system) {
  switch (system) {
    case SystemKind::kTusk:
      return {&Tusk::WaveFirstRound, &Tusk::WaveSecondRound, &Tusk::WaveThirdRound};
    case SystemKind::kBullshark:
      return {&Bullshark::WaveAnchorRound, &Bullshark::WaveSupportRound,
              &Bullshark::WaveSupportRound, /*coin_elected=*/false};
    case SystemKind::kDagRider:
      return {&DagRider::WaveFirstRound, &DagRider::WaveLastRound, &DagRider::WaveLastRound,
              /*coin_elected=*/true, /*path_support=*/true, /*collects_garbage=*/false};
    case SystemKind::kBaselineHs:
    case SystemKind::kBatchedHs:
    case SystemKind::kNarwhalHs:
      break;
  }
  std::abort();  // HotStuff orders these systems; there is no DAG rule to replay.
}

// The leader's support on the reference DAG, counted by walking headers —
// independent of the live committers' citer index and of the seeded-mutation
// weakenings (the whole point of the oracle is that it stays honest when the
// live path is broken).
bool Supported(const Dag& dag, const Rule& rule, uint64_t wave, const Certificate& leader,
               const Committee& committee) {
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag.CertsAt(rule.support_round(wave))) {
    if (rule.path_support) {
      votes += dag.HasPath(cert->header_digest, leader.header_digest) ? 1 : 0;
      continue;
    }
    auto header = dag.GetHeader(cert->header_digest);
    if (header == nullptr) {
      continue;
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == leader.header_digest) {
        ++votes;
        break;
      }
    }
  }
  return votes >= (rule.path_support ? committee.quorum_threshold()
                                     : committee.validity_threshold());
}

}  // namespace

CommitReplay ReplayCommits(Dag dag, SystemKind system, const Committee& committee,
                           const ThresholdCoin& coin, Round gc_depth,
                           const BullsharkConfig& bullshark) {
  const Rule rule = RuleOf(system);
  AnchorSchedule schedule(committee.size(), bullshark);
  auto leader_of = [&](uint64_t wave) {
    return rule.coin_elected ? coin.LeaderOf(wave, committee.size()) : schedule.AuthorOf(wave);
  };
  auto leader_cert = [&](uint64_t wave) {
    return dag.GetCert(rule.leader_round(wave), leader_of(wave));
  };

  CommitReplay out;
  DigestSet committed;
  std::map<Round, std::vector<Digest>> committed_by_round;
  uint64_t last_committed_wave = 0;
  const Round top = dag.HighestRound();
  for (uint64_t wave = 1; rule.decision_round(wave) <= top; ++wave) {
    if (rule.coin_elected &&
        dag.CertCountAt(rule.decision_round(wave)) < committee.quorum_threshold()) {
      break;  // The coin for this wave never revealed anywhere.
    }
    const Certificate* leader = leader_cert(wave);
    if (leader == nullptr || committed.contains(leader->header_digest)) {
      continue;
    }
    if (!Supported(dag, rule, wave, *leader, committee)) {
      continue;  // A later leader may order this one by path.
    }

    // Chain back through skipped waves by DAG reachability, exactly as the
    // live committer does — with the same pre-event schedule state for every
    // leader lookup belonging to this commit event.
    std::vector<const Certificate*> chain{leader};
    const Certificate* candidate = leader;
    for (uint64_t i = wave - 1; i > last_committed_wave && i > 0; --i) {
      const Certificate* li = leader_cert(i);
      if (li == nullptr || committed.contains(li->header_digest)) {
        continue;
      }
      if (dag.HasPath(candidate->header_digest, li->header_digest)) {
        chain.push_back(li);
        candidate = li;
      }
    }
    std::reverse(chain.begin(), chain.end());

    for (const Certificate* lead : chain) {
      Dag::History history = dag.CollectCausalHistory(lead->header_digest, committed);
      if (!history.missing.empty()) {
        out.complete = false;
        return out;  // Under-observed union DAG; nothing sound to say beyond here.
      }
      for (const Digest& digest : history.ordered) {
        committed.insert(digest);
        committed_by_round[dag.GetHeader(digest)->round].push_back(digest);
        out.ordered.push_back(digest);
      }
    }

    // Settle wave outcomes into the schedule's fold — authors resolved with
    // the pre-event state first, mirroring Bullshark::SettleWaves.
    if (!rule.coin_elected) {
      std::vector<ValidatorId> authors;
      for (uint64_t i = last_committed_wave + 1; i <= wave; ++i) {
        authors.push_back(schedule.AuthorOf(i));
      }
      for (uint64_t i = last_committed_wave + 1; i <= wave; ++i) {
        ValidatorId author = authors[static_cast<size_t>(i - last_committed_wave - 1)];
        const Certificate* cert = dag.GetCert(rule.leader_round(i), author);
        bool ordered = cert != nullptr && committed.contains(cert->header_digest);
        schedule.RecordOutcome(i, author, ordered);
      }
    }
    last_committed_wave = wave;

    // Mirror the live GC horizon so linearization never reaches below what
    // live validators keep (CollectCausalHistory stops at dag.gc_round()).
    Round leader_round = rule.leader_round(wave);
    if (rule.collects_garbage && leader_round > gc_depth) {
      Round gc_round = leader_round - gc_depth;
      dag.GarbageCollect(gc_round);
      for (auto it = committed_by_round.begin();
           it != committed_by_round.end() && it->first < gc_round;) {
        for (const Digest& d : it->second) {
          committed.erase(d);
        }
        it = committed_by_round.erase(it);
      }
    }
  }
  return out;
}

ShardReplay ReplayShards(
    const std::vector<std::shared_ptr<const BlockHeader>>& ordered, uint32_t num_lanes,
    const std::function<std::shared_ptr<const Batch>(const BatchRef&)>& resolve) {
  ShardReplay out;
  ShardRouter router(num_lanes);
  std::vector<KvStateMachine> lanes(router.num_shards());
  for (const std::shared_ptr<const BlockHeader>& header : ordered) {
    // Resolve every batch before touching any lane, mirroring the live
    // executor's all-or-nothing rule.
    std::vector<std::shared_ptr<const Batch>> batches;
    batches.reserve(header->batches.size());
    for (const BatchRef& ref : header->batches) {
      std::shared_ptr<const Batch> batch = resolve(ref);
      if (batch == nullptr) {
        out.complete = false;
        break;
      }
      batches.push_back(std::move(batch));
    }
    if (!out.complete) {
      break;
    }
    // Single-shard fast path in encounter order, cross-shard transfers
    // deferred to the commit boundary — the honest semantics, re-stated
    // independently of ShardedExecutor (and of the seeded mutations).
    std::vector<std::pair<Batch::TxView, ExecTx::View>> cross;
    for (const auto& batch : batches) {
      for (const Batch::TxView wire : batch->txs()) {
        std::optional<ExecTx::View> tx = ExecTx::Decode(wire);
        if (!tx.has_value()) {
          lanes[0].Apply(wire);
          continue;
        }
        if (tx->op == ExecTx::Op::kTransfer) {
          ShardId src = router.Of(tx->key);
          ShardId dst = router.Of(tx->key2);
          if (src != dst) {
            cross.emplace_back(wire, *tx);
            continue;
          }
          lanes[src].Apply(wire, *tx);
          continue;
        }
        lanes[router.Of(tx->key)].Apply(wire, *tx);
      }
    }
    for (const auto& [wire, tx] : cross) {
      ShardId src = router.Of(tx.key);
      ShardId dst = router.Of(tx.key2);
      if (lanes[src].LockDebit(wire, tx) == ExecStatus::kApplied) {
        lanes[dst].ApplyCredit(wire, tx);
      }
    }
    std::vector<Digest> after;
    after.reserve(lanes.size());
    for (const KvStateMachine& lane : lanes) {
      after.push_back(lane.state_digest());
    }
    out.lanes_after.push_back(std::move(after));
  }
  for (const KvStateMachine& lane : lanes) {
    out.minted += lane.minted();
    out.total_balance += lane.total_balance();
  }
  return out;
}

}  // namespace nt
