#include "src/check/oracle.h"

#include <algorithm>
#include <utility>

#include "src/exec/state_machine.h"
#include "src/shard/router.h"
#include "src/tusk/tusk.h"

namespace nt {

namespace {

// The paper's §5 commit rule: leader's round-2w support count, evaluated on
// the reference DAG. Identical to Tusk::CommitRuleSatisfied but independent
// of the live implementation (and of the seeded_bugs weakenings — the whole
// point of the oracle is that it stays honest when the live path is broken).
bool SupportSatisfied(const Dag& dag, uint64_t wave, const Certificate& leader,
                      const Committee& committee) {
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag.CertsAt(Tusk::WaveSecondRound(wave))) {
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
  return votes >= committee.validity_threshold();
}

}  // namespace

TuskReplay ReplayTusk(Dag dag, const Committee& committee, const ThresholdCoin& coin,
                      Round gc_depth) {
  TuskReplay out;
  DigestSet committed;
  std::map<Round, std::vector<Digest>> committed_by_round;
  uint64_t last_committed_wave = 0;

  Round top = dag.HighestRound();
  if (top < 3) {
    return out;
  }
  uint64_t max_wave = (top - 1) / 2;
  for (uint64_t wave = last_committed_wave + 1; wave <= max_wave; ++wave) {
    if (dag.CertCountAt(Tusk::WaveThirdRound(wave)) < committee.quorum_threshold()) {
      break;  // The coin for this wave never revealed anywhere.
    }
    ValidatorId leader_id = coin.LeaderOf(wave, committee.size());
    const Certificate* leader = dag.GetCert(Tusk::WaveFirstRound(wave), leader_id);
    if (leader == nullptr || committed.contains(leader->header_digest)) {
      continue;
    }
    if (!SupportSatisfied(dag, wave, *leader, committee)) {
      continue;
    }

    // Chain back through skipped waves by DAG reachability, exactly as the
    // live committer does.
    std::vector<const Certificate*> chain{leader};
    const Certificate* candidate = leader;
    for (uint64_t i = wave - 1; i > last_committed_wave && i > 0; --i) {
      const Certificate* li = dag.GetCert(Tusk::WaveFirstRound(i),
                                          coin.LeaderOf(i, committee.size()));
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
    last_committed_wave = wave;

    // Mirror the live GC horizon so linearization never reaches below what
    // live validators keep (CollectCausalHistory stops at dag.gc_round()).
    Round leader_round = Tusk::WaveFirstRound(wave);
    if (leader_round > gc_depth) {
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

namespace {

// Bullshark's commit rule: anchor's round-2w support count on the reference
// DAG. Identical to Bullshark::CommitRuleSatisfied, minus the seeded-bug
// weakening (the oracle stays honest when the live path is broken).
bool AnchorSupportSatisfied(const Dag& dag, uint64_t wave, const Certificate& anchor,
                            const Committee& committee) {
  uint32_t votes = 0;
  for (const auto& [author, cert] : dag.CertsAt(Bullshark::WaveSupportRound(wave))) {
    auto header = dag.GetHeader(cert->header_digest);
    if (header == nullptr) {
      continue;
    }
    for (const Certificate& parent : header->parents) {
      if (parent.header_digest == anchor.header_digest) {
        ++votes;
        break;
      }
    }
  }
  return votes >= committee.validity_threshold();
}

}  // namespace

BullsharkReplay ReplayBullshark(Dag dag, const Committee& committee, Round gc_depth,
                                BullsharkConfig config) {
  BullsharkReplay out;
  DigestSet committed;
  std::map<Round, std::vector<Digest>> committed_by_round;
  AnchorSchedule schedule(committee.size(), config);
  uint64_t last_committed_wave = 0;

  Round top = dag.HighestRound();
  if (top < 2) {
    return out;
  }
  uint64_t max_wave = top / 2;
  for (uint64_t wave = last_committed_wave + 1; wave <= max_wave; ++wave) {
    const Certificate* anchor =
        dag.GetCert(Bullshark::WaveAnchorRound(wave), schedule.AuthorOf(wave));
    if (anchor == nullptr || committed.contains(anchor->header_digest)) {
      continue;
    }
    if (!AnchorSupportSatisfied(dag, wave, *anchor, committee)) {
      continue;  // No third-round gate: a later anchor orders this by path.
    }

    // Chain back through skipped waves by DAG reachability, exactly as the
    // live committer does — with the same pre-event schedule state for every
    // author lookup belonging to this commit event.
    std::vector<const Certificate*> chain{anchor};
    const Certificate* candidate = anchor;
    for (uint64_t i = wave - 1; i > last_committed_wave && i > 0; --i) {
      const Certificate* ai =
          dag.GetCert(Bullshark::WaveAnchorRound(i), schedule.AuthorOf(i));
      if (ai == nullptr || committed.contains(ai->header_digest)) {
        continue;
      }
      if (dag.HasPath(candidate->header_digest, ai->header_digest)) {
        chain.push_back(ai);
        candidate = ai;
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

    // Settle wave outcomes into the reputation fold — authors resolved with
    // the pre-event state first, mirroring Bullshark::SettleOutcomes.
    {
      std::vector<ValidatorId> authors;
      for (uint64_t i = last_committed_wave + 1; i <= wave; ++i) {
        authors.push_back(schedule.AuthorOf(i));
      }
      for (uint64_t i = last_committed_wave + 1; i <= wave; ++i) {
        ValidatorId author = authors[static_cast<size_t>(i - last_committed_wave - 1)];
        const Certificate* cert = dag.GetCert(Bullshark::WaveAnchorRound(i), author);
        bool ordered = cert != nullptr && committed.contains(cert->header_digest);
        schedule.RecordOutcome(i, author, ordered);
      }
    }
    last_committed_wave = wave;

    // Mirror the live GC horizon so linearization never reaches below what
    // live validators keep (CollectCausalHistory stops at dag.gc_round()).
    Round anchor_round = Bullshark::WaveAnchorRound(wave);
    if (anchor_round > gc_depth) {
      Round gc_round = anchor_round - gc_depth;
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
    // independently of ShardedExecutor (and of seeded_bugs).
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
