// Focused behaviors of the Narwhal primary/worker machinery on live
// clusters: round pacing, batch quorum acknowledgment, header validity
// gating on batch availability, re-injection after GC, and scale-out wiring.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>

#include "src/exec/state_machine.h"
#include "src/hotstuff/payload.h"
#include "src/net/latency.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/shard/sharded_executor.h"

namespace nt {
namespace {

ClusterConfig BaseConfig(uint64_t seed, uint32_t n = 4) {
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = n;
  config.seed = seed;
  return config;
}

TEST(NarwhalCoreTest, DagAdvancesWithoutLoad) {
  // The threshold clock keeps ticking on empty headers (max_header_delay).
  Cluster cluster(BaseConfig(1));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_GT(cluster.primary(v)->round(), 10u) << "validator " << v;
    EXPECT_GT(cluster.primary(v)->certs_formed(), 10u);
  }
}

TEST(NarwhalCoreTest, RoundRateLimitedByHeaderDelay) {
  // Rounds advance no faster than the WAN RTT allows and no slower than
  // max_header_delay + RTT; 10 seconds of idle run lands in between.
  ClusterConfig config = BaseConfig(2);
  config.narwhal.max_header_delay = Millis(500);
  Cluster cluster(config);
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(10));
  Round r = cluster.primary(0)->round();
  EXPECT_GE(r, 8u);    // At least ~1 round per (500ms + RTT).
  EXPECT_LE(r, 25u);   // But paced by the delay, not free-running.
}

TEST(NarwhalCoreTest, WorkerSealsBySizeAndTimer) {
  ClusterConfig config = BaseConfig(3);
  config.narwhal.batch_size_bytes = 10 * 1024;
  config.narwhal.max_batch_delay = Millis(50);
  Cluster cluster(config);
  cluster.Start();

  // Size-triggered seal: 30KB submitted at once -> >= 2 batches quickly.
  Worker* worker = cluster.worker(0, 0);
  for (int i = 0; i < 30; ++i) {
    worker->SubmitTransaction(1024, std::nullopt);
  }
  cluster.scheduler().RunUntil(Millis(10));
  EXPECT_GE(worker->batches_sealed(), 3u);

  // Timer-triggered seal: a lone small transaction still ships.
  uint64_t before = worker->batches_sealed();
  worker->SubmitTransaction(100, std::nullopt);
  cluster.scheduler().RunUntil(Millis(10) + Millis(49));
  EXPECT_EQ(worker->batches_sealed(), before);  // Not yet.
  cluster.scheduler().RunUntil(Millis(10) + Millis(70));
  EXPECT_EQ(worker->batches_sealed(), before + 1);

  // Batched-HS seals through the same BatchMaker: fed one submission stream,
  // a worker and a BatchedProvider seal the same batches at the same instants.
  Scheduler scheduler;
  FixedLatencyModel latency(Millis(1));
  FaultController faults;
  Network network(&scheduler, &latency, &faults, NetworkConfig{}, /*seed=*/1);
  const Committee committee(std::vector<ValidatorInfo>(1));
  Topology topology;
  topology.primary_of = {0};
  topology.worker_of = {{1}};
  MemStore store;
  BatchDirectory worker_directory;
  BatchDirectory provider_directory;
  Worker lone(0, 0, committee, config.narwhal, &network, &topology, &store, &worker_directory);
  BatchedProvider provider(&scheduler, 0, config.narwhal.batch_size_bytes,
                           config.narwhal.max_batch_delay, /*max_digests=*/100,
                           &provider_directory);
  provider.BindNetwork(&network, /*own_net_id=*/2, {});

  struct Submission {
    TimePoint at;
    int count;
    uint64_t bytes;
    std::optional<TxSample> sample;  // On the first transaction of the group.
  };
  const std::vector<Submission> stream = {
      {0, 3, 1024, TxSample{1, 0}},            // 10 KB by the 10th: sealed by size at 0,
      {0, 9, 1024, TxSample{2, 0}},            // the last 2 by delay at 50.
      {Millis(60), 1, 100, TxSample{3, Millis(60)}},
      {Millis(70), 3, 1024, std::nullopt},     // Joins the pending batch: delay at 110.
      {Millis(130), 11, 1024, TxSample{4, Millis(130)}},  // Size at 130, delay at 180.
  };
  std::vector<std::pair<TimePoint, size_t>> worker_seals;
  std::vector<std::pair<TimePoint, size_t>> provider_seals;
  for (TimePoint t = 0; t <= Millis(250); t += Millis(1)) {
    scheduler.RunUntil(t);
    for (const Submission& s : stream) {
      for (int i = 0; s.at == t && i < s.count; ++i) {
        const std::optional<TxSample> sample = i == 0 ? s.sample : std::nullopt;
        lone.SubmitTransaction(s.bytes, sample);
        provider.Submit(1, s.bytes,
                        sample.has_value() ? std::vector<TxSample>{*sample}
                                           : std::vector<TxSample>{});
      }
    }
    if (worker_seals.empty() || worker_seals.back().second != worker_directory.size()) {
      worker_seals.emplace_back(t, worker_directory.size());
    }
    if (provider_seals.empty() || provider_seals.back().second != provider_directory.size()) {
      provider_seals.emplace_back(t, provider_directory.size());
    }
  }
  const std::vector<std::pair<TimePoint, size_t>> expected = {
      {0, 1}, {Millis(50), 2}, {Millis(110), 3}, {Millis(130), 4}, {Millis(180), 5}};
  EXPECT_EQ(worker_seals, expected);
  EXPECT_EQ(provider_seals, expected);

  // Same author, worker and sequence numbers: the batches are byte-identical,
  // so both directories hold the same digests with the same metadata.
  const HsPayload proposed = provider.GetPayload(1);
  ASSERT_EQ(proposed.batch_digests.size(), expected.size());
  for (const Digest& d : proposed.batch_digests) {
    EXPECT_NE(lone.GetBatch(d), nullptr);
    const BatchDirectory::Info* w = worker_directory.Find(d);
    const BatchDirectory::Info* p = provider_directory.Find(d);
    ASSERT_NE(w, nullptr);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(w->author, p->author);
    EXPECT_EQ(w->num_txs, p->num_txs);
    EXPECT_EQ(w->payload_bytes, p->payload_bytes);
    ASSERT_EQ(w->samples.size(), p->samples.size());
    for (size_t i = 0; i < w->samples.size(); ++i) {
      EXPECT_EQ(w->samples[i].tx_id, p->samples[i].tx_id);
      EXPECT_EQ(w->samples[i].submit_time, p->samples[i].submit_time);
    }
  }
  const BatchDirectory::Info* first = worker_directory.Find(proposed.batch_digests[0]);
  EXPECT_EQ(first->num_txs, 10u);
  EXPECT_EQ(first->payload_bytes, 10u * 1024);
  EXPECT_EQ(first->samples.size(), 2u);
}

TEST(NarwhalCoreTest, BatchesReachQuorumAndPrimary) {
  Cluster cluster(BaseConfig(4));
  cluster.Start();
  Worker* worker = cluster.worker(0, 0);
  worker->SubmitBlock({{1, 2, 3}});
  cluster.scheduler().RunUntil(Seconds(2));
  EXPECT_EQ(worker->batches_acked(), 1u);  // 2f+1 storage acks collected.
  // The batch digest made it into some certified header.
  EXPECT_TRUE(cluster.MempoolOf(0).IsWriteCertified(
      cluster.MempoolOf(0).Write({{9}})) == false);  // Fresh write: not yet.
}

TEST(NarwhalCoreTest, AllValidatorsStoreDisseminatedBatches) {
  Cluster cluster(BaseConfig(5));
  cluster.Start();
  Digest d = cluster.worker(2, 0)->SubmitBlock({{42}});
  cluster.scheduler().RunUntil(Seconds(2));
  for (ValidatorId v = 0; v < 4; ++v) {
    EXPECT_NE(cluster.worker(v, 0)->GetBatch(d), nullptr) << "validator " << v;
  }
}

// The value `store` holds under `key`, as the shared buffer itself.
SharedBytes StoredBuffer(const Store& store, const Digest& key) {
  SharedBytes out;
  store.ForEach([&](const Digest& k, const SharedBytes& value) {
    if (k == key) {
      out = value;
    }
  });
  return out;
}

TEST(NarwhalCoreTest, EveryWorkerStoreSharesTheSealedBuffer) {
  // The simulated disks share one copy of each batch: every validator's
  // worker store holds the sealing worker's buffer, not bytes of its own.
  Cluster cluster(BaseConfig(8));
  std::vector<Digest> committed;
  cluster.commit_log(0)->add_on_commit([&](const CommitLog::Committed& c) {
    for (const BatchRef& ref : c.header->batches) {
      committed.push_back(ref.digest);
    }
  });
  cluster.Start();
  for (ValidatorId v = 0; v < 4; ++v) {
    cluster.worker(v, 0)->SubmitBlock({{static_cast<uint8_t>(v), 1}, {}});
    for (int i = 0; i < 20; ++i) {
      cluster.worker(v, 0)->SubmitTransaction(512, std::nullopt);
    }
  }
  cluster.scheduler().RunUntil(Seconds(5));

  ASSERT_GE(committed.size(), 8u);
  for (const Digest& d : committed) {
    const BatchDirectory::Info* info = cluster.directory().Find(d);
    ASSERT_NE(info, nullptr);
    std::shared_ptr<const Batch> sealed = cluster.worker(info->author, 0)->GetBatch(d);
    ASSERT_NE(sealed, nullptr);
    for (ValidatorId v = 0; v < 4; ++v) {
      EXPECT_EQ(StoredBuffer(*cluster.worker_store(v, 0), d), sealed->bytes())
          << "validator " << v;
    }
  }
}

TEST(NarwhalCoreTest, ValidatorsHoldOneCertificateObjectEach) {
  // A certificate is one object in the process: every DAG entry aliases the
  // message or header that delivered it, and the author's broadcast is one
  // message for all recipients. Fault-free, it reaches each validator before
  // any header citing it, so every validator holds the author's object.
  Cluster cluster(BaseConfig(3));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(5));
  size_t holdings = 0;
  std::map<Digest, std::set<const Certificate*>> objects;
  for (ValidatorId v = 0; v < 4; ++v) {
    const Dag& dag = cluster.primary(v)->dag();
    for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
      for (const auto& [author, cert] : dag.CertsAt(r)) {
        ++holdings;
        objects[cert->header_digest].insert(cert.get());
      }
    }
  }
  ASSERT_GT(objects.size(), 20u);
  EXPECT_GT(holdings, 3 * objects.size());
  for (const auto& [digest, held] : objects) {
    EXPECT_EQ(held.size(), 1u);
  }
}

TEST(NarwhalCoreTest, StoresAndHeadersShareTheCertificateBuffer) {
  // A certificate's bytes exist once in the process: the author seals them,
  // and every validator's DAG entry, 'C' record and header parent holds
  // that one buffer.
  Cluster cluster(BaseConfig(4));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(5));

  // Header digest -> the buffer of the first DAG certificate seen for it.
  std::map<Digest, const Bytes*> buffers;
  auto expect_shared = [&](const Certificate& cert, const char* holder, ValidatorId v) {
    const Bytes* buffer = cert.RecordValue().get();
    auto [it, inserted] = buffers.emplace(cert.header_digest, buffer);
    EXPECT_EQ(it->second, buffer) << holder << " of validator " << v << ", round " << cert.round
                                  << ", author " << cert.author;
  };
  for (ValidatorId v = 0; v < 4; ++v) {
    const Dag& dag = cluster.primary(v)->dag();
    for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
      for (const auto& [author, cert] : dag.CertsAt(r)) {
        expect_shared(*cert, "DAG certificate", v);
      }
    }
  }
  ASSERT_GT(buffers.size(), 20u);

  size_t parents = 0;
  std::set<const Bytes*> stored_buffers;
  std::set<Digest> stored_certs;
  for (ValidatorId v = 0; v < 4; ++v) {
    const Dag& dag = cluster.primary(v)->dag();
    for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
      for (const auto& [author, cert] : dag.CertsAt(r)) {
        if (std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest)) {
          for (const Certificate& parent : header->parents) {
            expect_shared(parent, "header parent", v);
            ++parents;
          }
        }
      }
    }
    cluster.primary_store(v)->ForEach([&](const Digest&, const SharedBytes& value) {
      if (value->empty() || (*value)[0] != CertRecord::kTag) {
        return;
      }
      std::optional<Certificate> cert = Certificate::Decode(value);
      ASSERT_TRUE(cert.has_value());
      expect_shared(*cert, "'C' record", v);
      stored_buffers.insert(value.get());
      stored_certs.insert(cert->header_digest);
    });
  }
  EXPECT_GT(parents, 3 * buffers.size());
  ASSERT_GT(stored_certs.size(), 20u);
  EXPECT_EQ(stored_buffers.size(), stored_certs.size());
}

TEST(NarwhalCoreTest, StoresShareTheHeaderRecordBuffer) {
  // A header's 'H' record exists once in the process: the author seals it
  // when it signs the header, and every validator's store holds that buffer.
  for (uint32_t n : {4u, 7u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Cluster cluster(BaseConfig(6, n));
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(5));

    // Record key (one per header digest) -> the distinct buffers stored under it.
    std::map<Digest, std::set<const Bytes*>> buffers;
    size_t records = 0;
    for (ValidatorId v = 0; v < n; ++v) {
      cluster.primary_store(v)->ForEach([&](const Digest& key, const SharedBytes& value) {
        if (!value->empty() && (*value)[0] == HeaderRecord::kTag) {
          buffers[key].insert(value.get());
          ++records;
        }
      });
    }
    ASSERT_GT(buffers.size(), 5u * n);
    EXPECT_GT(records, 2 * buffers.size()) << "headers are not stored by several validators";
    for (const auto& [key, held] : buffers) {
      EXPECT_EQ(held.size(), 1u) << "distinct 'H' buffers for one header";
    }

    // The buffer is the header's own: each DAG header hands it out as its
    // record value.
    size_t checked = 0;
    for (ValidatorId v = 0; v < n; ++v) {
      const Dag& dag = cluster.primary(v)->dag();
      for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
        for (const auto& [author, cert] : dag.CertsAt(r)) {
          std::shared_ptr<const BlockHeader> header = dag.GetHeader(cert->header_digest);
          auto it = buffers.find(HeaderRecord::KeyOf(cert->header_digest));
          if (header == nullptr || it == buffers.end()) {
            continue;
          }
          EXPECT_EQ(header->RecordValue(cert->header_digest).get(), *it->second.begin());
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, records / 2);
  }
}

// Executes one header per digest, in order, over batches served by `worker`,
// and returns the lane digests.
std::vector<Digest> ExecuteFrom(const Worker& worker, const std::vector<Digest>& digests) {
  ShardedExecutor executor(/*num_lanes=*/2, [&worker](const BatchRef& ref) {
    return worker.GetBatch(ref.digest);
  });
  Round round = 1;
  for (const Digest& d : digests) {
    auto header = std::make_shared<BlockHeader>();
    header->round = round++;
    BatchRef ref;
    ref.digest = d;
    header->batches.push_back(ref);
    executor.OnCommittedHeader(header);
  }
  EXPECT_EQ(executor.executed_headers(), digests.size());
  EXPECT_GT(executor.applied_txs(), 0u);
  return executor.LaneDigests();
}

TEST(NarwhalCoreTest, RecoveredBatchesExecuteLikeTheSealedOnes) {
  // A stored batch outlives every Batch object: seal and store some blocks,
  // drop the worker and with it every reference but the store's, then a
  // fresh worker recovers batches that execute to the same lane digests.
  Scheduler scheduler;
  FixedLatencyModel latency(Millis(1));
  FaultController faults;
  Network network(&scheduler, &latency, &faults, NetworkConfig{}, /*seed=*/1);
  const Committee committee(std::vector<ValidatorInfo>(1));
  Topology topology;
  topology.primary_of = {0};
  topology.worker_of = {{1}};
  MemStore store;
  BatchDirectory directory;
  auto make_worker = [&] {
    return std::make_unique<Worker>(0, 0, committee, NarwhalConfig{}, &network, &topology,
                                    &store, &directory);
  };

  const std::vector<std::vector<Bytes>> blocks = {
      {ExecTx::Mint("a", 100).Encode(), ExecTx::Mint("b", 50).Encode()},
      {ExecTx::Transfer("a", "b", 30).Encode(), Bytes{}, ExecTx::Put("k", {7}).Encode()},
      {ExecTx::Transfer("b", "c", 60).Encode(), Bytes{9, 9, 9},
       ExecTx::Transfer("c", "a", 100).Encode()},
  };
  std::vector<Digest> digests;
  std::vector<Digest> lanes;
  {
    std::unique_ptr<Worker> worker = make_worker();
    for (const std::vector<Bytes>& block : blocks) {
      digests.push_back(worker->SubmitBlock(block));
    }
    lanes = ExecuteFrom(*worker, digests);
  }
  ASSERT_EQ(store.size(), blocks.size());
  store.ForEach([](const Digest&, const SharedBytes& value) {
    EXPECT_EQ(value.use_count(), 1) << "the store holds the only reference";
  });

  std::unique_ptr<Worker> recovered = make_worker();
  recovered->Recover();
  EXPECT_EQ(ExecuteFrom(*recovered, digests), lanes);
  for (const Digest& d : digests) {
    EXPECT_EQ(recovered->GetBatch(d)->bytes(), StoredBuffer(store, d)) << "adopted, not copied";
  }
}

struct SinkNode : NetNode {
  std::vector<MessagePtr> received;
  void OnMessage(uint32_t, const MessagePtr& msg) override { received.push_back(msg); }
};

TEST(NarwhalCoreTest, PeerBatchIsServedFromTheStoreAlone) {
  // A worker keeps a peer's batch in its store and nowhere else: once the
  // MsgBatch that carried it is gone, GetBatch and a pull request both serve
  // the stored buffer itself.
  Scheduler scheduler;
  FixedLatencyModel latency(Millis(1));
  FaultController faults;
  Network network(&scheduler, &latency, &faults, NetworkConfig{}, /*seed=*/1);
  const Committee committee(std::vector<ValidatorInfo>(2));
  SinkNode primary;
  SinkNode peer;
  MemStore store;
  BatchDirectory directory;
  Topology topology;
  Worker worker(0, 0, committee, NarwhalConfig{}, &network, &topology, &store, &directory);
  const uint32_t primary_id = network.AddNode(&primary, 0, network.NewMachine());
  const uint32_t worker_id = network.AddNode(&worker, 0, network.NewMachine());
  const uint32_t peer_id = network.AddNode(&peer, 0, network.NewMachine());
  topology.primary_of = {primary_id, primary_id};
  topology.worker_of = {{worker_id}, {peer_id}};
  worker.set_net_id(worker_id);

  Digest d;
  {
    Batch::Builder builder(/*author=*/1, /*worker=*/0);
    builder.AddTx(Bytes{1, 2, 3});
    std::shared_ptr<const Batch> batch = builder.Seal(/*seq=*/0);
    d = batch->ComputeDigest();
    worker.OnMessage(peer_id, std::make_shared<MsgBatch>(batch, d));
  }
  scheduler.RunUntilIdle();
  ASSERT_EQ(store.size(), 1u);
  store.ForEach([](const Digest&, const SharedBytes& value) {
    EXPECT_EQ(value.use_count(), 1) << "the store holds the only reference";
  });

  std::shared_ptr<const Batch> served = worker.GetBatch(d);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->bytes(), StoredBuffer(store, d));
  ASSERT_EQ(served->txs().size(), 1u);
  EXPECT_EQ(Bytes(served->txs()[0].begin(), served->txs()[0].end()), (Bytes{1, 2, 3}));

  peer.received.clear();
  worker.OnMessage(peer_id, std::make_shared<MsgBatchRequest>(d));
  scheduler.RunUntilIdle();
  ASSERT_EQ(peer.received.size(), 1u);
  const auto* response = dynamic_cast<const MsgBatchResponse*>(peer.received[0].get());
  ASSERT_NE(response, nullptr);
  EXPECT_EQ(response->digest, d);
  EXPECT_EQ(response->batch->bytes(), StoredBuffer(store, d));
}

TEST(NarwhalCoreTest, ReinjectionAfterGcForUncommittedBatches) {
  // A validator isolated long enough for its headers to fall behind the GC
  // horizon re-injects their batches (paper §3.3 censorship argument).
  ClusterConfig config = BaseConfig(6);
  config.narwhal.gc_depth = 5;
  Cluster cluster(config);
  cluster.Start();
  // Submit to validator 3 then cut it off before its header certifies.
  cluster.scheduler().RunUntil(Millis(100));
  cluster.worker(3, 0)->SubmitBlock({{7, 7, 7}});
  cluster.IsolateValidator(3, Millis(150), Seconds(20));
  cluster.scheduler().RunUntil(Seconds(40));

  // The isolated validator eventually rejoined; its batch was either
  // committed late or re-injected for a later round.
  Primary* p3 = cluster.primary(3);
  EXPECT_GT(p3->round(), 10u);  // It caught back up.
  // GC advanced cluster-wide.
  EXPECT_GT(cluster.primary(0)->dag().gc_round(), 0u);
}

TEST(NarwhalCoreTest, ScaleOutTopologyWiring) {
  ClusterConfig config = BaseConfig(7);
  config.workers_per_validator = 3;
  config.collocate = false;
  Cluster cluster(config);
  cluster.Start();
  // Distinct machines per worker when not collocated.
  const Topology& topo = cluster.topology();
  std::set<uint32_t> machines;
  for (uint32_t id : topo.worker_of[0]) {
    machines.insert(cluster.network().machine_of(id));
  }
  machines.insert(cluster.network().machine_of(topo.primary_of[0]));
  EXPECT_EQ(machines.size(), 4u);  // Primary + 3 workers.

  // Batches from different workers are all certified into headers.
  for (WorkerId w = 0; w < 3; ++w) {
    cluster.worker(1, w)->SubmitBlock({{static_cast<uint8_t>(w)}});
  }
  cluster.scheduler().RunUntil(Seconds(3));
  uint64_t included = 0;
  const Dag& dag = cluster.primary(1)->dag();
  for (Round round = dag.gc_round(); round <= dag.HighestRound(); ++round) {
    if (const Certificate* own = dag.GetCert(round, 1)) {
      included += dag.GetHeader(own->header_digest)->batches.size();
    }
  }
  EXPECT_GE(included, 3u);
}

TEST(NarwhalCoreTest, CollocatedWorkersShareMachine) {
  ClusterConfig config = BaseConfig(8);
  config.workers_per_validator = 2;
  config.collocate = true;
  Cluster cluster(config);
  const Topology& topo = cluster.topology();
  EXPECT_EQ(cluster.network().machine_of(topo.worker_of[0][0]),
            cluster.network().machine_of(topo.primary_of[0]));
  EXPECT_EQ(cluster.network().machine_of(topo.worker_of[0][1]),
            cluster.network().machine_of(topo.primary_of[0]));
}

TEST(NarwhalCoreTest, PrimariesOnlyVoteOncePerAuthorRound) {
  // Drive a normal run and confirm no equivocating certificates ever form:
  // one certificate per (round, author) across the whole DAG.
  Cluster cluster(BaseConfig(9));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(8));
  const Dag& dag = cluster.primary(0)->dag();
  for (Round r = dag.gc_round(); r <= dag.HighestRound(); ++r) {
    EXPECT_LE(dag.CertsAt(r).size(), 4u);
  }
  EXPECT_GT(cluster.primary(0)->votes_cast(), 10u);
}

TEST(NarwhalCoreTest, CrashedValidatorExcludedButDagProceeds) {
  Cluster cluster(BaseConfig(10));
  cluster.CrashValidator(3, Seconds(2));
  cluster.Start();
  cluster.scheduler().RunUntil(Seconds(12));
  const Dag& dag = cluster.primary(0)->dag();
  Round top = dag.HighestRound();
  EXPECT_GT(top, 15u);  // 3 validators = exactly 2f+1: rounds keep advancing.
  // Validator 3 contributes no certificates after its crash round.
  bool late_cert_from_crashed = false;
  for (Round r = top - 5; r <= top; ++r) {
    if (dag.CertsAt(r).count(3) != 0) {
      late_cert_from_crashed = true;
    }
  }
  EXPECT_FALSE(late_cert_from_crashed);
}

}  // namespace
}  // namespace nt
