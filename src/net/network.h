// The simulated network fabric.
//
// Models the two resources the paper's analysis identifies as decisive:
//   1. per-machine access bandwidth — every machine has full-duplex FIFO
//      egress/ingress queues draining at a configurable rate (10 Gbps by
//      default, the paper's m5.8xlarge NIC), so a leader broadcasting a
//      large block serializes behind its own NIC, and
//   2. propagation latency — a pluggable LatencyModel (WAN matrix by
//      default).
//
// Delivery per (src machine, dst machine) pair is FIFO, modeling TCP
// streams. The FaultController injects crashes, partitions (in-flight
// messages are deferred to the heal time, modeling TCP retransmission),
// asynchrony windows, and random loss.
//
// Hot-path state is flat and index-addressed: machine queues live in a
// dense vector by machine id, the per-(src,dst) FIFO clamp is a dense
// node×node matrix, and per-type accounting indexes a fixed array by
// MessageTypeId — no hashing, no tree walks, no string construction per
// send. All of it is deterministic by construction: iteration surfaces are
// plain arrays in index order.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/net/faults.h"
#include "src/net/latency.h"
#include "src/net/message.h"
#include "src/sim/scheduler.h"

namespace nt {

struct NetworkConfig {
  // Full-duplex NIC rate per machine, bits per second.
  double bandwidth_bps = 10e9;
  // Data-path service rate per machine, bytes/second: deserialization,
  // hashing, and persistence of received payloads. This — not the NIC — is
  // what saturates first on the paper's testbed (one worker peaks around
  // 140k tx/s of 512 B ≈ 72 MB/s), and what makes extra worker machines
  // scale throughput linearly.
  double processing_Bps = 75e6;
  // Messages smaller than this skip the processing queue (metadata traffic:
  // votes, acks, certificates — cheap relative to bulk payload).
  size_t processing_min_bytes = 4096;
  // Delivery delay between nodes on the same machine (primary <-> collocated
  // worker IPC).
  TimeDelta local_delivery = Micros(100);
  // Fixed framing overhead added to every message's wire size.
  size_t per_message_overhead = 64;
};

class Network {
 public:
  Network(Scheduler* scheduler, const LatencyModel* latency, FaultController* faults,
          NetworkConfig config, uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Allocates a fresh machine id (its own NIC).
  uint32_t NewMachine() {
    machines_.resize(next_machine_ + 1);
    return next_machine_++;
  }

  // Registers a node. Returns its global node id. `node` may be null until
  // ReplaceNode binds one, before Start (a cluster lays out every id first).
  uint32_t AddNode(NetNode* node, uint32_t region, uint32_t machine);

  // Swaps the object behind an existing node id (binding a laid-out id, or a
  // validator restart: the old protocol object is destroyed and a recovered
  // one takes its place).
  // In-flight deliveries resolve the node pointer at fire time, so they
  // reach the replacement; region/machine/queues/FIFO clamps are unchanged
  // — the machine, not the process, owns the NIC.
  void ReplaceNode(uint32_t id, NetNode* node) { nodes_[id].node = node; }

  // Invokes OnStart on every node (at the current simulated time).
  void Start();

  // Sends `msg` from `src` to `dst`. Never blocks; delivery is scheduled.
  void Send(uint32_t src, uint32_t dst, MessagePtr msg);

  size_t node_count() const { return nodes_.size(); }
  uint32_t region_of(uint32_t node) const { return nodes_[node].region; }
  uint32_t machine_of(uint32_t node) const { return nodes_[node].machine; }

  bool IsCrashed(uint32_t node) const {
    return faults_ != nullptr && faults_->IsCrashed(node, scheduler_->now());
  }

  Scheduler* scheduler() const { return scheduler_; }
  FaultController* faults() const { return faults_; }

  // --- statistics -----------------------------------------------------------
  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }

  // Per-message-type traffic: quantifies the paper's §1 observation that
  // bulk transaction data dwarfs consensus metadata. Accounted by
  // MessageTypeId on the send path; names are resolved here, at report
  // time, and the result is name-ordered (deterministic iteration).
  struct TypeStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  std::map<std::string, TypeStats> type_stats() const;

  // --- tracing gauges -------------------------------------------------------
  // Outstanding egress-queue backlog of `machine` in microseconds of NIC time
  // (0 when the NIC is idle at `now`).
  TimeDelta EgressBacklog(uint32_t machine, TimePoint now) const {
    if (machine >= machines_.size() || machines_[machine].egress_free_at <= now) {
      return 0;
    }
    return machines_[machine].egress_free_at - now;
  }
  // Cumulative microseconds machine's NIC egress has spent transmitting.
  TimeDelta EgressBusyUs(uint32_t machine) const {
    return machine < machines_.size() ? machines_[machine].egress_busy_us : 0;
  }
  uint32_t machine_count() const { return next_machine_; }

 private:
  struct NodeSlot {
    NetNode* node;
    uint32_t region;
    uint32_t machine;
  };
  struct MachineState {
    TimePoint egress_free_at = 0;
    TimePoint ingress_free_at = 0;
    TimePoint processing_free_at = 0;
    TimeDelta egress_busy_us = 0;  // Total NIC transmit time accumulated.
  };

  TimeDelta TransmitTime(size_t bytes) const {
    // Memoized on the last wire size: traffic is dominated by a handful of
    // fixed message sizes, so this skips the FP division on nearly every
    // send while producing bit-identical values.
    if (bytes != tx_memo_bytes_) {
      tx_memo_bytes_ = bytes;
      tx_memo_time_ =
          static_cast<TimeDelta>(static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps * 1e6);
    }
    return tx_memo_time_;
  }

  Scheduler* scheduler_;
  const LatencyModel* latency_;
  FaultController* faults_;  // May be null (fault-free run).
  NetworkConfig config_;
  mutable Rng rng_;
  mutable size_t tx_memo_bytes_ = ~size_t{0};
  mutable TimeDelta tx_memo_time_ = 0;

  std::vector<NodeSlot> nodes_;
  // Dense by machine id; NewMachine/AddNode keep it sized to next_machine_.
  std::vector<MachineState> machines_;
  // FIFO clamp per (src node, dst node) — one TCP stream per pair — as a
  // dense row-major matrix indexed src * node_count + dst. Grown (and
  // re-laid-out) by AddNode; topologies are a few hundred nodes, so the
  // matrix is a couple of MB at paper scale (n=50 × 11 machines).
  std::vector<TimePoint> last_delivery_;
  uint32_t next_machine_ = 0;

  uint64_t messages_sent_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  std::array<TypeStats, kMessageTypeCount> type_stats_{};
};

}  // namespace nt

#endif  // SRC_NET_NETWORK_H_
