// Fault injection for the simulated network: crash faults, node isolation
// (partitions), random message loss, and asynchrony windows that inflate
// latencies. The controller is queried by the Network on every send.
#ifndef SRC_NET_FAULTS_H_
#define SRC_NET_FAULTS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/common/time.h"

namespace nt {

class FaultController {
 public:
  // --- crash faults ---------------------------------------------------------

  // Node stops sending and receiving from `when` on. Permanent unless a
  // later RecoverAt bounds the outage.
  void CrashAt(uint32_t node, TimePoint when) { crash_times_[node] = when; }

  // Bounds a previously scheduled crash: the node is down during
  // [crash, recover) and participates again from `recover` on. The runtime
  // pairs this with tearing down and rebuilding the node's protocol objects
  // from their stores at the recovery instant (Cluster::RestartValidator) —
  // the FaultController only gates message flow. One crash window per node:
  // a second CrashAt/RecoverAt pair overwrites the first.
  void RecoverAt(uint32_t node, TimePoint when) { recover_times_[node] = when; }

  bool IsCrashed(uint32_t node, TimePoint now) const {
    auto it = crash_times_.find(node);
    if (it == crash_times_.end() || now < it->second) {
      return false;
    }
    auto rec = recover_times_.find(node);
    return rec == recover_times_.end() || now < rec->second;
  }

  // --- partitions -----------------------------------------------------------

  // Node is cut off from everyone during [start, end). Messages in flight to
  // or from it during the window are deferred to the heal time (modeling TCP
  // retransmission after reconnect).
  void Isolate(uint32_t node, TimePoint start, TimePoint end) {
    isolations_[node].push_back({start, end});
  }

  // If either endpoint is isolated at `when`, returns the earliest time at
  // which both are reachable again (kNever if a window never closes).
  // Returns `when` itself when no partition applies.
  TimePoint EarliestReachable(uint32_t a, uint32_t b, TimePoint when) const;

  // --- asynchrony windows ----------------------------------------------------

  // During [start, end), all propagation delays are multiplied by `factor`.
  // Models the periods of asynchrony the paper's robustness claims address.
  void AddAsynchronyWindow(TimePoint start, TimePoint end, double factor) {
    async_windows_.push_back({start, end, factor});
  }

  // Overlapping windows take the worst single factor rather than the
  // product: each window models one degraded condition, and compounding
  // them produces unboundedly long in-flight tails that no finite
  // post-window recovery period could absorb.
  double LatencyFactor(TimePoint when) const {
    double factor = 1.0;
    for (const auto& w : async_windows_) {
      if (when >= w.start && when < w.end) {
        factor = std::max(factor, w.factor);
      }
    }
    return factor;
  }

  // --- Byzantine equivocation -------------------------------------------------

  // From `when` on, the validator behaves Byzantine when proposing: each
  // header it would propose is instead sent as two conflicting versions to
  // disjoint halves of the committee. Unlike the other hooks this is keyed
  // by *validator* id, not network node id — it is consulted by the
  // validator's own Primary at propose time (the FaultController itself
  // never touches message contents).
  void MarkEquivocator(uint32_t validator, TimePoint when) { equivocators_[validator] = when; }

  bool IsEquivocator(uint32_t validator, TimePoint now) const {
    auto it = equivocators_.find(validator);
    return it != equivocators_.end() && now >= it->second;
  }

  // --- random loss -----------------------------------------------------------

  // Probability that any given message is silently dropped.
  void SetLossRate(double p) { loss_rate_ = p; }
  double loss_rate() const { return loss_rate_; }

 private:
  struct Window {
    TimePoint start;
    TimePoint end;
  };
  struct AsyncWindow {
    TimePoint start;
    TimePoint end;
    double factor;
  };

  // Ordered: fault state is part of the deterministic-replay surface, and an
  // ordered map keeps any iteration over it independent of hash seeding.
  std::map<uint32_t, TimePoint> crash_times_;
  std::map<uint32_t, TimePoint> recover_times_;
  std::map<uint32_t, TimePoint> equivocators_;
  std::map<uint32_t, std::vector<Window>> isolations_;
  std::vector<AsyncWindow> async_windows_;
  double loss_rate_ = 0.0;
};

}  // namespace nt

#endif  // SRC_NET_FAULTS_H_
