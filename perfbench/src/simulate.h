// One simulation of one benchmark workload: builds the cluster and its
// load generators through the runtime's public API, runs the scheduler,
// derives the simulated-clock metrics from the validators' commit streams,
// and checks that the run's outputs are correct.
#ifndef PERFBENCH_SRC_SIMULATE_H_
#define PERFBENCH_SRC_SIMULATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/cluster.h"

namespace perfbench {

struct Workload {
  std::string name;
  nt::SystemKind system = nt::SystemKind::kTusk;
  uint32_t nodes = 4;
  double rate_tps = 50000;  // Aggregate open-loop input, split over one client per validator.
  // Metrics cover the window [warmup, window_end). Clients keep submitting
  // until submit_for, so the window never sees the load drop and every
  // in-window transaction still gets its client's resubmissions; the run
  // goes on for `drain` after that so late transactions can commit.
  nt::TimeDelta warmup = nt::Seconds(4);
  nt::TimeDelta window_end = nt::Seconds(16);
  nt::TimeDelta submit_for = nt::Seconds(18);
  nt::TimeDelta drain = nt::Seconds(10);
  // Simulations (seeds derived from the run's seed) pooled into one run's
  // simulated-clock metrics. Each is run `repeats` times, and host time is
  // the fastest of all the runs.
  uint32_t sub_seeds = 1;
  uint32_t repeats = 2;
  // Set-ups per timed batch; setup_s is the fastest batch's mean.
  uint32_t setup_batch = 64;

  uint32_t exec_lanes = 0;  // > 0: accounts/transfer payloads, executed in lanes.
  double cross_ratio = 0;
  double zipf_theta = 0;
  nt::TimeDelta resubmit_timeout = 0;  // > 0: clients resubmit, failing over.

  std::vector<nt::ValidatorId> crashed;  // Down for the whole run.
  struct Restart {
    nt::ValidatorId validator;
    nt::TimePoint crash_at;
    nt::TimePoint recover_at;
  };
  std::vector<Restart> restarts;
  struct Async {
    nt::TimePoint start;
    nt::TimePoint end;
    double factor;
  };
  std::vector<Async> asyncs;

  nt::TimePoint end() const { return submit_for + drain; }
};

// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
// Seed of the index-th simulation of a run started with `seed`.
uint64_t SubSeed(uint64_t seed, uint32_t index);

struct SimResult {
  // --- simulated clock (identical for identical seeds) ---
  // Throughput sample: transactions the observer committed between its
  // first and last commit instants in the window, and the time between them.
  uint64_t window_txs = 0;
  double window_s = 0;
  std::vector<double> latencies_s;  // Submit -> commit at the validator submitted to.
  uint64_t offered_samples = 0;     // Sampled txs submitted in the window.
  uint64_t committed_samples = 0;   // ... of which committed anywhere by the end.
  uint64_t event_hash = 0;
  uint64_t events_fired = 0;
  double sim_s = 0;

  // --- host clock ---
  double setup_s = 0;  // Cluster + clients construction and Start.
  double run_s = 0;    // Scheduler::RunUntil.

  std::vector<std::string> violations;  // Empty when every check passed.
  std::map<std::string, double> layers;  // Per-layer metrics; traced runs only.

  bool SameSimulation(const SimResult& other) const {
    return window_txs == other.window_txs && latencies_s == other.latencies_s &&
           offered_samples == other.offered_samples &&
           committed_samples == other.committed_samples && event_hash == other.event_hash &&
           events_fired == other.events_fired;
  }
};

// Runs one simulation. `traced` turns on the cluster's Tracer, times every
// node's message handlers, and re-drives layer entry points afterwards to
// fill SimResult::layers.
SimResult Simulate(const Workload& workload, uint64_t seed, bool traced);

// Mean wall seconds to construct and start the workload's cluster (no events
// run), over `count` back-to-back set-ups; tear-down is not timed.
double TimeSetups(const Workload& workload, uint64_t seed, uint32_t count);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SIMULATE_H_
