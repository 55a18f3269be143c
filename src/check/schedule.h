// Fault schedules for the deterministic simulation-testing (DST) harness.
//
// A FaultSchedule is a complete, self-contained description of one fuzzed
// experiment: committee size, run length, workload rate, the full fault
// script (crashes, partition windows, asynchrony windows, message loss,
// Byzantine equivocators), and any seeded bugs (mutation testing). The
// ScheduleGenerator draws one deterministically from a seed; Encode/Decode
// round-trip a schedule through the text repro format `ntcheck --replay`
// consumes, so a shrunk failure replays bit-for-bit from a checked-in file.
#ifndef SRC_CHECK_SCHEDULE_H_
#define SRC_CHECK_SCHEDULE_H_

#include <array>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/seeded_bugs.h"
#include "src/common/time.h"
#include "src/runtime/cluster.h"
#include "src/types/types.h"

namespace nt {

// True for the systems the checker runs: Tusk, Narwhal-HS and Bullshark.
inline bool IsCheckedSystem(SystemKind kind) {
  return kind == SystemKind::kTusk || kind == SystemKind::kNarwhalHs ||
         kind == SystemKind::kBullshark;
}

// One row per seeded mutation (src/common/seeded_bugs.h), in SeededBug order
// (which is also the order repro files list them). Everything that names a
// mutation or pins a fuzz run for it reads this table: the repro codec,
// `ntcheck --bug` and the mutation gate (tests/check_test.cpp).
struct SeededBugRow {
  SeededBug bug;
  // The one spelling of `ntcheck --bug NAME` and the repro line `bug=NAME`.
  const char* name;
  // The system every seed is pinned to, when the seed draw (frozen at the
  // Tusk / Narwhal-HS choice) never reaches the bug's code.
  std::optional<SystemKind> system;
  // Execution lanes every seed runs with (the seed draw never adds lanes).
  uint32_t lanes;
  // The invariants a violation must name for the gate to count the catch.
  std::array<std::string_view, 2> caught_by;
};

inline constexpr SeededBugRow kSeededBugRows[] = {
    {SeededBug::kAccept2fCerts, "accept_2f_certs", std::nullopt, 1, {"cert-uniqueness"}},
    {SeededBug::kSkipTuskSupport, "skip_tusk_support", std::nullopt, 1, {"oracle-agreement"}},
    {SeededBug::kSkipBullsharkSupport, "skip_bullshark_support", SystemKind::kBullshark, 1,
     {"oracle-agreement", "prefix-consistency"}},
    {SeededBug::kSkipCrossShardLock, "skip_cross_shard_lock", std::nullopt, 4,
     {"shard-conservation", "shard-oracle"}},
};

static_assert(std::size(kSeededBugRows) == static_cast<size_t>(SeededBug::kSkipCrossShardLock) + 1,
              "one kSeededBugRows row per SeededBug");

// The system `ntcheck --system both` and the mutation gate run `seed` on when
// no row pins one: Tusk on even seeds and Narwhal-HS on odd ones, so both
// stacks get half of any seed band and a gate seed replays as itself.
inline SystemKind AlternateSystem(uint64_t seed) {
  return seed % 2 == 0 ? SystemKind::kTusk : SystemKind::kNarwhalHs;
}

// The mutation spelled `name`, if any.
std::optional<SeededBug> ParseSeededBug(std::string_view name);

struct FaultSchedule {
  uint64_t seed = 1;
  SystemKind system = SystemKind::kTusk;  // One IsCheckedSystem accepts.
  uint32_t validators = 4;
  TimeDelta duration = Seconds(12);

  // A crash is permanent when recover_at == 0; otherwise the validator is
  // down for [at, recover_at) and then rebuilt from its durable stores
  // (Cluster::RestartValidator). Restarts are only generated for systems
  // where the cluster supports rebuilds (kTusk, kNarwhalHs, kBullshark —
  // which is all the DST harness fuzzes).
  struct Crash {
    ValidatorId validator = 0;
    TimePoint at = 0;
    TimePoint recover_at = 0;
    bool recovers() const { return recover_at > at; }
  };
  struct Partition {
    ValidatorId validator = 0;
    TimePoint start = 0;
    TimePoint end = 0;
  };
  struct Async {
    TimePoint start = 0;
    TimePoint end = 0;
    double factor = 10.0;
  };
  struct Equivocate {
    ValidatorId validator = 0;
    TimePoint at = 0;
  };

  std::vector<Crash> crashes;
  std::vector<Partition> partitions;
  std::vector<Async> asyncs;
  std::vector<Equivocate> equivocators;
  double loss_rate = 0.0;

  // Workload: one ExecTx submitted every `tx_interval` (round-robin over
  // validators), plus per-validator mints at start.
  TimeDelta tx_interval = Millis(400);

  // Execution lanes per validator (src/shard/). 1 = the historical
  // single-lane executor; > 1 enables the sharded workload (per-lane
  // accounts, a deterministic mix of single- and cross-shard transfers) and
  // the shard invariants. Never drawn by GenerateSchedule — the seed stream
  // is frozen — so coverage comes from pinned `ntcheck --shards` bands, like
  // Bullshark's `--system` pin.
  uint32_t shards = 1;

  // Seeded protocol weakenings active during the run (mutation testing; see
  // src/common/seeded_bugs.h). Serialized so repro files are self-contained.
  SeededBugSet bugs;

  // Global stabilization time: the end of the last partition/asynchrony
  // window (0 when none), extended by the in-flight tail of delayed
  // messages. Permanent crashes and equivocators never delay GST, but a
  // *restarting* crash does: the system is only fully stable once the
  // recovered validator has pulled the DAG suffix it missed, so GST covers
  // recover_at plus a resync allowance.
  TimePoint Gst() const;

  // True when permanent validator faults combine with message loss: the
  // surviving committee can be exactly 2f+1, where every lost message costs
  // a full retry delay and rounds crawl. Liveness needs a wider window.
  bool Stressed() const {
    return (!crashes.empty() || !equivocators.empty()) && loss_rate > 0;
  }

  // How long a run must extend past GST for the liveness invariant to be
  // meaningful under this schedule's stress level.
  TimeDelta PostGstWindow() const { return Stressed() ? Seconds(30) : Seconds(10); }

  // Total injected faults (crashes + partitions + asyncs + equivocators +
  // one for nonzero loss). The shrinker minimizes this.
  size_t FaultCount() const;

  // True if `v` is neither permanently crashed nor an equivocator — the
  // validators whose commit progress the liveness invariant covers. A
  // cleanly-restarting validator counts as correct: GST extends past its
  // recovery, so it is expected to commit in the post-GST window like
  // everyone else.
  bool IsCorrect(ValidatorId v) const;

  // Text repro format: `key=value` lines, one per field/fault.
  std::string Encode() const;
  static std::optional<FaultSchedule> Decode(const std::string& text);
};

// Draws the schedule for `seed` deterministically (same seed, same schedule,
// on every platform). `system_override`, when set, pins the system instead
// of letting the seed pick Tusk vs Narwhal-HS. (The seed draw is frozen at
// the historical two-way choice so existing corpora and golden event hashes
// stay byte-identical; Bullshark coverage comes from pinned `--system
// bullshark` bands.)
FaultSchedule GenerateSchedule(uint64_t seed,
                               std::optional<SystemKind> system_override = std::nullopt);

}  // namespace nt

#endif  // SRC_CHECK_SCHEDULE_H_
