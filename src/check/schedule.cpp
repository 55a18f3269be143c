#include "src/check/schedule.h"

#include <algorithm>
#include <sstream>

#include "src/common/rng.h"
#include "src/types/committee.h"

namespace nt {

std::optional<SeededBug> ParseSeededBug(std::string_view name) {
  for (const SeededBugRow& row : kSeededBugRows) {
    if (name == row.name) {
      return row.bug;
    }
  }
  return std::nullopt;
}

TimePoint FaultSchedule::Gst() const {
  // A message sent just before an asynchrony window closes is still in
  // flight for up to factor × the worst one-way WAN propagation (~150 ms
  // plus jitter), and per-pair in-order delivery queues everything sent
  // afterwards behind it — so the network is only effectively synchronous
  // once that tail has drained. Partitions retransmit on heal with a fresh
  // (unscaled) delay, so they only carry the plain propagation tail.
  static constexpr TimeDelta kPropagationBound = Millis(250);
  TimePoint gst = 0;
  for (const Partition& p : partitions) {
    gst = std::max(gst, p.end + kPropagationBound);
  }
  for (const Async& a : asyncs) {
    gst = std::max(gst, a.end + static_cast<TimeDelta>(a.factor *
                                                       static_cast<double>(kPropagationBound)));
  }
  // A restarted validator replays its store instantly (simulated disk) but
  // still has to re-fetch the DAG suffix it missed through the header
  // synchronizer — a round-trip per missing round in the worst case. Two
  // seconds covers the deepest suffix a bounded down-window can create.
  static constexpr TimeDelta kResyncBound = Seconds(2);
  for (const Crash& c : crashes) {
    if (c.recovers()) {
      gst = std::max(gst, c.recover_at + kResyncBound);
    }
  }
  return gst;
}

size_t FaultSchedule::FaultCount() const {
  return crashes.size() + partitions.size() + asyncs.size() + equivocators.size() +
         (loss_rate > 0 ? 1 : 0);
}

bool FaultSchedule::IsCorrect(ValidatorId v) const {
  for (const Crash& c : crashes) {
    if (c.validator == v && !c.recovers()) {
      return false;
    }
  }
  for (const Equivocate& e : equivocators) {
    if (e.validator == v) {
      return false;
    }
  }
  return true;
}

FaultSchedule GenerateSchedule(uint64_t seed, std::optional<SystemKind> system_override) {
  Rng rng = Rng::Derive(seed, "dst-schedule");
  FaultSchedule s;
  s.seed = seed;
  s.system = system_override.value_or(rng.NextBool(0.5) ? SystemKind::kTusk
                                                        : SystemKind::kNarwhalHs);
  // Small committees explore interleavings faster and shrink better; larger
  // ones exercise multi-fault schedules.
  static constexpr uint32_t kSizes[] = {4, 4, 7, 10};
  s.validators = kSizes[rng.NextBelow(4)];
  // Fault budget: at most f Byzantine-or-crashed validators total, each
  // validator faulty in at most one way.
  uint32_t fault_budget = Committee::MaxFaultyFor(s.validators);
  std::vector<ValidatorId> pool;
  for (ValidatorId v = 0; v < s.validators; ++v) {
    pool.push_back(v);
  }
  // Deterministic Fisher-Yates over the validator pool.
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.NextBelow(i)]);
  }
  uint32_t crashes = static_cast<uint32_t>(rng.NextBelow(fault_budget + 1));
  uint32_t equivocators = static_cast<uint32_t>(
      rng.NextBelow(static_cast<uint64_t>(fault_budget - crashes) + 1));
  size_t next = 0;
  for (uint32_t i = 0; i < crashes; ++i) {
    s.crashes.push_back({pool[next++], Seconds(1) + static_cast<TimePoint>(
                                                        rng.NextBelow(Seconds(6)))});
  }
  for (uint32_t i = 0; i < equivocators; ++i) {
    s.equivocators.push_back({pool[next++], static_cast<TimePoint>(rng.NextBelow(Seconds(2)))});
  }

  // Partitions may hit any validator (partitioning is a network fault, not a
  // validator fault, so it does not count against f).
  uint32_t partitions = static_cast<uint32_t>(rng.NextBelow(3));
  for (uint32_t i = 0; i < partitions; ++i) {
    TimePoint start = Seconds(1) + static_cast<TimePoint>(rng.NextBelow(Seconds(5)));
    TimeDelta width = Millis(500) + static_cast<TimeDelta>(rng.NextBelow(Seconds(3)));
    s.partitions.push_back(
        {static_cast<ValidatorId>(rng.NextBelow(s.validators)), start, start + width});
  }

  uint32_t asyncs = static_cast<uint32_t>(rng.NextBelow(3));
  for (uint32_t i = 0; i < asyncs; ++i) {
    TimePoint start = static_cast<TimePoint>(rng.NextBelow(Seconds(6)));
    TimeDelta width = Millis(500) + static_cast<TimeDelta>(rng.NextBelow(Seconds(3)));
    s.asyncs.push_back({start, start + width, rng.NextDouble(4.0, 20.0)});
  }

  if (rng.NextBool(0.5)) {
    s.loss_rate = rng.NextDouble(0.01, 0.10);
  }

  s.tx_interval = Millis(150) + static_cast<TimeDelta>(rng.NextBelow(Millis(500)));

  // Restart decisions are drawn *last* so the base schedule for a seed is
  // byte-identical to the pre-restart corpus (checked-in repros and shrink
  // behavior stay comparable). About half the crashes come back after a
  // 1–8 s down-window: long enough for the DAG to move past the crashed
  // validator, short enough to keep runs bounded. A restarted validator
  // stays inside the fault budget — it was one of the f while down.
  for (FaultSchedule::Crash& c : s.crashes) {
    if (rng.NextBool(0.5)) {
      c.recover_at = c.at + Seconds(1) + static_cast<TimeDelta>(rng.NextBelow(Seconds(7)));
    }
  }

  // Liveness needs a bounded window of synchrony after GST (wider for
  // degraded-mode schedules where rounds are retry-paced).
  s.duration = s.Gst() + s.PostGstWindow();
  return s;
}

// ------------------------------------------------------------- repro format

std::string FaultSchedule::Encode() const {
  std::ostringstream out;
  out << "seed=" << seed << "\n";
  out << "system=" << SystemFlagName(system) << "\n";
  out << "validators=" << validators << "\n";
  out << "duration_us=" << duration << "\n";
  out << "tx_interval_us=" << tx_interval << "\n";
  if (shards != 1) {
    out << "shards=" << shards << "\n";
  }
  if (loss_rate > 0) {
    out << "loss=" << loss_rate << "\n";
  }
  for (const Crash& c : crashes) {
    if (c.recovers()) {
      out << "restart=" << c.validator << "@" << c.at << "-" << c.recover_at << "\n";
    } else {
      out << "crash=" << c.validator << "@" << c.at << "\n";
    }
  }
  for (const Partition& p : partitions) {
    out << "partition=" << p.validator << "@" << p.start << "-" << p.end << "\n";
  }
  for (const Async& a : asyncs) {
    out << "async=" << a.start << "-" << a.end << "x" << a.factor << "\n";
  }
  for (const Equivocate& e : equivocators) {
    out << "equivocate=" << e.validator << "@" << e.at << "\n";
  }
  for (const SeededBugRow& row : kSeededBugRows) {
    if (bugs.contains(row.bug)) {
      out << "bug=" << row.name << "\n";
    }
  }
  return out.str();
}

std::optional<FaultSchedule> FaultSchedule::Decode(const std::string& text) {
  FaultSchedule s;
  s.loss_rate = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    std::istringstream v(value);
    char sep = 0;
    if (key == "seed") {
      v >> s.seed;
    } else if (key == "system") {
      const std::optional<SystemKind> kind = ParseSystem(value);
      if (!kind.has_value() || !IsCheckedSystem(*kind)) {
        return std::nullopt;
      }
      s.system = *kind;
    } else if (key == "validators") {
      v >> s.validators;
    } else if (key == "duration_us") {
      v >> s.duration;
    } else if (key == "tx_interval_us") {
      v >> s.tx_interval;
    } else if (key == "shards") {
      v >> s.shards;
      if (s.shards < 1) {
        return std::nullopt;
      }
    } else if (key == "loss") {
      v >> s.loss_rate;
    } else if (key == "crash") {
      FaultSchedule::Crash c;
      v >> c.validator >> sep >> c.at;
      if (sep != '@') {
        return std::nullopt;
      }
      s.crashes.push_back(c);
    } else if (key == "restart") {
      FaultSchedule::Crash c;
      char dash = 0;
      v >> c.validator >> sep >> c.at >> dash >> c.recover_at;
      if (sep != '@' || dash != '-' || c.recover_at <= c.at) {
        return std::nullopt;
      }
      s.crashes.push_back(c);
    } else if (key == "partition") {
      FaultSchedule::Partition p;
      char dash = 0;
      v >> p.validator >> sep >> p.start >> dash >> p.end;
      if (sep != '@' || dash != '-') {
        return std::nullopt;
      }
      s.partitions.push_back(p);
    } else if (key == "async") {
      FaultSchedule::Async a;
      char x = 0;
      v >> a.start >> sep >> a.end >> x >> a.factor;
      if (sep != '-' || x != 'x') {
        return std::nullopt;
      }
      s.asyncs.push_back(a);
    } else if (key == "equivocate") {
      FaultSchedule::Equivocate e;
      v >> e.validator >> sep >> e.at;
      if (sep != '@') {
        return std::nullopt;
      }
      s.equivocators.push_back(e);
    } else if (key == "bug") {
      const std::optional<SeededBug> bug = ParseSeededBug(value);
      if (!bug.has_value()) {
        return std::nullopt;
      }
      s.bugs.insert(*bug);
    } else {
      return std::nullopt;  // Unknown key: refuse to half-replay a repro.
    }
    if (v.fail()) {
      return std::nullopt;
    }
  }
  if (s.validators < 1 || s.duration <= 0) {
    return std::nullopt;
  }
  return s;
}

}  // namespace nt
