// Tests for the DST harness itself: schedule generation determinism, the
// text repro format round-trip, and the mutation gate — each seeded protocol
// weakening (src/common/seeded_bugs.h) must be caught by the invariant
// checker within the 64-seed CI budget, and the shrinker must reduce the
// failure to a small repro (≤ 4 validators, ≤ 2 faults).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/check/shrinker.h"
#include "src/sim/timers.h"

namespace nt {

// Names a MutationGateTest parameter in gtest's output.
void PrintTo(const SeededBugRow& row, std::ostream* os) { *os << row.name; }

namespace {

TEST(ScheduleTest, GeneratorIsDeterministic) {
  for (uint64_t seed : {1ull, 2ull, 33ull, 100ull}) {
    EXPECT_EQ(GenerateSchedule(seed).Encode(), GenerateSchedule(seed).Encode());
  }
  EXPECT_NE(GenerateSchedule(1).Encode(), GenerateSchedule(2).Encode());
}

TEST(ScheduleTest, SystemOverridePinsTheSystem) {
  EXPECT_EQ(GenerateSchedule(5, SystemKind::kTusk).system, SystemKind::kTusk);
  EXPECT_EQ(GenerateSchedule(5, SystemKind::kNarwhalHs).system, SystemKind::kNarwhalHs);
  EXPECT_EQ(GenerateSchedule(5, SystemKind::kBullshark).system, SystemKind::kBullshark);
}

// `ntcheck --system both` and the mutation gate split seeds by parity, not by
// offset from a band's start, so each names the same system for a seed.
TEST(ScheduleTest, AlternateSystemSplitsSeedsByParity) {
  EXPECT_EQ(AlternateSystem(1), SystemKind::kNarwhalHs);
  EXPECT_EQ(AlternateSystem(2), SystemKind::kTusk);
  EXPECT_EQ(AlternateSystem(1001), SystemKind::kNarwhalHs);
  int tusk = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    EXPECT_TRUE(IsCheckedSystem(AlternateSystem(seed)));
    tusk += AlternateSystem(seed) == SystemKind::kTusk ? 1 : 0;
  }
  EXPECT_EQ(tusk, 32);
}

TEST(ScheduleTest, EncodeDecodeRoundTrip) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    FaultSchedule s = GenerateSchedule(seed);
    if (seed % 2 == 0) {
      s.bugs.insert(SeededBug::kAccept2fCerts);
    }
    if (seed % 3 == 0) {
      s.bugs.insert(SeededBug::kSkipTuskSupport);
    }
    if (seed % 5 == 0) {
      s.system = SystemKind::kBullshark;
      s.bugs.insert(SeededBug::kSkipBullsharkSupport);
    }
    if (seed % 7 == 0) {
      s.shards = 4;
      s.bugs.insert(SeededBug::kSkipCrossShardLock);
    }
    std::optional<FaultSchedule> decoded = FaultSchedule::Decode(s.Encode());
    ASSERT_TRUE(decoded.has_value()) << "seed " << seed;
    EXPECT_EQ(decoded->Encode(), s.Encode()) << "seed " << seed;
  }
}

// Every system's flag name parses back to it, and names the repro line
// `system=`. The repro format takes exactly the systems the checker runs.
TEST(ScheduleTest, SystemNamesRoundTripForAllSixKinds) {
  const std::pair<SystemKind, const char*> kinds[] = {
      {SystemKind::kBaselineHs, "baseline-hs"}, {SystemKind::kBatchedHs, "batched-hs"},
      {SystemKind::kNarwhalHs, "narwhal-hs"},   {SystemKind::kTusk, "tusk"},
      {SystemKind::kDagRider, "dag-rider"},     {SystemKind::kBullshark, "bullshark"},
  };
  for (const auto& [kind, flag] : kinds) {
    EXPECT_STREQ(SystemFlagName(kind), flag);
    EXPECT_EQ(ParseSystem(flag), kind) << flag;
    FaultSchedule s = GenerateSchedule(7);
    s.system = kind;
    const std::string encoded = s.Encode();
    EXPECT_NE(encoded.find(std::string("\nsystem=") + flag + "\n"), std::string::npos) << flag;
    std::optional<FaultSchedule> decoded = FaultSchedule::Decode(encoded);
    EXPECT_EQ(decoded.has_value(), IsCheckedSystem(kind)) << flag;
    if (decoded.has_value()) {
      EXPECT_EQ(decoded->system, kind) << flag;
    }
  }
  EXPECT_TRUE(IsCheckedSystem(SystemKind::kTusk));
  EXPECT_TRUE(IsCheckedSystem(SystemKind::kNarwhalHs));
  EXPECT_TRUE(IsCheckedSystem(SystemKind::kBullshark));
  EXPECT_FALSE(ParseSystem("Tusk").has_value());  // The display name is not a flag.
  EXPECT_FALSE(ParseSystem("").has_value());
}

// Every mutation's one name round-trips through the repro codec and the
// `ntcheck --bug` parser; the retired `_votes` spelling is refused by both.
TEST(ScheduleTest, SeededBugNamesRoundTripThroughReproAndFlag) {
  for (const SeededBugRow& row : kSeededBugRows) {
    EXPECT_EQ(&kSeededBugRows[static_cast<size_t>(row.bug)], &row) << "rows follow the enum";
    EXPECT_EQ(ParseSeededBug(row.name), row.bug) << row.name;
    FaultSchedule s = GenerateSchedule(7);
    s.bugs.insert(row.bug);
    const std::string encoded = s.Encode();
    EXPECT_NE(encoded.find(std::string("\nbug=") + row.name + "\n"), std::string::npos)
        << row.name;
    std::optional<FaultSchedule> decoded = FaultSchedule::Decode(encoded);
    ASSERT_TRUE(decoded.has_value()) << row.name;
    EXPECT_TRUE(decoded->bugs.contains(row.bug)) << row.name;
    EXPECT_EQ(decoded->Encode(), encoded) << row.name;
  }
  EXPECT_FALSE(ParseSeededBug("skip_bullshark_support_votes").has_value());
  EXPECT_FALSE(FaultSchedule::Decode("seed=1\nvalidators=4\nduration_us=1000000\n"
                                     "bug=skip_bullshark_support_votes\n")
                   .has_value());
}

TEST(ScheduleTest, DecodeRejectsMalformedInput) {
  EXPECT_FALSE(FaultSchedule::Decode("not a schedule").has_value());
  EXPECT_FALSE(FaultSchedule::Decode("seed=1\nunknown_key=3\n").has_value());
  EXPECT_FALSE(FaultSchedule::Decode("seed=1\nvalidators=zero\n").has_value());
  // A restart must come back strictly after it went down.
  EXPECT_FALSE(
      FaultSchedule::Decode("seed=1\nvalidators=4\nduration_us=1000000\nrestart=1@500-500\n")
          .has_value());
  EXPECT_FALSE(
      FaultSchedule::Decode("seed=1\nvalidators=4\nduration_us=1000000\nrestart=1@500\n")
          .has_value());
}

TEST(ScheduleTest, RestartFaultsRoundTripAndShapeTheRun) {
  FaultSchedule s;
  s.validators = 4;
  s.crashes.push_back({0, Seconds(1), 0});           // Permanent.
  s.crashes.push_back({1, Seconds(2), Seconds(5)});  // Restarts.
  s.duration = s.Gst() + s.PostGstWindow();

  EXPECT_FALSE(s.crashes[0].recovers());
  EXPECT_TRUE(s.crashes[1].recovers());
  // A permanent crash is outside liveness; a clean restart is not.
  EXPECT_FALSE(s.IsCorrect(0));
  EXPECT_TRUE(s.IsCorrect(1));
  // GST waits for the restarted validator's resync, not the permanent crash.
  EXPECT_GE(s.Gst(), Seconds(5));

  std::string text = s.Encode();
  EXPECT_NE(text.find("crash=0@"), std::string::npos);
  EXPECT_NE(text.find("restart=1@"), std::string::npos);
  std::optional<FaultSchedule> decoded = FaultSchedule::Decode(text);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->Encode(), text);
  ASSERT_EQ(decoded->crashes.size(), 2u);
  EXPECT_EQ(decoded->crashes[1].recover_at, Seconds(5));
}

TEST(ScheduleTest, ShardsAndCrossShardBugRoundTrip) {
  FaultSchedule s = GenerateSchedule(3);
  // The default single lane stays off the wire: historical repros (and their
  // hashes) predate the knob and must re-parse unchanged.
  EXPECT_EQ(s.shards, 1u);
  EXPECT_EQ(s.Encode().find("shards="), std::string::npos);

  s.shards = 4;
  s.bugs.insert(SeededBug::kSkipCrossShardLock);
  std::string text = s.Encode();
  EXPECT_NE(text.find("shards=4"), std::string::npos);
  EXPECT_NE(text.find("bug=skip_cross_shard_lock"), std::string::npos);
  std::optional<FaultSchedule> decoded = FaultSchedule::Decode(text);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shards, 4u);
  EXPECT_TRUE(decoded->bugs.contains(SeededBug::kSkipCrossShardLock));
  EXPECT_EQ(decoded->Encode(), text);

  // A schedule with no execution lanes at all is malformed, not "lanes off".
  EXPECT_FALSE(
      FaultSchedule::Decode("seed=1\nvalidators=4\nduration_us=1000000\nshards=0\n").has_value());
}

TEST(ScheduleTest, GeneratorNeverDrawsShards) {
  // Lane coverage comes from pinned bands (`ntcheck --shards 4`), never the
  // seed draw: adding the knob must not perturb the frozen rng stream behind
  // every checked-in repro and golden event hash.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    EXPECT_EQ(GenerateSchedule(seed).shards, 1u) << "seed " << seed;
  }
}

TEST(ScheduleTest, GeneratorEmitsRestartsWithinTheDownWindowBounds) {
  size_t restarts = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultSchedule s = GenerateSchedule(seed);
    for (const FaultSchedule::Crash& c : s.crashes) {
      if (!c.recovers()) {
        continue;
      }
      ++restarts;
      EXPECT_GE(c.recover_at - c.at, Seconds(1)) << "seed " << seed;
      EXPECT_LE(c.recover_at - c.at, Seconds(8)) << "seed " << seed;
      EXPECT_GE(s.duration, c.recover_at) << "seed " << seed;
    }
  }
  // ~Half of all crashes across the corpus restart; the corpus must contain
  // a healthy number or the restart path is effectively unfuzzed.
  EXPECT_GE(restarts, 10u);
}

TEST(ScheduleTest, GeneratedFaultsRespectTheByzantineBudget) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultSchedule s = GenerateSchedule(seed);
    uint32_t f = (s.validators - 1) / 3;
    EXPECT_LE(s.crashes.size() + s.equivocators.size(), f) << "seed " << seed;
    EXPECT_GE(s.duration, s.Gst()) << "seed " << seed;
  }
}

// Every node timer's longest gap, against the stressed liveness slack. Three
// loops back off past it: a single stall of one of them can outlast the
// window on its own (the liveness-debt candidates in ROADMAP). Capping them
// turns this pin into "every gap <= slack".
TEST(RetryTableTest, ExactlyThreeRetriesOutlastTheStressedSlack) {
  std::map<std::string_view, TimeDelta> longest_gap;
  int above_slack = 0;
  for (const auto& [name, backoff] : kRetryTable) {
    longest_gap[name] = backoff.MaxDelay();
    above_slack += backoff.MaxDelay() > kStressedLivenessSlack ? 1 : 0;
  }
  EXPECT_EQ(longest_gap, (std::map<std::string_view, TimeDelta>{
                             {"header sync", Millis(19200)},
                             {"batch fetch", Millis(19200)},
                             {"batch re-send", Seconds(32)},
                             {"header re-broadcast", Seconds(8)},
                             {"view timeout", Seconds(8)},
                             {"proposal", Millis(2400)},
                             {"block fetch", Millis(300)},
                         }));
  EXPECT_EQ(above_slack, 3);
}

// One gate per kSeededBugRows row: the first seed in [1, 64] whose schedule
// fails the checker with the bug on, pinned as the row asks (its system, or
// else Tusk on even seeds and Narwhal-HS on odd ones so both stacks get half
// the budget; and its lane count), must shrink to a small repro that a
// violation of one of the row's invariants still names — the catch is the
// bug's own invariant, not merely a downstream symptom.
class MutationGateTest : public ::testing::TestWithParam<SeededBugRow> {};

TEST_P(MutationGateTest, IsCaughtAndShrinks) {
  const SeededBugRow& row = GetParam();
  std::optional<FaultSchedule> failing;
  for (uint64_t seed = 1; seed <= 64 && !failing.has_value(); ++seed) {
    FaultSchedule s = GenerateSchedule(seed, row.system.value_or(AlternateSystem(seed)));
    s.shards = row.lanes;
    s.bugs.insert(row.bug);
    if (!RunSchedule(s).ok()) {
      failing = s;
    }
  }
  ASSERT_TRUE(failing.has_value()) << row.name << " survived 64 fuzz seeds";

  ShrinkResult shrunk = Shrink(*failing);
  EXPECT_FALSE(shrunk.verdict.ok());
  EXPECT_LE(shrunk.schedule.validators, 4u);
  EXPECT_LE(shrunk.schedule.FaultCount(), 2u);
  if (row.lanes > 1) {
    // The shrinker may drop lanes to 2 (the smallest count that can cross)
    // but never to 1, where a lane bug has no cross-shard path to fire on.
    EXPECT_GE(shrunk.schedule.shards, 2u);
  }
  bool caught = false;
  for (const Violation& v : shrunk.verdict.violations) {
    for (std::string_view invariant : row.caught_by) {
      caught |= v.invariant == invariant;
    }
  }
  EXPECT_TRUE(caught) << row.name << ": " << shrunk.verdict.Summary();
}

INSTANTIATE_TEST_SUITE_P(Rows, MutationGateTest, ::testing::ValuesIn(kSeededBugRows),
                         [](const ::testing::TestParamInfo<SeededBugRow>& row) {
                           return std::string(row.param.name);
                         });

}  // namespace
}  // namespace nt
