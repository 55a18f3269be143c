// Tests for the DST harness itself: schedule generation determinism, the
// text repro format round-trip, and the mutation gate — each seeded protocol
// weakening (src/common/seeded_bugs.h) must be caught by the invariant
// checker within the 64-seed CI budget, and the shrinker must reduce the
// failure to a small repro (≤ 4 validators, ≤ 2 faults).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/check/checker.h"
#include "src/check/schedule.h"
#include "src/check/shrinker.h"
#include "src/sim/timers.h"

namespace nt {
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

TEST(ScheduleTest, EncodeDecodeRoundTrip) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    FaultSchedule s = GenerateSchedule(seed);
    if (seed % 2 == 0) {
      s.bug_accept_2f_certs = true;
    }
    if (seed % 3 == 0) {
      s.bug_skip_tusk_support = true;
    }
    if (seed % 5 == 0) {
      s.system = SystemKind::kBullshark;
      s.bug_skip_bullshark_support = true;
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
  s.bug_skip_cross_shard_lock = true;
  std::string text = s.Encode();
  EXPECT_NE(text.find("shards=4"), std::string::npos);
  EXPECT_NE(text.find("bug=skip_cross_shard_lock"), std::string::npos);
  std::optional<FaultSchedule> decoded = FaultSchedule::Decode(text);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shards, 4u);
  EXPECT_TRUE(decoded->bug_skip_cross_shard_lock);
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

// Finds the first seed in [1, 64] whose schedule (with `mutate` applied)
// fails the checker, alternating the system by seed parity so both stacks
// get half the budget (as `ntcheck --system both` does).
std::optional<FaultSchedule> FirstFailing(void (*mutate)(FaultSchedule&)) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SystemKind system = (seed % 2 == 0) ? SystemKind::kTusk : SystemKind::kNarwhalHs;
    FaultSchedule s = GenerateSchedule(seed, system);
    mutate(s);
    if (!RunSchedule(s).ok()) {
      return s;
    }
  }
  return std::nullopt;
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

TEST(MutationGateTest, AcceptTwoFCertsIsCaughtAndShrinks) {
  std::optional<FaultSchedule> failing =
      FirstFailing([](FaultSchedule& s) { s.bug_accept_2f_certs = true; });
  ASSERT_TRUE(failing.has_value())
      << "weakened cert quorum (2f signatures) survived 64 fuzz seeds";

  ShrinkResult shrunk = Shrink(*failing);
  EXPECT_FALSE(shrunk.verdict.ok());
  EXPECT_LE(shrunk.schedule.validators, 4u);
  EXPECT_LE(shrunk.schedule.FaultCount(), 2u);
  // The weakening breaks quorum intersection; the checker must pin it on
  // certificate uniqueness (§4.3), not merely downstream symptoms.
  bool cert_uniqueness = false;
  for (const Violation& v : shrunk.verdict.violations) {
    cert_uniqueness |= v.invariant == "cert-uniqueness";
  }
  EXPECT_TRUE(cert_uniqueness) << shrunk.verdict.Summary();
}

TEST(MutationGateTest, SkipTuskSupportIsCaughtAndShrinks) {
  std::optional<FaultSchedule> failing =
      FirstFailing([](FaultSchedule& s) { s.bug_skip_tusk_support = true; });
  ASSERT_TRUE(failing.has_value())
      << "skipped f+1 support check survived 64 fuzz seeds";

  ShrinkResult shrunk = Shrink(*failing);
  EXPECT_FALSE(shrunk.verdict.ok());
  EXPECT_LE(shrunk.schedule.validators, 4u);
  EXPECT_LE(shrunk.schedule.FaultCount(), 2u);
  // Committing an unsupported leader diverges from the §5 reference replay.
  bool oracle = false;
  for (const Violation& v : shrunk.verdict.violations) {
    oracle |= v.invariant == "oracle-agreement";
  }
  EXPECT_TRUE(oracle) << shrunk.verdict.Summary();
}

TEST(MutationGateTest, SkipBullsharkSupportVotesIsCaughtAndShrinks) {
  // The seed draw never picks Bullshark, so this gate pins the system on
  // every seed (as `ntcheck --bug skip_bullshark_support_votes` does)
  // instead of alternating by parity.
  std::optional<FaultSchedule> failing;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultSchedule s = GenerateSchedule(seed, SystemKind::kBullshark);
    s.bug_skip_bullshark_support = true;
    if (!RunSchedule(s).ok()) {
      failing = s;
      break;
    }
  }
  ASSERT_TRUE(failing.has_value())
      << "weakened bullshark support quorum (f votes) survived 64 fuzz seeds";

  ShrinkResult shrunk = Shrink(*failing);
  EXPECT_FALSE(shrunk.verdict.ok());
  EXPECT_LE(shrunk.schedule.validators, 4u);
  EXPECT_LE(shrunk.schedule.FaultCount(), 2u);
  // Committing on f support votes breaks quorum intersection: the live rule
  // orders anchors the honest f+1 reference replay skips, so the checker
  // must pin the divergence on oracle agreement (or the resulting fork).
  bool ordering = false;
  for (const Violation& v : shrunk.verdict.violations) {
    ordering |= v.invariant == "oracle-agreement" || v.invariant == "prefix-consistency";
  }
  EXPECT_TRUE(ordering) << shrunk.verdict.Summary();
}

TEST(MutationGateTest, SkipCrossShardLockIsCaughtAndShrinks) {
  // The seed draw never enables execution lanes, so this gate pins shards=4
  // on every seed (as `ntcheck --bug skip_cross_shard_lock` does), still
  // alternating the system by parity.
  std::optional<FaultSchedule> failing;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SystemKind system = (seed % 2 == 0) ? SystemKind::kTusk : SystemKind::kNarwhalHs;
    FaultSchedule s = GenerateSchedule(seed, system);
    s.shards = 4;
    s.bug_skip_cross_shard_lock = true;
    if (!RunSchedule(s).ok()) {
      failing = s;
      break;
    }
  }
  ASSERT_TRUE(failing.has_value()) << "skipped cross-shard lock survived 64 fuzz seeds";

  ShrinkResult shrunk = Shrink(*failing);
  EXPECT_FALSE(shrunk.verdict.ok());
  EXPECT_LE(shrunk.schedule.validators, 4u);
  EXPECT_LE(shrunk.schedule.FaultCount(), 2u);
  // The shrinker may drop lanes to 2 (the smallest count that can cross) but
  // never to 1, where the bug has no cross-shard path left to fire on.
  EXPECT_GE(shrunk.schedule.shards, 2u);
  // Every validator computes the same wrong answer, so agreement can't see
  // it: the catch must come from the conservation check or the honest
  // ReplayShards oracle.
  bool shard_invariant = false;
  for (const Violation& v : shrunk.verdict.violations) {
    shard_invariant |= v.invariant == "shard-conservation" || v.invariant == "shard-oracle";
  }
  EXPECT_TRUE(shard_invariant) << shrunk.verdict.Summary();
}

}  // namespace
}  // namespace nt
