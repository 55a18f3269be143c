// ntlint fixture corpus: every rule (R1, R3, R4, R8) is proven to fire on
// positive snippets and stay silent on negatives, the allow-annotation
// machinery is exercised end to end, and the real tree is linted so the
// suite fails the moment a violation (or a stale suppression) lands in src/.
// The positive R8 shapes reproduce a bug class this repo has actually
// shipped: a retry that reschedules itself with a stale attempt count.
#include "src/lint/lint.h"

#include <algorithm>
#include <string>

#include "gtest/gtest.h"

namespace nt {
namespace lint {
namespace {

int CountRule(const FileReport& r, const char* rule, bool include_suppressed = true) {
  int n = 0;
  for (const Finding& f : r.findings) {
    if (f.rule == rule && (include_suppressed || !f.suppressed)) {
      ++n;
    }
  }
  return n;
}

int Unsuppressed(const FileReport& r) {
  int n = 0;
  for (const Finding& f : r.findings) {
    if (!f.suppressed) {
      ++n;
    }
  }
  return n;
}

// ------------------------------------------------------------------ R1 nondet

TEST(NondetRule, FlagsBannedIncludeAndClockChain) {
  FileReport r = LintSource("src/narwhal/worker.cpp", R"(
#include <chrono>
void Tick() {
  auto t = std::chrono::steady_clock::now();
}
)");
  EXPECT_GE(CountRule(r, kRuleNondet), 2);  // The include and the chain.
}

TEST(NondetRule, FlagsLibcEntropyAndEnvironment) {
  FileReport r = LintSource("src/tusk/tusk.cpp", R"(
int Jitter() { return rand() % 7; }
const char* Home() { return getenv("HOME"); }
long Now() { return time(nullptr); }
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 3);
}

TEST(NondetRule, FlagsMutexDeclarationOncePerLock) {
  FileReport r = LintSource("src/types/cache.h", R"(
class C {
  std::mutex mu_;
  void F() { std::lock_guard<std::mutex> lock(mu_); }
  void G() { std::lock_guard<std::mutex> lock(mu_); }
};
)");
  // One finding at the declaration; the lock_guard type mentions are not
  // declarations (next token is not an identifier) and stay silent.
  EXPECT_EQ(CountRule(r, kRuleNondet), 1);
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(NondetRule, SimulatorAndBenchAreExempt) {
  const char* body = R"(
#include <chrono>
uint64_t WallNow() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
int Entropy() { return rand(); }
)";
  EXPECT_EQ(CountRule(LintSource("src/sim/wallclock.cpp", body), kRuleNondet), 0);
  EXPECT_EQ(CountRule(LintSource("bench/driver.cpp", body), kRuleNondet), 0);
}

TEST(NondetRule, TimeWithRealArgumentIsNotTheWallClockPattern) {
  FileReport r = LintSource("src/exec/state.cpp", R"(
void Stamp(Tx* tx, uint64_t logical) { tx->time(logical); }
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 0);
}

TEST(NondetRule, FlagsRawFileIoIncludingGlobalQualified) {
  FileReport r = LintSource("src/narwhal/primary.cpp", R"(
#include <unistd.h>
void Flush(FILE* f) { fsync(fileno(f)); }
void Repair(const char* p) { ::truncate(p, 0); }
)");
  // The include, fsync, fileno, and the ::-qualified truncate all fire.
  EXPECT_EQ(CountRule(r, kRuleNondet), 4);
}

TEST(NondetRule, AllowedFileIoInWalLayerIsSuppressed) {
  FileReport r = LintSource("src/store/store.cpp", R"(
void Sync(FILE* f) {
  // ntlint:allow(nondet): WAL durability barrier
  ::fsync(::fileno(f));
}
)");
  EXPECT_EQ(CountRule(r, kRuleNondet, /*include_suppressed=*/false), 0);
  EXPECT_EQ(r.unused_allows.size(), 0u);
}

TEST(NondetRule, MemberNamedTruncateIsNotFileIo) {
  FileReport r = LintSource("src/exec/state.cpp", R"(
void Trim(Log& log) { log.truncate(7); }
size_t truncate_count = 0;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 0);
}

TEST(NondetRule, EntropyBasedLaneRoutingFiresAndPureHashRoutingIsSilent) {
  // Sharded-execution routing must be a pure function of the key bytes:
  // load-balancing lanes with process entropy diverges across validators.
  FileReport bad = LintSource("src/shard/router.cpp", R"(
uint32_t PickLane(uint32_t lanes) { return rand() % lanes; }
)");
  EXPECT_EQ(CountRule(bad, kRuleNondet), 1);
  FileReport good = LintSource("src/shard/router.cpp", R"(
uint32_t PickLane(std::string_view key, uint32_t lanes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : key) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return static_cast<uint32_t>(h % lanes);
}
)");
  EXPECT_EQ(CountRule(good, kRuleNondet), 0);
}

// ------------------------------------------------------- R1 container ban

TEST(ContainerBan, FiresInsideTheSimulatorToo) {
  // The clock and thread bans exempt src/sim/, the container ban does not:
  // even the simulator's internal order must be a function of its keys.
  FileReport r = LintSource("src/sim/scheduler.h", R"(
#include <chrono>
#include <unordered_map>
uint64_t WallNow() { return std::chrono::steady_clock::now().time_since_epoch().count(); }
std::unordered_map<uint64_t, Event> pending_;
std::set<const Event*> live_;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 3);  // The include, the map and the pointer set.
  EXPECT_EQ(r.findings[0].line, 3);
}

TEST(ContainerBan, BareSpellingAfterUsingNamespaceFires) {
  FileReport r = LintSource("src/narwhal/pool.cpp", R"(
using namespace std;
unordered_set<uint32_t> peers_;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 1);
}

TEST(ContainerBan, DigestTablesVisitedInSortedOrderAreSilent) {
  FileReport r = LintSource("src/narwhal/commit_log.cpp", R"(
DigestSet committed_;
DigestMap<Bytes> records_;
FlatTable<std::string, uint64_t, StringHash> balances_;
void Emit(Writer& w) {
  committed_.ForEachSorted(DigestLess{}, [&](const Digest& d, Present) { w.PutRaw(d); });
  records_.ForEachSorted(DigestLess{}, [&](const Digest& d, const Bytes& b) { w.PutRaw(b); });
}
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 0);
}

TEST(ContainerBan, IdKeyedMapOfCertificatePointersIsSilent) {
  // The DAG's per-round book (Dag::CertsAt): pointer values, id keys.
  FileReport r = LintSource("src/narwhal/dag.h", R"(
const std::map<ValidatorId, CertPtr>& CertsAt(Round round) const;
std::map<Round, std::map<ValidatorId, CertPtr>> by_round_;
std::map<ValidatorId, const Certificate*> latest_;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 0);
}

// ------------------------------------------------------------ R3 quorum-arith

TEST(QuorumArithRule, FlagsLiteralThresholds) {
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
bool Quorate(uint32_t votes, uint32_t f) { return votes >= 2 * f + 1; }
bool OneHonest(uint32_t votes, const Committee& c) { return votes >= c.f() + 1; }
)");
  EXPECT_EQ(CountRule(r, kRuleQuorumArith), 2);
}

TEST(QuorumArithRule, FlagsDivisionByThree) {
  FileReport r = LintSource("src/hotstuff/pacemaker.cpp", R"(
uint32_t Faulty(uint32_t n) { return (n - 1) / 3; }
)");
  EXPECT_EQ(CountRule(r, kRuleQuorumArith), 1);
}

TEST(QuorumArithRule, CommitteeHelpersAreSilent) {
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
bool Quorate(uint32_t votes, const Committee& c) {
  return votes >= c.quorum_threshold() && votes >= Committee::ValidityThresholdFor(c.size());
}
)");
  EXPECT_EQ(CountRule(r, kRuleQuorumArith), 0);
}

TEST(QuorumArithRule, BullsharkSupportVoteCountingIsInScope) {
  // The Bullshark commit rule counts support votes against f+1; hand-rolled
  // threshold arithmetic in src/bullshark/ must fire like everywhere else.
  FileReport r = LintSource("src/bullshark/bullshark.cpp", R"(
bool Supported(uint32_t votes, const Committee& c) { return votes >= c.f() + 1; }
uint32_t Faulty(uint32_t n) { return (n - 1) / 3; }
)");
  EXPECT_EQ(CountRule(r, kRuleQuorumArith), 2);
}

TEST(QuorumArithRule, BullsharkRoutedSupportThresholdIsSilent) {
  FileReport r = LintSource("src/bullshark/bullshark.cpp", R"(
bool Supported(uint32_t votes, const Committee& c) {
  return votes >= c.validity_threshold() && votes >= Committee::ValidityThresholdFor(c.size());
}
)");
  EXPECT_EQ(CountRule(r, kRuleQuorumArith), 0);
}

TEST(QuorumArithRule, OutOfScopePathsAndTheBlessedHomeAreSilent) {
  const char* body = "uint32_t q = 2 * f + 1; uint32_t m = n / 3;\n";
  EXPECT_EQ(CountRule(LintSource("src/net/latency.cpp", body), kRuleQuorumArith), 0);
  EXPECT_EQ(CountRule(LintSource("src/types/committee.h", body), kRuleQuorumArith), 0);
}

// ---------------------------------------------------------- R4 codec-mismatch

TEST(CodecMismatchRule, FlagsFieldCountDrift) {
  FileReport r = LintSource("src/types/wire.h", R"(
struct Pair {
  uint32_t a = 0;
  uint64_t b = 0;
  void Encode(Writer& w) const {
    w.PutU32(a);
    w.PutU64(b);
  }
  static Pair Decode(Reader& r) {
    Pair p;
    p.a = r.GetU32();
    return p;
  }
};
)");
  EXPECT_EQ(CountRule(r, kRuleCodecMismatch), 1);
}

TEST(CodecMismatchRule, FlagsFieldKindDrift) {
  FileReport r = LintSource("src/types/wire.h", R"(
struct Rec {
  void Encode(Writer& w) const { w.PutU32(x); w.PutU64(y); }
  static Rec Decode(Reader& r) {
    Rec out;
    out.x = r.GetU64();
    out.y = r.GetU32();
    return out;
  }
};
)");
  EXPECT_EQ(CountRule(r, kRuleCodecMismatch), 1);
}

TEST(CodecMismatchRule, MatchingPairAndOneSidedCodecAreSilent) {
  FileReport r = LintSource("src/types/wire.h", R"(
struct Ok {
  void Encode(Writer& w) const {
    w.PutU32(a);
    w.PutString(name);
    inner.Encode(w);
  }
  static Ok Decode(Reader& r) {
    Ok o;
    o.a = r.GetU32();
    o.name = r.GetString();
    o.inner = Inner::Decode(r);
    return o;
  }
};
struct Preimage {
  void Encode(Writer& w) const { w.PutU64(seq); }
};
)");
  EXPECT_EQ(CountRule(r, kRuleCodecMismatch), 0);
}

TEST(CodecMismatchRule, BorrowedStringViewCountsAsAString) {
  FileReport ok = LintSource("src/exec/wire.cpp", R"(
Bytes Tx::Encode() const {
  Writer w;
  w.PutString("tx");
  w.PutU32(n);
  return w.Take();
}
std::optional<Tx> Tx::Decode(const Bytes& wire) {
  Reader r(wire);
  if (r.GetStringView() != "tx") {
    return std::nullopt;
  }
  Tx tx;
  tx.n = r.GetU32();
  return tx;
}
)");
  EXPECT_EQ(CountRule(ok, kRuleCodecMismatch), 0);

  FileReport drift = LintSource("src/exec/wire.cpp", R"(
Bytes Tx::Encode() const {
  Writer w;
  w.PutString("tx");
  w.PutU32(n);
  return w.Take();
}
std::optional<Tx> Tx::Decode(const Bytes& wire) {
  Reader r(wire);
  Tx tx;
  tx.n = r.GetU32();
  std::string_view tag = r.GetStringView();
  return tx;
}
)");
  EXPECT_EQ(CountRule(drift, kRuleCodecMismatch), 1);
}

TEST(CodecMismatchRule, BorrowedVarViewCountsAsAVar) {
  FileReport ok = LintSource("src/exec/wire.cpp", R"(
Bytes Tx::Encode() const {
  Writer w;
  w.PutVar(value);
  w.PutU64(amount);
  return w.Take();
}
std::optional<Tx::View> Tx::Decode(const Bytes& wire) {
  Reader r(wire);
  View tx;
  tx.value = r.GetVarView();
  tx.amount = r.GetU64();
  return tx;
}
)");
  EXPECT_EQ(CountRule(ok, kRuleCodecMismatch), 0);

  FileReport drift = LintSource("src/exec/wire.cpp", R"(
Bytes Tx::Encode() const {
  Writer w;
  w.PutVar(value);
  w.PutU64(amount);
  return w.Take();
}
std::optional<Tx::View> Tx::Decode(const Bytes& wire) {
  Reader r(wire);
  View tx;
  tx.value = r.GetVarView();
  tx.amount = r.GetU32();
  return tx;
}
)");
  EXPECT_EQ(CountRule(drift, kRuleCodecMismatch), 1);
}

TEST(CodecMismatchRule, OutOfClassDefinitionsPairByQualifiedName) {
  FileReport r = LintSource("src/types/wire.cpp", R"(
void Vote::Encode(Writer& w) const {
  w.PutU64(round);
  w.PutU32(voter);
}
Vote Vote::Decode(Reader& r) {
  Vote v;
  v.round = r.GetU64();
  return v;
}
)");
  EXPECT_EQ(CountRule(r, kRuleCodecMismatch), 1);
}

// ------------------------------------------------ R1 containers keyed by pointer

TEST(PointerKeyRule, FlagsPointerKeyedContainers) {
  FileReport r = LintSource("src/narwhal/dag.h", R"(
std::map<Node*, uint64_t> depth_;
std::unordered_set<const Block*> seen_;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 2);
}

TEST(PointerKeyRule, PointerValuesAreFine) {
  FileReport r = LintSource("src/narwhal/dag.h", R"(
std::map<uint32_t, Node*> by_id_;
DigestMap<const Block*> blocks_;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 0);
}

// ------------------------------------------------- engine fast-path patterns
// The scheduler/network fast path replaced hashed containers with flat slot
// pools and dense vectors. These shapes must stay silent — R1's container ban
// targets hashed and pointer-ordered containers, not pooling — while the shape
// the pool replaced (liveness keyed on an object address) must keep firing.

TEST(EngineFastPath, InlineCallbackSlotWithOpsTableIsSilent) {
  // The scheduler's zero-alloc callback slot: placement new into an inline
  // buffer, type-erased through a static ops table. `const Ops*` is a
  // pointer member (not a pointer key) and must not trip R1's container ban.
  FileReport r = LintSource("src/net/timer_queue.h", R"(
struct Ops {
  void (*invoke)(void* body);
  void (*destroy)(void* body);
};
struct Slot {
  uint64_t cur_key = 0;
  const Ops* ops = nullptr;
  alignas(std::max_align_t) unsigned char buf[64];
};
template <typename F>
uint64_t Arm(F&& fn) {
  Slot& slot = SlotAt(AllocSlot());
  ::new (static_cast<void*>(slot.buf)) F(std::forward<F>(fn));
  slot.ops = &FnOps<F>::kFull;
  return slot.cur_key;
}
)");
  EXPECT_EQ(Unsuppressed(r), 0);
}

TEST(EngineFastPath, PointerKeyedLivenessSetStillFires) {
  // Keying timer liveness on the callback's address is exactly what the
  // generation-tagged slot pool replaced; R1 keeps it from sneaking back.
  FileReport r = LintSource("src/net/timer_queue.h", R"(
std::unordered_set<Callback*> live_;
)");
  EXPECT_EQ(CountRule(r, kRuleNondet), 1);
}

// -------------------------------------------------------- R8 deferred-capture

TEST(DeferredCaptureRule, NamedReferenceCaptureFires) {
  FileReport r = LintSource("src/check/driver.cpp", R"(
void Run(Scheduler& scheduler, Acc& acc) {
  scheduler.ScheduleAt(Millis(10), [&acc] { acc.Add(1); });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 1);
  EXPECT_NE(r.findings[0].message.find("'acc'"), std::string::npos);
}

TEST(DeferredCaptureRule, DefaultReferenceCaptureFires) {
  FileReport r = LintSource("src/narwhal/worker.cpp", R"(
void Worker::Arm() {
  network_->scheduler()->ScheduleAfter(delay_, [&] { Tick(); });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 1);
}

TEST(DeferredCaptureRule, ReferenceCaptureThroughTheTimerSeamFires) {
  // Timers::ScheduleAfter and Timers::ScheduleRetry keep the Schedule prefix,
  // so a lambda handed to the seam is held to the same rule.
  FileReport r = LintSource("src/narwhal/worker.cpp", R"(
void Worker::Arm(const Digest& digest) {
  timers_.ScheduleAfter(delay_, [&] { Tick(); });
  timers_.ScheduleRetry(kBatchFetch, 0, [&digest](uint32_t attempt) {
    return Probe(digest, attempt);
  });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 2);
}

TEST(DeferredCaptureRule, ValueCapturedRetryThroughTheTimerSeamIsSilent) {
  FileReport r = LintSource("src/narwhal/worker.cpp", R"(
void Worker::Arm(const Digest& digest) {
  timers_.ScheduleRetry(kBatchFetch, 0, [this, digest](uint32_t attempt) {
    return Probe(digest, attempt);
  });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 0);
}

TEST(DeferredCaptureRule, StaleLiteralSelfRescheduleFires) {
  // The PR 2 RetryBroadcast storm: the retry re-arms itself with attempt 0
  // instead of the captured counter, so the backoff never grows.
  FileReport r = LintSource("src/narwhal/primary.cpp", R"(
void Primary::RetryBroadcast(Digest d, int attempt) {
  network_->scheduler()->ScheduleAfter(Backoff(attempt), [this, alive = alive_, d] {
    if (*alive) {
      RetryBroadcast(d, 0);
    }
  });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 1);
}

TEST(DeferredCaptureRule, ValueCapturedRetryIsSilent) {
  // The worker's RetryBatch shape: everything crosses the deferral by value.
  FileReport r = LintSource("src/narwhal/worker.cpp", R"(
void Worker::RetryBatch(const Digest& digest) {
  network_->scheduler()->ScheduleAfter(delay_, [this, alive = alive_, digest] {
    if (*alive) {
      RetryBatch(digest);
    }
  });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 0);
}

TEST(DeferredCaptureRule, IncrementedAttemptIsSilent) {
  FileReport r = LintSource("src/narwhal/worker.cpp", R"(
void Worker::RetryFetch(Digest d, int attempt) {
  network_->scheduler()->ScheduleAfter(Backoff(attempt), [this, alive = alive_, d, attempt] {
    if (*alive) {
      RetryFetch(d, attempt + 1);
    }
  });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 0);
}

TEST(DeferredCaptureRule, MemberStateRescheduleIsSilent) {
  // The HotStuff RequestBlock shape: rotation state lives in members reached
  // through the captured `this` — members are the source of truth, there is
  // no stale copy to flag.
  FileReport r = LintSource("src/hotstuff/hotstuff.cpp", R"(
void HotStuff::RequestBlock(const Digest& digest, uint32_t peer) {
  network_->scheduler()->ScheduleAfter(delay_, [this, alive = alive_, digest] {
    if (*alive) {
      RequestBlock(digest, peers_[(id_ + 1 + fetch_rotation_++) % committee_.size()]);
    }
  });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 0);
}

TEST(DeferredCaptureRule, AllowAnnotationSuppresses) {
  FileReport r = LintSource("src/check/driver.cpp", R"(
void Run(Scheduler& scheduler, Acc& acc) {
  // ntlint:allow(deferred-capture): acc outlives the drained scheduler
  scheduler.ScheduleAt(Millis(10), [&acc] { acc.Add(1); });
}
)");
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture), 1);
  EXPECT_EQ(CountRule(r, kRuleDeferredCapture, /*include_suppressed=*/false), 0);
}

// ------------------------------------------------------------------- SARIF

TEST(SarifOutput, DeclaresRulesAndMarksSuppressions) {
  Summary s;
  AddReport(&s, LintSource("src/narwhal/node.cpp", R"(
void Node::Arm() {
  scheduler_->ScheduleAfter(Millis(10), [&] { Tick(); });
}
// ntlint:allow(quorum-arith): fixture exception
uint32_t q = 2 * f + 1;
)"));
  const std::string sarif = FormatSarif(s);
  EXPECT_NE(sarif.find("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(sarif.find(std::string("{\"id\": \"") + rule.id + "\""), std::string::npos)
        << rule.id;
  }
  // The live finding is an error; the suppressed one is a note with an
  // inSource suppression carrying the annotation's reason.
  EXPECT_NE(sarif.find("\"ruleId\": \"deferred-capture\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(sarif.find("fixture exception"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/narwhal/node.cpp\""), std::string::npos);
}

TEST(StaleAllows, CountedPerRuleInSummary) {
  Summary s;
  AddReport(&s, LintSource("src/narwhal/node.cpp", R"(
// ntlint:allow(quorum-arith,nondet): nothing here computes a threshold
uint32_t benign = 0;
)"));
  EXPECT_EQ(s.total, 0);
  EXPECT_EQ(s.stale_allows(), 2);
  EXPECT_EQ(s.stale_by_rule.at(kRuleQuorumArith), 1);
  EXPECT_EQ(s.stale_by_rule.at(kRuleNondet), 1);
  const std::string text = FormatSummary(s, /*verbose=*/false);
  EXPECT_NE(text.find("stale by rule"), std::string::npos);
  EXPECT_NE(text.find("quorum-arith=1"), std::string::npos);
}

// --------------------------------------------------------- allow annotations

TEST(AllowAnnotation, SuppressesOnLineAboveAndCapturesReason) {
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
// ntlint:allow(quorum-arith): fixture exception
uint32_t q = 2 * f + 1;
)");
  ASSERT_EQ(static_cast<int>(r.findings.size()), 1);
  EXPECT_TRUE(r.findings[0].suppressed);
  EXPECT_EQ(r.findings[0].allow_reason, "fixture exception");
  EXPECT_EQ(Unsuppressed(r), 0);
  EXPECT_TRUE(r.unused_allows.empty());
}

TEST(AllowAnnotation, SuppressesTrailingSameLineComment) {
  FileReport r = LintSource("src/tusk/commit.cpp",
                            "uint32_t q = 2 * f + 1;  // ntlint:allow(quorum-arith): inline\n");
  ASSERT_EQ(static_cast<int>(r.findings.size()), 1);
  EXPECT_TRUE(r.findings[0].suppressed);
}

TEST(AllowAnnotation, MultiRuleListSuppressesEachNamedRule) {
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
// ntlint:allow(quorum-arith,nondet): mixed-violation line
uint32_t q = 2 * f + 1 + rand();
)");
  EXPECT_GE(static_cast<int>(r.findings.size()), 2);
  EXPECT_EQ(Unsuppressed(r), 0);
}

TEST(AllowAnnotation, WrongRuleDoesNotSuppressAndIsReportedStale) {
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
// ntlint:allow(nondet): names the wrong rule
uint32_t q = 2 * f + 1;
)");
  ASSERT_EQ(static_cast<int>(r.findings.size()), 1);
  EXPECT_FALSE(r.findings[0].suppressed);
  EXPECT_EQ(static_cast<int>(r.unused_allows.size()), 1);
}

TEST(AllowAnnotation, UnknownRuleNameIsIgnoredEntirely) {
  // Doc text that merely quotes the syntax must not register as a live (or
  // stale) suppression.
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
// The syntax is ntlint:allow(<rule>): <reason>.
// ntlint:allow(bogus-rule): not a real rule
uint32_t q = 2 * f + 1;
)");
  ASSERT_EQ(static_cast<int>(r.findings.size()), 1);
  EXPECT_FALSE(r.findings[0].suppressed);
  EXPECT_TRUE(r.unused_allows.empty());
}

TEST(AllowAnnotation, DistantAnnotationDoesNotLeak) {
  FileReport r = LintSource("src/tusk/commit.cpp", R"(
// ntlint:allow(quorum-arith): too far away
uint32_t unrelated = 0;
uint32_t q = 2 * f + 1;
)");
  ASSERT_EQ(static_cast<int>(r.findings.size()), 1);
  EXPECT_FALSE(r.findings[0].suppressed);
  EXPECT_EQ(static_cast<int>(r.unused_allows.size()), 1);
}

// ------------------------------------------------------------- the real tree

#ifdef NT_SOURCE_DIR

TEST(RealTree, SrcIsCleanOfUnsuppressedFindings) {
  Summary s = LintPaths({std::string(NT_SOURCE_DIR) + "/src"});
  EXPECT_EQ(s.unsuppressed(), 0) << FormatSummary(s, /*verbose=*/true);
  // Stale annotations are not fatal for the CLI, but the tree must not
  // accumulate them either.
  for (const FileReport& f : s.files) {
    EXPECT_TRUE(f.unused_allows.empty()) << f.path << " has stale allow annotations";
  }
}

// The seeded mutations (src/common/seeded_bugs.h) deliberately implement the
// "2f instead of 2f+1" bug class R3 exists to catch. Self-check: the linter
// does see those sites, and they are suppressed by explicit annotations —
// not invisible to the rule.
TEST(RealTree, SeededQuorumBugsAreExplicitlyAnnotated) {
  Summary s = LintPaths({std::string(NT_SOURCE_DIR) + "/src"});
  int seeded_sites = 0;
  for (const FileReport& f : s.files) {
    const bool seeded_file = f.path.find("src/types/types.cpp") != std::string::npos;
    for (const Finding& fnd : f.findings) {
      if (seeded_file && fnd.rule == kRuleQuorumArith) {
        EXPECT_TRUE(fnd.suppressed) << f.path << ":" << fnd.line;
        EXPECT_FALSE(fnd.allow_reason.empty()) << f.path << ":" << fnd.line;
        ++seeded_sites;
      }
    }
  }
  EXPECT_EQ(seeded_sites, 1);  // NarwhalCertQuorum, the mutation's one read site.
}

// The DST harness (src/check/) computes fault budgets from committee sizes;
// after routing through Committee::MaxFaultyFor it lints clean except for the
// three workload-injection lambdas, whose by-reference captures are safe (the
// same stack frame drains the scheduler) and carry explicit annotations.
TEST(RealTree, CheckHarnessSuppressionsAreExactlyTheWorkloadLambdas) {
  Summary s = LintPaths({std::string(NT_SOURCE_DIR) + "/src/check",
                         std::string(NT_SOURCE_DIR) + "/src/common/seeded_bugs.h"});
  EXPECT_EQ(s.unsuppressed(), 0) << FormatSummary(s, /*verbose=*/true);
  int deferred = 0;
  for (const FileReport& f : s.files) {
    for (const Finding& fnd : f.findings) {
      EXPECT_EQ(fnd.rule, kRuleDeferredCapture) << f.path << ":" << fnd.line;
      EXPECT_TRUE(fnd.suppressed) << f.path << ":" << fnd.line;
      EXPECT_FALSE(fnd.allow_reason.empty()) << f.path << ":" << fnd.line;
      ++deferred;
    }
  }
  EXPECT_EQ(deferred, 3);
}

#endif  // NT_SOURCE_DIR

}  // namespace
}  // namespace lint
}  // namespace nt
