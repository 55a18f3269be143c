// End-to-end validation of the lifecycle-tracing subsystem: a traced Tusk
// run must export Chrome trace-event JSON that (a) parses, (b) has properly
// nested spans on every (pid, tid) track, and (c) carries a telescoping
// latency breakdown whose stages sum to the end-to-end latency and whose
// e2e distribution matches the Metrics-side measurement it shadows.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/trace.h"
#include "src/runtime/client.h"
#include "src/runtime/experiment.h"

namespace nt {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser — just enough to validate the
// exporter's output without pulling a JSON library into the build.
// ---------------------------------------------------------------------------

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  bool Has(const std::string& key) const { return kind == kObject && obj.count(key) > 0; }
  const Json& At(const std::string& key) const { return obj.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the full document; ok() reports whether everything consumed.
  Json Parse() {
    Json v = Value();
    SkipWs();
    if (pos_ != text_.size()) {
      ok_ = false;
    }
    return v;
  }
  bool ok() const { return ok_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    ok_ = false;
    return false;
  }
  Json Value() {
    SkipWs();
    if (pos_ >= text_.size()) {
      ok_ = false;
      return Json();
    }
    char c = text_[pos_];
    if (c == '{') {
      return Object();
    }
    if (c == '[') {
      return Array();
    }
    if (c == '"') {
      Json v;
      v.kind = Json::kString;
      v.str = String();
      return v;
    }
    if (c == 't' || c == 'f') {
      return Literal(c == 't' ? "true" : "false", c == 't');
    }
    if (c == 'n') {
      return Literal("null", false);
    }
    return Number();
  }
  Json Literal(const std::string& word, bool value) {
    Json v;
    if (text_.compare(pos_, word.size(), word) != 0) {
      ok_ = false;
      return v;
    }
    pos_ += word.size();
    if (word == "null") {
      v.kind = Json::kNull;
    } else {
      v.kind = Json::kBool;
      v.b = value;
    }
    return v;
  }
  Json Number() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    Json v;
    if (pos_ == start) {
      ok_ = false;
      return v;
    }
    v.kind = Json::kNumber;
    v.num = std::stod(text_.substr(start, pos_ - start));
    return v;
  }
  std::string String() {
    std::string out;
    ++pos_;  // Opening quote.
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;  // Keep escaped char verbatim; enough for validation.
      }
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) {
      ok_ = false;
      return out;
    }
    ++pos_;  // Closing quote.
    return out;
  }
  Json Object() {
    Json v;
    v.kind = Json::kObject;
    Consume('{');
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return v;
    }
    while (ok_) {
      SkipWs();
      std::string key = String();
      Consume(':');
      v.obj[key] = Value();
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume('}');
      break;
    }
    return v;
  }
  Json Array() {
    Json v;
    v.kind = Json::kArray;
    Consume('[');
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return v;
    }
    while (ok_) {
      v.arr.push_back(Value());
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume(']');
      break;
    }
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return "";
  }
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

struct Span {
  double ts = 0;
  double dur = 0;
  std::string name;
  double End() const { return ts + dur; }
};

TEST(TraceTest, TracedTuskRunExportsValidChromeTrace) {
  const std::string path = "trace_test_out.json";
  ExperimentParams params;
  params.cluster.system = SystemKind::kTusk;
  params.cluster.num_validators = 4;
  params.cluster.workers_per_validator = 1;
  params.cluster.seed = 21;
  params.cluster.trace = true;
  params.rate_tps = 2000;
  params.duration = Seconds(12);
  params.warmup = Seconds(3);
  params.trace_path = path;

  ExperimentResult result = RunExperiment(params);
  ASSERT_TRUE(result.traced);
  ASSERT_TRUE(result.trace_written);
  ASSERT_GT(result.sampled_txs, 100u);

  const LatencyBreakdown& bd = result.breakdown;
  ASSERT_GT(bd.completed_txs, 0u);
  // The tracer shadows Metrics: same commit stamps, same window filter, so
  // both sides measure the identical sample population.
  EXPECT_EQ(bd.completed_txs, result.sampled_txs);

  // Telescoping invariant: every stage measures from the previous recorded
  // stage, so per transaction batch + cert + commit + exec == e2e exactly —
  // and therefore so do the means.
  double stage_sum =
      bd.batch_s.Mean() + bd.cert_s.Mean() + bd.commit_s.Mean() + bd.exec_s.Mean();
  EXPECT_NEAR(stage_sum, bd.e2e_s.Mean(), 1e-6 * std::max(1.0, bd.e2e_s.Mean()));

  // Acceptance criterion: the breakdown's e2e distribution tracks the
  // Metrics-side latency within 5% at the median.
  ASSERT_GT(result.p50_latency_s, 0.0);
  EXPECT_NEAR(bd.e2e_s.Percentile(50), result.p50_latency_s, 0.05 * result.p50_latency_s);

  // Dissemination dominates consensus-free stages: every stage non-negative,
  // and batch + commit carry real time.
  EXPECT_GE(bd.batch_s.Min(), 0.0);
  EXPECT_GE(bd.cert_s.Min(), 0.0);
  EXPECT_GE(bd.commit_s.Min(), 0.0);
  EXPECT_GT(bd.batch_s.Mean(), 0.0);
  EXPECT_GT(bd.commit_s.Mean(), 0.0);

  // --- the exported file is valid Chrome trace JSON ------------------------
  std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty());
  JsonParser parser(text);
  Json doc = parser.Parse();
  ASSERT_TRUE(parser.ok()) << "trace JSON failed to parse";
  ASSERT_EQ(doc.kind, Json::kObject);
  ASSERT_TRUE(doc.Has("traceEvents"));
  const Json& events = doc.At("traceEvents");
  ASSERT_EQ(events.kind, Json::kArray);
  ASSERT_FALSE(events.arr.empty());

  size_t complete_events = 0, counter_events = 0, metadata_events = 0, instant_events = 0;
  std::map<std::pair<double, double>, std::vector<Span>> tracks;  // (pid, tid) -> spans.
  // Async begin/end pairs keyed by (pid, id): +1 per "b", -1 per "e"; the
  // depth may never go negative and must end balanced at zero.
  std::map<std::pair<double, std::string>, std::vector<std::pair<double, int>>> async_pairs;
  for (const Json& e : events.arr) {
    ASSERT_EQ(e.kind, Json::kObject);
    ASSERT_TRUE(e.Has("ph"));
    const std::string& ph = e.At("ph").str;
    if (ph == "M") {
      ++metadata_events;
      continue;
    }
    ASSERT_TRUE(e.Has("pid"));
    ASSERT_TRUE(e.Has("ts"));
    if (ph == "C") {
      ++counter_events;
      ASSERT_TRUE(e.Has("args"));
    } else if (ph == "i") {
      ++instant_events;
    } else if (ph == "b" || ph == "e") {
      ASSERT_TRUE(e.Has("cat"));
      ASSERT_TRUE(e.Has("id"));
      ASSERT_TRUE(e.Has("name"));
      async_pairs[{e.At("pid").num, e.At("id").str}].push_back(
          {e.At("ts").num, ph == "b" ? 1 : -1});
    } else if (ph == "X") {
      ++complete_events;
      ASSERT_TRUE(e.Has("tid"));
      ASSERT_TRUE(e.Has("dur"));
      ASSERT_TRUE(e.Has("name"));
      Span s;
      s.ts = e.At("ts").num;
      s.dur = e.At("dur").num;
      s.name = e.At("name").str;
      EXPECT_GE(s.ts, 0.0);
      EXPECT_GE(s.dur, 1.0) << "durations are clamped to >= 1 us";
      tracks[{e.At("pid").num, e.At("tid").num}].push_back(s);
    } else {
      FAIL() << "unexpected event phase: " << ph;
    }
  }
  EXPECT_GT(complete_events, 0u) << "no lifecycle spans exported";
  EXPECT_GT(counter_events, 0u) << "no gauge samples exported";
  EXPECT_GT(metadata_events, 0u) << "no process-name metadata exported";
  EXPECT_FALSE(async_pairs.empty()) << "no pipelined header async spans exported";

  // Every async id's begin/end pairs balance when replayed in time order.
  for (auto& [key, marks] : async_pairs) {
    std::stable_sort(marks.begin(), marks.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    int depth = 0;
    for (const auto& [ts, delta] : marks) {
      depth += delta;
      ASSERT_GE(depth, 0) << "async end before begin for header id " << key.second;
    }
    ASSERT_EQ(depth, 0) << "unbalanced async begin/end for header id " << key.second;
  }

  // Spans on one track must nest: after sorting by (start asc, length desc),
  // each span is either disjoint from or fully contained in the enclosing
  // one. Partial overlap would render as garbage in the trace viewer.
  for (auto& [track, spans] : tracks) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) {
        return a.ts < b.ts;
      }
      return a.dur > b.dur;
    });
    std::vector<Span> stack;
    for (const Span& s : spans) {
      while (!stack.empty() && stack.back().End() <= s.ts) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        ASSERT_LE(s.End(), stack.back().End())
            << "span '" << s.name << "' partially overlaps '" << stack.back().name
            << "' on track pid=" << track.first << " tid=" << track.second;
      }
      stack.push_back(s);
    }
  }
  std::remove(path.c_str());
}

TEST(TraceTest, GaugesAndCountersAccumulate) {
  // Drive a small traced cluster directly (RunExperiment destroys its
  // cluster, so tracer accessors need a manual run).
  ClusterConfig config;
  config.system = SystemKind::kTusk;
  config.num_validators = 4;
  config.seed = 22;
  config.trace = true;
  Cluster cluster(config);
  cluster.metrics().set_observer(0);
  cluster.metrics().SetWindow(Seconds(1), Seconds(8));
  std::vector<std::unique_ptr<LoadGenerator>> clients;
  LoadGenerator::Options options;
  options.rate_tps = 500;
  options.stop_at = Seconds(8);
  for (ValidatorId v = 0; v < 4; ++v) {
    clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
    clients.back()->Start();
  }
  cluster.Start();
  cluster.StartGaugeSampling(Seconds(8));
  cluster.scheduler().RunUntil(Seconds(8));

  Tracer* tracer = cluster.tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_GT(tracer->traced_txs(), 0u);

  // The cluster registers scheduler/cache gauges plus per-validator
  // NIC and DAG gauges; all must have been sampled on the 100 ms timer.
  for (const char* name : {"scheduler/pending_events", "cert_cache/hit_rate", "v0/dag_round",
                           "v0/egress_utilization", "v0/egress_backlog_us", "v0/dag_certs"}) {
    const SampleStats* stats = tracer->gauge_stats(name);
    ASSERT_NE(stats, nullptr) << "gauge not registered: " << name;
    EXPECT_GT(stats->count(), 10u) << "gauge under-sampled: " << name;
  }
  // The DAG advances, so its round gauge must end above where it started.
  EXPECT_GT(tracer->gauge_stats("v0/dag_round")->Max(), 1.0);

  // A clean, synchronous run needs no retransmission at all.
  EXPECT_EQ(tracer->max_retry_rounds("batch_retry"), 0u);
  EXPECT_EQ(tracer->max_retry_rounds("header_retry"), 0u);
  EXPECT_EQ(tracer->max_retry_rounds("cert_reshare"), 0u);

  // ComputeBreakdown over the full window telescopes here too.
  LatencyBreakdown bd = tracer->ComputeBreakdown(Seconds(1), Seconds(8));
  ASSERT_GT(bd.completed_txs, 0u);
  double stage_sum =
      bd.batch_s.Mean() + bd.cert_s.Mean() + bd.commit_s.Mean() + bd.exec_s.Mean();
  EXPECT_NEAR(stage_sum, bd.e2e_s.Mean(), 1e-6 * std::max(1.0, bd.e2e_s.Mean()));
}

}  // namespace
}  // namespace nt
