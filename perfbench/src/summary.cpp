#include "src/summary.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/stats.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"tps", "tx/s"},
    {"latency_p50_s", "s"},
    {"latency_mean_s", "s"},
    {"host_s_per_sim_s", "s/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"sim.events", "count"},
    {"net.msgs_per_tx", "msg/tx"},
    {"net.bytes_per_tx", "B/tx"},
    {"net.header_bytes_frac", "fraction"},
    {"net.egress_busy_max", "fraction"},
    {"net.dropped", "count"},
    {"cert_cache.lookups_per_header", "count"},
    {"cert_cache.hit_rate", "fraction"},
    {"types.parents_verify_hit_us", "us"},
    {"types.parents_verify_miss_us", "us"},
    {"crypto.sha256_ns_per_kb_64b", "ns/KB"},
    {"crypto.sha256_ns_per_kb_4kb", "ns/KB"},
    {"narwhal.primary_busy_s", "s"},
    {"narwhal.header_busy_s", "s"},
    {"narwhal.cert_busy_s", "s"},
    {"narwhal.vote_busy_s", "s"},
    {"narwhal.worker_busy_s", "s"},
    {"narwhal.batch_wait_p50_s", "s"},
    {"narwhal.cert_wait_p50_s", "s"},
    {"narwhal.header_sync_requests", "count"},
    {"narwhal.retry_rounds", "count"},
    {"consensus.commit_wait_p50_s", "s"},
    {"consensus.commit_wait_p99_s", "s"},
    {"consensus.replay_us_per_cert", "us"},
    {"consensus.skipped_leaders", "count"},
    {"hotstuff.busy_s", "s"},
    {"hotstuff.timeouts", "count"},
    {"exec.busy_s", "s"},
    {"exec.replay_txs_per_s", "tx/s"},
    {"exec.rejected_frac", "fraction"},
    {"exec.cross_frac", "fraction"},
    {"store.records", "count"},
    {"store.syncs", "count"},
    {"recovery.records_replayed", "count"},
    {"recovery.catchup_s", "s"},
    {"runtime.unattributed_busy_s", "s"},
    {"runtime.traced_wall_s", "s"},
    {"runtime.trace_overhead", "ratio"},
};

double Percentile(const std::vector<double>& values, double p) {
  nt::SampleStats stats;
  for (double v : values) {
    stats.Add(v);
  }
  return stats.Percentile(p);
}

double Median(const std::vector<double>& values) { return Percentile(values, 50); }

double Mean(const std::vector<double>& values) {
  nt::SampleStats stats;
  for (double v : values) {
    stats.Add(v);
  }
  return stats.Mean();
}

uint64_t SamplesOffered(uint64_t before, uint64_t after, uint64_t sample_rate) {
  auto sampled_below = [sample_rate](uint64_t k) { return (k + sample_rate - 1) / sample_rate; };
  return after <= before ? 0 : sampled_below(after) - sampled_below(before);
}

double UncommittedFrac(uint64_t offered, uint64_t committed) {
  if (offered == 0) {
    return 0.0;
  }
  uint64_t missing = committed >= offered ? 0 : offered - committed;
  return static_cast<double>(missing) / static_cast<double>(offered);
}

bool IsLegalName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) {
    return false;
  }
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void PrintResult(const std::vector<MetricSpec>& specs, const std::map<std::string, double>& values,
                 bool correct, uint64_t attempted, uint64_t failed) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", spec.name);
      std::exit(3);
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    std::printf("metric %-32s %s %s\n", spec.name, value, spec.unit);
    json += std::string(first ? "" : ", ") + "\"" + spec.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  // Percentiles: interpolated ranks over unsorted input.
  expect(near(Percentile({3, 1, 2}, 50), 2.0), "median of {3,1,2} is 2");
  expect(near(Percentile({1, 2}, 50), 1.5), "median of {1,2} interpolates to 1.5");
  expect(near(Percentile({}, 99), 0.0), "percentile of an empty set is 0");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  expect(near(Percentile(hundred, 99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(Percentile(hundred, 0), 1.0) && near(Percentile(hundred, 100), 100.0),
         "p0/p100 are min/max");
  expect(near(Median({5}), 5.0), "median of one value is that value");
  expect(near(Mean({1, 2, 6}), 3.0) && near(Mean({}), 0.0), "means");

  // Offered samples: the client samples tx 0, r, 2r, ...
  expect(SamplesOffered(0, 1, 100) == 1, "first transaction is sampled");
  expect(SamplesOffered(0, 100, 100) == 1, "txs 0..99 hold one sample");
  expect(SamplesOffered(0, 101, 100) == 2, "txs 0..100 hold two samples");
  expect(SamplesOffered(100, 200, 100) == 1, "txs 100..199 hold one sample");
  expect(SamplesOffered(101, 200, 100) == 0, "txs 101..199 hold no sample");
  expect(SamplesOffered(50, 50, 100) == 0, "an empty window offers nothing");
  expect(SamplesOffered(7, 3, 1) == 0, "a counter that did not move offers nothing");
  expect(SamplesOffered(3, 7, 1) == 4, "sample rate 1 samples every transaction");

  // Uncommitted share.
  expect(near(UncommittedFrac(0, 0), 0.0), "nothing offered, nothing missing");
  expect(near(UncommittedFrac(200, 150), 0.25), "50 of 200 missing is 0.25");
  expect(near(UncommittedFrac(10, 10), 0.0), "all committed is 0");
  expect(near(UncommittedFrac(10, 12), 0.0), "over-count clamps to 0");

  // Names.
  expect(IsLegalName("net.bytes_per_tx") && IsLegalName("9lives-x"), "legal names accepted");
  expect(!IsLegalName("") && !IsLegalName("_x") && !IsLegalName("a b") && !IsLegalName("a/b") &&
             !IsLegalName(std::string(65, 'a')),
         "illegal names rejected");
  for (const auto* table : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    for (const MetricSpec& spec : *table) {
      expect(IsLegalName(spec.name), spec.name);
    }
  }
  if (failures == 0) {
    std::printf("selftest ok\n");
  }
  return failures;
}

}  // namespace perfbench
