// Arithmetic and naming shared by every benchmark mode: percentiles over
// pooled latency samples, the offered/uncommitted sample accounting, and the
// table of metric names and units the benchmark promises to print.
#ifndef PERFBENCH_SRC_SUMMARY_H_
#define PERFBENCH_SRC_SUMMARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed on untraced runs (the end-to-end metrics).
extern const std::vector<MetricSpec> kEndToEndMetrics;
// Printed on traced runs (the per-layer metrics).
extern const std::vector<MetricSpec> kPerLayerMetrics;

// p in [0, 100], linear interpolation between closest ranks (the repo's
// SampleStats rule, NumPy's default); 0 for an empty set.
double Percentile(const std::vector<double>& values, double p);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

// Sampled transactions a client offered while its submission counter moved
// from `before` to `after`. LoadGenerator samples its k-th transaction
// (0-based) iff k % sample_rate == 0.
uint64_t SamplesOffered(uint64_t before, uint64_t after, uint64_t sample_rate);

// Share of offered samples that never committed; 0 when nothing was offered.
double UncommittedFrac(uint64_t offered, uint64_t committed);

// A metric name starts with a letter or digit and holds at most 64 letters,
// digits, '_', '.' and '-'.
bool IsLegalName(const std::string& name);

// Prints one "metric <name> <value> <unit>" line per spec, then the final
// JSON result line. Every spec must have a value in `values`.
void PrintResult(const std::vector<MetricSpec>& specs, const std::map<std::string, double>& values,
                 bool correct, uint64_t attempted, uint64_t failed);

// Synthetic checks of the arithmetic above; returns the number of failures.
int SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SUMMARY_H_
