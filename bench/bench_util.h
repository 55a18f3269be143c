// Shared helpers for the micro-benchmarks: banner printing and a flat JSON
// result file.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace nt {

inline void PrintBanner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Minimal machine-readable output for benchmark binaries: a flat JSON object
// of numeric fields, written as BENCH_<name>.json in the working directory so
// sweeps can be diffed across commits without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  void Set(const std::string& key, double value) { fields_.emplace_back(key, value); }

  // Returns the path written, or an empty string on failure.
  std::string Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return "";
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.6g%s\n", fields_[i].first.c_str(), fields_[i].second,
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return path;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> fields_;
};

}  // namespace nt

#endif  // BENCH_BENCH_UTIL_H_
