// The paper's evaluation claims, asserted on the committed BENCH_paper.json
// (written by tools/ntpaper; the ntpaper_gate test re-runs part of it and
// diffs it exactly). Each bound sits beside its assertion with the section of
// the paper it comes from. A null cell — a row whose runs took no latency
// sample — fails every claim that reads it.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace {

// One row of BENCH_paper.json: its flat fields, strings unquoted, null as
// nullopt. The nested "types" object of a msgcx row ends the scan.
using Row = std::map<std::string, std::optional<std::string>>;

std::vector<Row> ReadRows(const std::string& path) {
  std::ifstream in(path);
  std::vector<Row> rows;
  for (std::string line; std::getline(in, line);) {
    size_t i = line.find("{\"figure\"");
    if (i == std::string::npos) {
      continue;
    }
    Row row;
    while (true) {
      const size_t key_start = line.find('"', i);
      if (key_start == std::string::npos) {
        break;
      }
      const size_t key_end = line.find('"', key_start + 1);
      const std::string key = line.substr(key_start + 1, key_end - key_start - 1);
      const size_t value = line.find_first_not_of(": ", key_end + 1);
      if (line[value] == '{') {
        break;
      }
      size_t end;
      if (line[value] == '"') {
        end = line.find('"', value + 1);
        row[key] = line.substr(value + 1, end - value - 1);
        ++end;
      } else {
        end = line.find_first_of(",}", value);
        const std::string text = line.substr(value, end - value);
        row[key] = text == "null" ? std::nullopt : std::optional<std::string>(text);
      }
      i = end + 1;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { rows_ = ReadRows(NT_PAPER_JSON); }

  // The one row of `figure` whose fields hold every (key, value) of `match`.
  static const Row& Find(
      const std::string& figure,
      std::initializer_list<std::pair<const char*, const char*>> match) {
    static const Row kNone;
    const Row* found = nullptr;
    for (const Row& row : rows_) {
      bool all = row.at("figure") == figure;
      for (const auto& [key, value] : match) {
        all = all && row.contains(key) && row.at(key) == value;
      }
      if (all) {
        EXPECT_EQ(found, nullptr) << "two " << figure << " rows match";
        found = &row;
      }
    }
    EXPECT_NE(found, nullptr) << "no " << figure << " row matches";
    return found != nullptr ? *found : kNone;
  }

  // A numeric cell. A missing or null cell is no measurement: it fails the
  // test and reads NaN, so the claim over it fails too.
  static double Cell(const Row& row, const std::string& key) {
    const auto it = row.find(key);
    if (it == row.end() || !it->second.has_value()) {
      ADD_FAILURE() << "cell " << key << " has no value";
      return std::nan("");
    }
    return std::stod(*it->second);
  }

  static std::vector<Row> rows_;
};

std::vector<Row> PaperClaims::rows_;

TEST_F(PaperClaims, FileHasEveryFigure) {
  for (const char* figure : {"fig1", "fig6", "fig7", "fig8", "table1", "ablations", "msgcx"}) {
    bool present = false;
    for (const Row& row : rows_) {
      present = present || row.at("figure") == figure;
    }
    EXPECT_TRUE(present) << figure;
  }
}

// Fig. 1 and §7.1: at n=10, baseline-HS << batched-HS << Narwhal-HS <~ Tusk
// in throughput. Decoupling dissemination is the order-of-magnitude step
// (the paper: ~1.8k vs ~70k tx/s), Narwhal doubles batched-HS (70k vs
// 140k), and Tusk is at least on par with Narwhal-HS (160k vs 140k).
TEST_F(PaperClaims, Fig1ThroughputOrderAtTenValidators) {
  auto tps = [](const char* system) {
    return Cell(Find("fig1", {{"system", system}, {"nodes", "10"}}), "tps");
  };
  EXPECT_GE(tps("batched-HS"), 10 * tps("baseline-HS"));
  EXPECT_GE(tps("Narwhal-HS"), 1.5 * tps("batched-HS"));
  EXPECT_GE(tps("Tusk"), 0.95 * tps("Narwhal-HS"));
}

// Fig. 7 and §7.2: throughput under a latency SLO scales with the workers,
// "close to (#workers) x (throughput for one worker)"; here at least 85% of
// linear at 10 workers, under the paper's 3.5 s SLO, for both systems.
TEST_F(PaperClaims, Fig7ScalesOutAtLeast85PercentLinearAtTenWorkers) {
  for (const char* system : {"Tusk", "Narwhal-HS"}) {
    std::map<double, double> best;  // workers -> max tx/s within the SLO
    for (const Row& row : rows_) {
      if (row.at("figure") == "fig7" && row.at("system") == system &&
          Cell(row, "latency_s") <= 3.5) {
        double& max = best[Cell(row, "workers")];
        max = std::max(max, Cell(row, "tps"));
      }
    }
    EXPECT_GT(best[1], 0) << system;
    EXPECT_GE(best[10], 0.85 * 10 * best[1]) << system;
  }
}

// Fig. 8 and §7.3, 3 of 10 validators crashed: Narwhal-HS and Tusk keep the
// throughput of the validators left, the (n-f)/n ceiling of the input (the
// crashed validators' clients lose their capacity), and their latency stays
// under the paper's 10 s (Narwhal-HS) and 6 s (Tusk).
TEST_F(PaperClaims, Fig8NarwhalSystemsKeepThroughputUnderThreeCrashes) {
  for (const auto& [system, latency_bound] :
       {std::pair{"Narwhal-HS", 10.0}, std::pair{"Tusk", 6.0}}) {
    for (const char* rate : {"30000", "70000"}) {
      const Row& row =
          Find("fig8", {{"system", system}, {"faults", "3"}, {"input_tps", rate}});
      const double ceiling = Cell(row, "input_tps") * (10 - 3) / 10;
      EXPECT_GE(Cell(row, "tps"), 0.97 * ceiling) << system << " at " << rate;
      EXPECT_LT(Cell(row, "latency_s"), latency_bound) << system << " at " << rate;
    }
  }
}

// Fig. 8 and §7.3: the HotStuff mempools suffer under 3 crashes, their
// latency rising at least 5x over the fault-free run at the same input (the
// paper: x10 for batched-HS, x40 for baseline-HS).
TEST_F(PaperClaims, Fig8HotStuffLatencyRisesFiveFoldUnderThreeCrashes) {
  for (const auto& [system, rate] :
       {std::pair{"baseline-HS", "1000"}, std::pair{"baseline-HS", "2000"},
        std::pair{"batched-HS", "30000"}, std::pair{"batched-HS", "70000"}}) {
    auto latency = [&](const char* faults) {
      return Cell(Find("fig8", {{"system", system}, {"faults", faults}, {"input_tps", rate}}),
                  "latency_s");
    };
    EXPECT_GE(latency("3"), 5 * latency("0")) << system << " at " << rate;
  }
}

// Table 1 (§6): average-case latency is 3 RTTs for HotStuff, 4 for
// Narwhal-HS and 4.5 for Tusk, so the measured order is HS < Narwhal-HS <
// Tusk.
TEST_F(PaperClaims, Table1AverageCaseLatencyOrder) {
  auto latency = [](const char* system) {
    return Cell(Find("table1", {{"label", "avg-case"}, {"system", system}}), "latency_s");
  };
  EXPECT_LT(latency("baseline-HS"), latency("Narwhal-HS"));
  EXPECT_LT(latency("Narwhal-HS"), latency("Tusk"));
}

}  // namespace
