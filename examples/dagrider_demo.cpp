// DAG-Rider over Narwhal (paper §8.2): the same certified DAG interpreted by
// a different committer — 4-round waves with 2f+1 path-votes instead of
// Tusk's piggybacked 3-round waves. Same ordering machinery, same
// throughput, measurably higher latency; and, unlike Tusk, no garbage
// collection (DAG-Rider's weak links make it impossible).
//
//   $ ./examples/dagrider_demo
#include <cstdio>

#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

using namespace nt;

int main() {
  std::printf("%-10s %10s %12s %12s %12s %14s\n", "committer", "tps", "avg_lat_s", "p99_lat_s",
              "dag_rounds", "anchors");
  for (SystemKind system : {SystemKind::kTusk, SystemKind::kDagRider}) {
    ClusterConfig config;
    config.system = system;
    config.num_validators = 4;
    config.seed = 77;
    Cluster cluster(config);
    cluster.metrics().set_observer(0);
    cluster.metrics().SetWindow(Seconds(5), Seconds(25));

    LoadGenerator::Options options;
    options.rate_tps = 5000;
    options.stop_at = Seconds(25);
    std::vector<std::unique_ptr<LoadGenerator>> clients;
    for (ValidatorId v = 0; v < 4; ++v) {
      clients.push_back(std::make_unique<LoadGenerator>(&cluster, v, 0, options));
      clients.back()->Start();
    }
    cluster.Start();
    cluster.scheduler().RunUntil(Seconds(25));

    uint64_t anchors = cluster.committer(0)->last_committed_wave();
    std::printf("%-10s %10.0f %12.2f %12.2f %12llu %14llu\n", SystemName(system),
                cluster.metrics().ThroughputTps(), cluster.metrics().latency_seconds().Mean(),
                cluster.metrics().latency_seconds().Percentile(99),
                static_cast<unsigned long long>(cluster.primary(0)->dag().HighestRound()),
                static_cast<unsigned long long>(anchors));
  }
  std::printf("\nBoth interpret the *same* Narwhal DAG through one shared DagCommitter\n"
              "(wave loop, leader-chain walk, WAL, recovery); DAG-Rider's own rule is\n"
              "about 70 lines (src/tusk/dag_rider.{h,cpp}), well under the paper's §8.2\n"
              "\"less than 200 LOC\". Tusk anchors a leader every 2 DAG rounds, DAG-Rider\n"
              "every 4 — hence the latency gap (4.5 vs 5.5 round expected commit depth).\n");
  return 0;
}
