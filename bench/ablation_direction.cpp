// Ablation A2 — bidirectional break-cost search.
//
// Algorithm 1 evaluates both the forward and the backward break for each
// cycle and applies the cheaper (steps 5-11). This harness quantifies
// what that buys over committing to a single direction — one SweepRunner
// batch, one job per (design, direction policy). Rows land in
// BENCH_ablation_direction.json.
#include <iostream>

#include "bench_common.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;

int main() {
  std::cout << "=== A2: break-direction policy ablation ===\n\n";

  std::vector<bench::AblationArm> arms(3);
  arms[0].label = "both";
  arms[0].options.direction_policy = DirectionPolicy::kBoth;
  arms[1].label = "forward";
  arms[1].options.direction_policy = DirectionPolicy::kForwardOnly;
  arms[2].label = "backward";
  arms[2].options.direction_policy = DirectionPolicy::kBackwardOnly;

  const auto corpus = bench::DeadlockProneDesigns();
  const auto rows = bench::RunCorpusSweep(corpus, arms);

  TextTable table;
  table.SetHeader(
      {"design", "both: VCs", "forward-only: VCs", "backward-only: VCs"});
  BenchJsonWriter json("ablation_direction");
  std::size_t total[3] = {0, 0, 0};
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    std::vector<std::string> cells = {corpus[d].first};
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const runner::SweepRow& row = rows[arms.size() * d + a];
      if (bench::RowFailed(row)) {
        return 1;
      }
      cells.push_back(std::to_string(row.vcs_added));
      total[a] += row.vcs_added;
      json.AddRow(RowToJson(row));
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);
  std::cout << "\nTotal VCs added: both " << total[0] << ", forward-only "
            << total[1] << ", backward-only " << total[2] << "\n";
  if (const std::string path = json.Write(); !path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return 0;
}
