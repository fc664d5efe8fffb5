// Ablation A1 — the smallest-cycle-first heuristic.
//
// The paper breaks the smallest CDG cycle first, arguing a short cycle
// often shares edges with longer ones so one break can kill several
// cycles. This harness compares smallest-first against first-found and
// largest-first cycle selection on deadlock-prone designs — one
// SweepRunner batch, one job per (design, policy) — reporting total VCs
// added and iterations taken. Rows land in BENCH_ablation_cycle_order.json.
#include <iostream>

#include "bench_common.h"
#include "util/json.h"
#include "util/table.h"

using namespace nocdr;

int main() {
  std::cout << "=== A1: cycle-selection policy ablation ===\n\n";

  std::vector<bench::AblationArm> arms(3);
  arms[0].label = "smallest";
  arms[0].options.cycle_policy = CyclePolicy::kSmallestFirst;
  arms[1].label = "first";
  arms[1].options.cycle_policy = CyclePolicy::kFirstFound;
  arms[2].label = "largest";
  arms[2].options.cycle_policy = CyclePolicy::kLargestFirst;

  const auto corpus = bench::DeadlockProneDesigns();
  const auto rows = bench::RunCorpusSweep(corpus, arms);

  TextTable table;
  table.SetHeader({"design", "smallest: VCs", "iters", "first: VCs", "iters",
                   "largest: VCs", "iters"});
  BenchJsonWriter json("ablation_cycle_order");
  std::size_t total[3] = {0, 0, 0};
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    std::vector<std::string> cells = {corpus[d].first};
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const runner::SweepRow& row = rows[arms.size() * d + a];
      if (bench::RowFailed(row)) {
        return 1;
      }
      cells.push_back(std::to_string(row.vcs_added));
      cells.push_back(std::to_string(row.iterations));
      total[a] += row.vcs_added;
      json.AddRow(RowToJson(row));
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);
  std::cout << "\nTotal VCs added: smallest-first " << total[0]
            << ", first-found " << total[1] << ", largest-first " << total[2]
            << "\n";
  std::cout << "(The paper's smallest-first choice should be no worse than "
               "the alternatives in aggregate.)\n";
  if (const std::string path = json.Write(); !path.empty()) {
    std::cout << "rows written to " << path << "\n";
  }
  return 0;
}
