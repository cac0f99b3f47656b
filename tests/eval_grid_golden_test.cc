// Pinned paper numbers: the per-cell F1/ANED of a reduced Table 2 / Figure 3
// grid (DTT and GPT3-DTT-2e over all seven §5.2 datasets), compared
// byte-for-byte against a golden file. Any change that shifts a reproduced
// score — a synthesis rewrite, a decomposer tweak, a new RNG draw — fails
// here visibly instead of drifting the paper tables. Regenerate with
// DTT_UPDATE_GOLDENS=1 only when the shift is intended.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "eval/experiment.h"
#include "eval/runner.h"
#include "testing/matchers.h"

namespace dtt {
namespace {

std::string FormatGrid(const GridResult& grid) {
  std::string out = "dataset\tmethod\ttable\tf1\taned\n";
  char line[512];
  for (size_t d = 0; d < grid.datasets.size(); ++d) {
    for (size_t m = 0; m < grid.methods.size(); ++m) {
      for (const TableEval& cell : grid.evals[d][m].per_table) {
        std::snprintf(line, sizeof(line), "%s\t%s\t%s\t%.17g\t%.17g\n",
                      grid.datasets[d].c_str(), grid.methods[m].c_str(),
                      cell.table.c_str(), cell.join.f1, cell.pred.aned);
        out += line;
      }
    }
  }
  return out;
}

TEST(PaperGridGoldenTest, Table2Fig3ReducedGrid) {
  ExperimentSpec spec;
  spec.name = "paper_grid_golden";
  spec.seed = 20247;
  spec.row_scale = 0.03;
  spec.AddAllDatasets();
  spec.AddMethod(MakeDttMethod());
  spec.AddMethod(MakeGpt3FrameworkMethod(2));
  const GridResult grid = ExperimentRunner(RunnerOptions{2}).Run(spec);
  ASSERT_EQ(grid.datasets.size(), 7u);
  EXPECT_TRUE(testing::MatchesGoldenFile("paper_grid_table2_fig3.tsv",
                                         FormatGrid(grid)));
}

}  // namespace
}  // namespace dtt
