// grid_join: the paper grid, offline and closed loop. ExperimentRunner runs
// DTT and GPT3-DTT-2e over all seven §5.2 datasets at a fixed small row
// scale. One run grids several replicas of the seven datasets, each with its
// own split and trial streams, so the measured work averages over many
// splits. The traced run replays every cell of one replica layer by layer
// from outside (SplitTable → MakePrompts → TransformBatch → AggregateMulti →
// Join) and asserts the predictions equal DttJoinMethod's.
#include "workloads.h"

#include <algorithm>
#include <array>
#include <map>
#include <cstdio>
#include <filesystem>

#include "core/aggregator.h"
#include "core/joiner.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// Row scale of the seven datasets: small enough that one replica pass
/// takes a few seconds, large enough that every table has test rows.
constexpr double kRowScale = 0.05;
/// Replica passes per second of --seconds: 15 at the default 20 s. A
/// pass's peak memory is set by its heaviest joint-synthesis cell, which
/// its split draws, so the median over passes needs fifteen or more of them
/// to hold steady from seed to seed (ten spread twice as wide).
constexpr double kReplicasPerSecond = 0.75;
/// The fixed paper grid: every seed grids the same tables, so run-to-run
/// cost does not hinge on which rare heavy synthesis tables a seed makes.
constexpr uint64_t kDatasetSeed = 20247;
/// Cells of the untraced run replayed layer by layer (the traced run
/// replays every cell).
constexpr size_t kCheckCells = 24;
/// Decode budget of the neural probe (the serve workloads' short budget).
constexpr int kNeuralBudget = 8;

/// One grid instance: the shared tables under its own split and trial
/// streams.
struct GridReplica {
  uint64_t seed = 0;
  dtt::ExperimentSpec spec;
};

struct GridSetup {
  std::vector<dtt::Dataset> datasets;  // shared by every replica's spec
  std::vector<std::unique_ptr<dtt::JoinMethod>> methods;
  std::vector<GridReplica> replicas;
};

/// Generates the seven datasets once; replica r borrows them and draws its
/// split and trial streams from a seed forked off `seed`.
std::unique_ptr<GridSetup> BuildGrid(uint64_t seed, int replicas) {
  auto setup = std::make_unique<GridSetup>();
  setup->datasets = dtt::MakeAllDatasets(kDatasetSeed, kRowScale);
  setup->methods.push_back(dtt::MakeDttMethod());
  setup->methods.push_back(dtt::MakeGpt3FrameworkMethod(2));
  setup->replicas.resize(static_cast<size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    GridReplica& replica = setup->replicas[static_cast<size_t>(r)];
    replica.seed = dtt::Rng(seed).Fork(static_cast<uint64_t>(r)).Next();
    replica.spec.name = "grid_join";
    replica.spec.seed = replica.seed;
    for (const dtt::Dataset& ds : setup->datasets) replica.spec.AddDataset(ds);
    for (auto& method : setup->methods) replica.spec.AddMethod(method.get());
  }
  return setup;
}

/// The decomposer, serializer and model of each grid method, rebuilt from
/// the same factories' defaults so the replay sees identical behaviour.
struct MethodParts {
  std::string name;
  dtt::DecomposerOptions decomposer;
  dtt::SerializerOptions serializer;
  std::shared_ptr<dtt::TextToTextModel> model;
};

std::vector<MethodParts> ReplayParts() {
  std::vector<MethodParts> parts(2);
  parts[0].name = "DTT";
  parts[0].model = dtt::MakeDttModel();
  parts[1].name = "GPT3-DTT-2e";
  parts[1].serializer.max_tokens = 2048;
  parts[1].model = dtt::MakeGpt3Model();
  return parts;
}

/// Per-layer seconds and counts accumulated over replayed cells.
struct LayerTotals {
  double decompose_s = 0.0;
  std::map<std::string, double> transform_s;  // by backend name
  double aggregate_s = 0.0;
  double join_s = 0.0;
  int64_t prompts = 0;
  int64_t abstained = 0;
  size_t max_rows = 0;  // the largest table: its rows all queue at once
};

/// Replays one cell through each layer's public function. Returns the
/// predictions; with `run_models` false only splits and decomposes (the
/// untimed input-property pass).
std::vector<std::string> ReplayCell(const GridSetup& grid, uint64_t seed,
                                    const MethodParts& parts, size_t d,
                                    size_t t, bool run_models,
                                    LayerTotals* totals, InputProfile* profile,
                                    std::vector<dtt::Prompt>* sample_sink) {
  const dtt::Dataset& ds = grid.datasets[d];
  const dtt::TablePair& table = ds.tables[t];
  dtt::Rng split_rng(dtt::GridCellSeed(seed, ds.name, table.name));
  const dtt::TableSplit split = dtt::SplitTable(table, &split_rng);
  // DttJoinMethod::Run → DttPipeline::TransformAll: one draw seeds the
  // service, whose request r draws from Rng(seed).Fork(r).Fork(model).
  dtt::Rng run_rng(dtt::GridCellSeed(seed, ds.name, table.name, parts.name));
  const dtt::Rng base(run_rng.Next());
  const std::vector<std::string> sources = split.TestSources();
  totals->max_rows = std::max(totals->max_rows, sources.size());
  const dtt::Decomposer decomposer(parts.decomposer);
  const dtt::Serializer serializer(parts.serializer);
  std::vector<dtt::Prompt> prompts;
  std::vector<size_t> row_end;
  auto start = Clock::now();
  for (size_t r = 0; r < sources.size(); ++r) {
    dtt::Rng model_rng = base.Fork(r).Fork(0);
    for (dtt::Prompt& p :
         decomposer.MakePrompts(sources[r], split.examples, &model_rng)) {
      prompts.push_back(std::move(p));
    }
    row_end.push_back(prompts.size());
  }
  totals->decompose_s += SecondsSince(start);
  totals->prompts += static_cast<int64_t>(prompts.size());
  if (profile != nullptr) {
    for (const dtt::Prompt& p : prompts) {
      profile->AddPrompt(p, static_cast<int>(serializer.EncodePrompt(p).size()));
    }
  }
  if (sample_sink != nullptr && !prompts.empty()) {
    sample_sink->push_back(prompts.front());
  }
  if (!run_models) return {};

  // The service cuts micro-batches of PipelineOptions::batch_size (16);
  // every backend's output is a pure function of its prompt.
  const std::vector<std::string> outputs = TransformInBatches(
      parts.model.get(), prompts, 16, &totals->transform_s[parts.model->name()]);
  for (const std::string& output : outputs) {
    if (output.empty()) ++totals->abstained;
  }

  std::vector<std::string> predictions;
  const dtt::Aggregator aggregator;
  start = Clock::now();
  size_t begin = 0;
  for (size_t r = 0; r < sources.size(); ++r) {
    std::vector<std::vector<std::string>> per_model(1);
    per_model[0].assign(outputs.begin() + begin, outputs.begin() + row_end[r]);
    begin = row_end[r];
    predictions.push_back(aggregator.AggregateMulti(per_model).prediction);
  }
  totals->aggregate_s += SecondsSince(start);

  start = Clock::now();
  const dtt::JoinResult join =
      dtt::EditDistanceJoiner().Join(predictions, split.TestTargets());
  totals->join_s += SecondsSince(start);
  (void)join;
  return predictions;
}

/// Mean F1 and ANED over every (replica, dataset, method) column.
void QualityOf(const std::vector<dtt::GridResult>& results, double* f1,
               double* aned) {
  double f1_sum = 0.0, aned_sum = 0.0;
  int n = 0;
  for (const dtt::GridResult& result : results) {
    for (const auto& row : result.evals) {
      for (const dtt::DatasetEval& eval : row) {
        f1_sum += eval.join.f1;
        aned_sum += eval.pred.aned;
        ++n;
      }
    }
  }
  *f1 = n == 0 ? 0.0 : f1_sum / n;
  *aned = n == 0 ? 0.0 : aned_sum / n;
}

bool SameTableEval(const dtt::TableEval& a, const dtt::TableEval& b) {
  return a.join.f1 == b.join.f1 && a.join.precision == b.join.precision &&
         a.join.recall == b.join.recall && a.join.correct == b.join.correct &&
         a.pred.aned == b.pred.aned && a.pred.count == b.pred.count;
}

}  // namespace

int RunGridJoin(const Args& args, JsonObject* out) {
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const double seconds = args.Num("seconds");
  const bool trace = args.Int("trace") != 0;
  const int workers = static_cast<int>(args.Int("workers"));
  // The work of a run is a function of --seconds alone, never of how fast
  // the machine gets through it.
  const int replicas =
      std::max(1, static_cast<int>(seconds * kReplicasPerSecond));
  Outcome outcome;

  // Set-up: dataset generation plus method/KB construction, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<GridSetup> grid;
  for (int i = 0; i < kSetupRepeats; ++i) {
    grid.reset();
    const auto start = Clock::now();
    grid = BuildGrid(seed, trace ? 1 : replicas);
    setup_s.push_back(SecondsSince(start));
  }
  out->Nums("setup_s", setup_s);
  const std::string status_after_setup = ReadProcStatus();

  const dtt::ExperimentRunner runner(dtt::RunnerOptions{workers, false});
  std::vector<JsonObject> passes;
  // The first grid of each replica: the scores every later pass and the
  // layer replay must reproduce.
  std::vector<dtt::GridResult> first(grid->replicas.size());
  // One pass grids one replica. With `segments`, the pass is a memory
  // segment: a fixed amount of work, so its peak does not depend on host
  // speed.
  auto run_pass = [&](size_t r, bool record,
                      std::vector<std::string>* segments) {
    if (segments != nullptr) StartRssSegment();
    const auto start = Clock::now();
    dtt::GridResult result = runner.Run(grid->replicas[r].spec);
    const double wall = SecondsSince(start);
    if (segments != nullptr) segments->push_back(ReadProcStatus());
    outcome.attempted += static_cast<int64_t>(result.num_cells);
    const bool repeat = !first[r].evals.empty();
    double rows = 0.0;
    std::vector<double> pass_cell_ms;
    for (size_t d = 0; d < result.evals.size(); ++d) {
      for (size_t m = 0; m < result.evals[d].size(); ++m) {
        const auto& per_table = result.evals[d][m].per_table;
        for (size_t t = 0; t < per_table.size(); ++t) {
          rows += static_cast<double>(per_table[t].pred.count);
          pass_cell_ms.push_back(per_table[t].seconds * 1000.0);
          // Only the traced run grids a replica more than once (untraced,
          // traced, untraced); tracing must not change a cell's scores.
          if (repeat && !SameTableEval(per_table[t],
                                       first[r].evals[d][m].per_table[t])) {
            outcome.Fail("grid cell " + result.datasets[d] + "/" +
                             result.methods[m] + "/" + per_table[t].table +
                             " differs between passes",
                         true);
          }
        }
      }
    }
    if (record) {
      passes.push_back(
          JsonObject()
              .Num("rows", rows)
              .Num("wall_s", wall)
              .Num("parallel_efficiency",
                   result.cell_seconds /
                       (result.wall_seconds * result.num_workers))
              .Nums("cell_ms", pass_cell_ms));
    }
    if (!repeat) first[r] = std::move(result);
    return wall;
  };

  JsonObject layers;
  std::vector<std::string> segment_status;  // peak RSS of each segment
  if (!trace) {
    for (size_t r = 0; r < grid->replicas.size(); ++r) {
      run_pass(r, true, &segment_status);
    }
  } else {
    // Untraced, traced, untraced passes of the same grid: the overhead
    // share compares the traced pass with the mean of its neighbours, and
    // the trace file is what the front end folds.
    const double untraced_before = run_pass(0, true, nullptr);
    layers.Obj("serve_metrics",
               SnapshotServeMetrics(dtt::obs::GlobalMetrics().Snapshot()));
    const std::string trace_path = args.Str("trace-path");
    dtt::Status st = dtt::obs::StartTracing(trace_path);
    if (!st.ok()) outcome.Fail("StartTracing: " + st.message());
    const double traced = run_pass(0, false, nullptr);
    st = dtt::obs::StopTracing();
    if (!st.ok()) outcome.Fail("StopTracing: " + st.message());
    const double untraced_after = run_pass(0, false, nullptr);
    layers.Num("wall_untraced_s", (untraced_before + untraced_after) / 2)
        .Num("wall_traced_s", traced)
        .Str("trace_path", trace_path)
        .Str("trace_root", "eval.run");
  }
  double f1 = 0.0, aned = 0.0;
  QualityOf(first, &f1, &aned);
  out->Strs("segment_status", segment_status)
      .Objs("passes", passes)
      .Num("f1", f1)
      .Num("aned", aned);

  // Output check, outside the timed region: replay cells layer by layer and
  // compare against DttJoinMethod's own predictions for the cell, and the
  // replay's scores against the runner's. The traced run replays every
  // cell; the untraced run a seeded sample.
  const std::vector<MethodParts> parts = ReplayParts();
  std::vector<std::array<size_t, 4>> all_cells;  // (replica, d, m, t)
  const auto& datasets = grid->datasets;
  for (size_t r = 0; r < grid->replicas.size(); ++r) {
    for (size_t d = 0; d < datasets.size(); ++d) {
      for (size_t m = 0; m < parts.size(); ++m) {
        for (size_t t = 0; t < datasets[d].tables.size(); ++t) {
          all_cells.push_back({r, d, m, t});
        }
      }
    }
  }
  std::vector<size_t> to_check(all_cells.size());
  for (size_t i = 0; i < to_check.size(); ++i) to_check[i] = i;
  if (!trace) {
    dtt::Rng pick(seed ^ 0x5EEDC0DEULL);
    pick.Shuffle(&to_check);
    to_check.resize(std::min(to_check.size(), kCheckCells));
  }
  std::vector<bool> check(all_cells.size(), false);
  for (size_t i : to_check) check[i] = true;

  LayerTotals totals;
  InputProfile profile;
  std::vector<dtt::Prompt> neural_sample;
  for (size_t i = 0; i < all_cells.size(); ++i) {
    const auto [r, d, m, t] = all_cells[i];
    const GridReplica& replica = grid->replicas[r];
    const std::vector<std::string> replayed =
        ReplayCell(*grid, replica.seed, parts[m], d, t, check[i], &totals,
                   &profile, &neural_sample);
    if (!check[i]) continue;
    ++outcome.attempted;
    const dtt::Dataset& ds = datasets[d];
    const dtt::TablePair& table = ds.tables[t];
    dtt::Rng split_rng(dtt::GridCellSeed(replica.seed, ds.name, table.name));
    const dtt::TableSplit split = dtt::SplitTable(table, &split_rng);
    dtt::Rng run_rng(dtt::GridCellSeed(replica.seed, ds.name, table.name,
                                       parts[m].name));
    std::unique_ptr<dtt::JoinMethod> method = grid->methods[m]->Clone();
    const dtt::MethodOutput expected = method->Run(split, &run_rng);
    const std::string cell = ds.name + "/" + parts[m].name + "/" + table.name;
    if (expected.predictions != replayed) {
      outcome.Fail("layer replay of " + cell + " differs from DttJoinMethod",
                   true);
      continue;
    }
    dtt::TableEval scored;
    scored.join = dtt::ScoreJoin(
        dtt::EditDistanceJoiner().Join(replayed, split.TestTargets()),
        split.TestTargets(), split.TestTargets());
    scored.pred = dtt::ScorePredictions(replayed, split.TestTargets());
    if (!SameTableEval(scored, first[r].evals[d][m].per_table[t])) {
      outcome.Fail("scores of " + cell + " differ from the runner's", true);
    }
  }
  JsonObject inputs;
  profile.WriteTo(&inputs);
  out->Obj("inputs", inputs);

  if (trace) {
    layers.Num("text.decompose_s", totals.decompose_s)
        .Int("text.prompts", totals.prompts)
        .Num("models.dtt.transform_s", totals.transform_s["dtt"])
        .Num("models.gpt3-sim.transform_s", totals.transform_s["gpt3-sim"])
        .Int("models.attempts", totals.prompts)
        .Int("models.abstained", totals.abstained)
        .Num("core.aggregate_s", totals.aggregate_s)
        .Num("core.join_s", totals.join_s)
        .Int("serve.backlog_max", static_cast<int64_t>(totals.max_rows))
        .Str("proc_status_after_setup", status_after_setup);
    // The neural layers are not on this workload's path; probe them on a
    // sample of its prompts (one per cell) so their cost on these inputs
    // is on record.
    const std::string artifact = args.Str("artifact-dir") + "/grid-" +
                                 std::to_string(seed) + ".dttart";
    dtt::Status st = WriteNeuralArtifact(artifact, seed);
    if (!st.ok()) outcome.Fail("WriteNeuralArtifact: " + st.message());
    const auto start = Clock::now();
    auto neural = LoadNeural(artifact, kNeuralBudget);
    layers.Nums("io.load_artifact_s", {SecondsSince(start)});
    if (!neural.ok()) {
      outcome.Fail("LoadNeural: " + neural.status().message());
    } else {
      neural_sample.resize(std::min<size_t>(neural_sample.size(), 128));
      ProbeNeural(neural.value().model.get(), neural_sample, &layers);
    }
    std::filesystem::remove(artifact);
    out->Obj("layers", layers);
  }
  outcome.WriteTo(out);
  return 0;
}

}  // namespace perfbench
