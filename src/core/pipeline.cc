#include "core/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace dtt {

DttPipeline::DttPipeline(std::vector<std::shared_ptr<TextToTextModel>> models,
                         PipelineOptions options)
    : models_(std::move(models)),
      options_(options),
      decomposer_(options.decomposer) {
  if (!options_.trace_path.empty()) {
    Status st = obs::StartTracing(options_.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "dtt: PipelineOptions.trace_path: %s\n",
                   st.message().c_str());
    }
  }
}

DttPipeline::DttPipeline(std::shared_ptr<TextToTextModel> model,
                         PipelineOptions options)
    : DttPipeline(std::vector<std::shared_ptr<TextToTextModel>>{
                      std::move(model)},
                  options) {}

RowPrediction DttPipeline::TransformRow(
    const std::string& source, const std::vector<ExamplePair>& examples,
    Rng* rng) const {
  RowPrediction row;
  row.source = source;
  std::vector<std::vector<std::string>> per_model;
  per_model.reserve(models_.size());
  for (const auto& model : models_) {
    std::vector<Prompt> prompts = decomposer_.MakePrompts(source, examples,
                                                          rng);
    std::vector<std::string> trials;
    trials.reserve(prompts.size());
    for (auto& result : model->TransformBatch(prompts)) {
      trials.push_back(OutputOrAbstain(result));
    }
    per_model.push_back(std::move(trials));
  }
  AggregateResult agg = aggregator_.AggregateMulti(per_model);
  row.prediction = agg.prediction;
  row.confidence = agg.confidence;
  row.support = agg.support;
  return row;
}

std::vector<RowPrediction> DttPipeline::TransformAll(
    const std::vector<std::string>& sources,
    const std::vector<ExamplePair>& examples, Rng* rng) const {
  obs::TraceSpan span("pipeline", "pipeline.transform_all");
  if (span.enabled()) {
    span.Arg("rows", static_cast<int64_t>(sources.size()));
    span.Arg("models", static_cast<int64_t>(models_.size()));
    span.Arg("batch_size", static_cast<int64_t>(options_.batch_size));
    span.Arg("threads", static_cast<int64_t>(options_.num_threads));
  }
  const size_t num_rows = sources.size();
  const size_t num_models = models_.size();

  // Phase 1: materialize every (row, model, trial) prompt. One draw from the
  // caller's stream seeds a per-call base generator — so repeated calls with
  // the same Rng object stay independent — and row r's contexts for model m
  // come from base.Fork(r).Fork(m), a pure function of that draw (the same
  // streams serve::TransformService gives request r). The prompt set is
  // therefore fixed before any dispatch and independent of batch size,
  // thread count and scheduling. Each model's prompts are laid out flat in
  // (row, trial) order; row_end[m][r] is one past row r's last slot.
  std::vector<std::vector<Prompt>> prompts(num_models);
  std::vector<std::vector<size_t>> row_end(num_models);
  {
    obs::TraceSpan decompose_span("pipeline", "pipeline.decompose");
    const Rng base_rng(rng->Next());
    for (size_t m = 0; m < num_models; ++m) row_end[m].reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const Rng row_rng = base_rng.Fork(static_cast<uint64_t>(r));
      for (size_t m = 0; m < num_models; ++m) {
        Rng model_rng = row_rng.Fork(static_cast<uint64_t>(m));
        for (Prompt& prompt :
             decomposer_.MakePrompts(sources[r], examples, &model_rng)) {
          prompts[m].push_back(std::move(prompt));
        }
        row_end[m].push_back(prompts[m].size());
      }
    }
    if (decompose_span.enabled()) {
      size_t total = 0;
      for (const auto& model_prompts : prompts) total += model_prompts.size();
      decompose_span.Arg("prompts", static_cast<int64_t>(total));
    }
  }

  // Phase 2: cut each model's slots into batches of at most batch_size and
  // dispatch. Each batch writes disjoint output slots, so any execution
  // order gives the same outputs. Batches run on the calling thread unless
  // num_threads > 1 and every attached model is thread_safe().
  struct BatchJob {
    size_t model;
    size_t begin;
    size_t end;
  };
  const size_t batch_size =
      static_cast<size_t>(std::max(1, options_.batch_size));
  std::vector<std::vector<std::string>> outputs(num_models);
  std::vector<BatchJob> jobs;
  for (size_t m = 0; m < num_models; ++m) {
    outputs[m].resize(prompts[m].size());
    for (size_t begin = 0; begin < prompts[m].size(); begin += batch_size) {
      jobs.push_back(
          {m, begin, std::min(begin + batch_size, prompts[m].size())});
    }
  }
  auto run_job = [&](size_t ji) {
    const BatchJob& job = jobs[ji];
    std::vector<Prompt>& model_prompts = prompts[job.model];
    const std::vector<Prompt> batch(
        std::make_move_iterator(model_prompts.begin() + job.begin),
        std::make_move_iterator(model_prompts.begin() + job.end));
    const std::vector<Result<std::string>> results =
        models_[job.model]->TransformBatch(batch);
    // A backend that returns fewer results than prompts abstains on the
    // missing tail, exactly as the service's RunBatch treats it.
    for (size_t i = 0; i < batch.size(); ++i) {
      outputs[job.model][job.begin + i] =
          i < results.size() ? OutputOrAbstain(results[i]) : std::string();
    }
  };
  bool parallel_ok = options_.num_threads > 1;
  for (const auto& model : models_) {
    parallel_ok = parallel_ok && model->thread_safe();
  }
  if (parallel_ok) {
    ThreadPool::ParallelFor(options_.num_threads, jobs.size(), run_job);
  } else {
    for (size_t ji = 0; ji < jobs.size(); ++ji) run_job(ji);
  }

  // Phase 3: pool every model's trials per row through the aggregator.
  obs::TraceSpan aggregate_span("pipeline", "pipeline.aggregate");
  std::vector<RowPrediction> out;
  out.reserve(num_rows);
  std::vector<std::vector<std::string>> per_model(num_models);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t m = 0; m < num_models; ++m) {
      auto first = outputs[m].begin() + (r == 0 ? 0 : row_end[m][r - 1]);
      auto last = outputs[m].begin() + row_end[m][r];
      per_model[m].assign(std::make_move_iterator(first),
                          std::make_move_iterator(last));
    }
    AggregateResult agg = aggregator_.AggregateMulti(per_model);
    RowPrediction row;
    row.source = sources[r];
    row.prediction = std::move(agg.prediction);
    row.confidence = agg.confidence;
    row.support = agg.support;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace dtt
