#ifndef DTT_CORE_PIPELINE_H_
#define DTT_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "models/model.h"
#include "text/decomposer.h"

namespace dtt {

/// Aggregated prediction for one source row.
struct RowPrediction {
  std::string source;
  std::string prediction;  // empty = abstained
  double confidence = 0.0;
  int support = 0;
};

/// End-to-end DTT options: decomposition (k, n) per §4.1/§5.3 plus the
/// inference batching/sharding knobs.
struct PipelineOptions {
  DecomposerOptions decomposer;
  SerializerOptions serializer;
  /// Prompts per TransformBatch dispatch in TransformAll: each model's
  /// prompts are cut into batches of this size. Grouping changes
  /// throughput, not predictions.
  int batch_size = 16;
  /// Worker threads TransformAll shards those batches across. 1 (the
  /// default) runs every batch on the calling thread; above 1, batches go
  /// to a ThreadPool only when every attached model is thread_safe(), and
  /// otherwise still run on the calling thread. Predictions are identical
  /// for any thread count.
  int num_threads = 1;
  /// When non-empty, enables Chrome-trace span recording (obs/trace.h) and
  /// writes the trace-event JSON to this path at StopTracing / process
  /// exit. Applied at pipeline construction and process-global: equivalent
  /// to DTT_TRACE=<path> in the environment.
  /// Tracing only observes — predictions are bit-identical with it on.
  std::string trace_path;
};

/// The DTT framework of Figure 2: decomposer + serializer + model(s) +
/// aggregator. One or more models may be attached; each runs
/// `decomposer.num_trials` trials per row and all trials are pooled in the
/// aggregator (the §5.7 multi-model configuration).
class DttPipeline {
 public:
  DttPipeline(std::vector<std::shared_ptr<TextToTextModel>> models,
              PipelineOptions options = {});

  /// Single-model convenience constructor.
  DttPipeline(std::shared_ptr<TextToTextModel> model,
              PipelineOptions options = {});

  /// Transforms one source row given the example set, drawing trial contexts
  /// from `rng` directly (sequentially deterministic for a given seed).
  RowPrediction TransformRow(const std::string& source,
                             const std::vector<ExamplePair>& examples,
                             Rng* rng) const;

  /// Transforms every source row (the R of Eq. 1) offline, in three
  /// phases: one draw from `rng` seeds a per-call base stream and every
  /// (row, model, trial) prompt is materialized from base.Fork(row)
  /// .Fork(model); each model's prompts are cut into options().batch_size
  /// TransformBatch dispatches (see PipelineOptions::num_threads for where
  /// they run); each row's trials are pooled through the aggregator.
  /// Predictions do not depend on batch size or thread count, and repeated
  /// calls with the same rng stay independent. A backend that returns
  /// fewer results than prompts abstains on the missing ones.
  ///
  /// serve::TransformService is the online path over the same streams:
  /// submitting rows 0..n-1 in order to a service seeded with the same
  /// single draw reproduces TransformAll bit-for-bit (serve_service_test).
  std::vector<RowPrediction> TransformAll(
      const std::vector<std::string>& sources,
      const std::vector<ExamplePair>& examples, Rng* rng) const;

  const PipelineOptions& options() const { return options_; }
  const std::vector<std::shared_ptr<TextToTextModel>>& models() const {
    return models_;
  }

 private:
  std::vector<std::shared_ptr<TextToTextModel>> models_;
  PipelineOptions options_;
  Decomposer decomposer_;
  Aggregator aggregator_;
};

}  // namespace dtt

#endif  // DTT_CORE_PIPELINE_H_
