// Shared pieces of the perfbench workload runner: argument parsing, a small
// JSON writer for the raw result document, the neural model shape shared by
// the serve workloads, the serial per-request oracle, the input-property
// accumulators, and the per-layer probes that time calls into the library's
// public functions from outside.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "io/model_artifact.h"
#include "models/model.h"
#include "models/neural_model.h"
#include "text/decomposer.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-ups per run: setup_s is their median, so one slow set-up (a page
/// cache miss, a noisy neighbour) does not move it.
inline constexpr int kSetupRepeats = 31;

/// Served rows per run recomputed by the serial oracle.
inline constexpr size_t kCheckRows = 48;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// `--key value` flags. The parameters that define a workload (its seed,
/// run length, worker or client count, rate ladder) arrive this way from
/// workloads.json; the rest are constants beside the code that uses them.
/// A missing key ends the process with status 2.
class Args {
 public:
  static dtt::Result<Args> Parse(int argc, char** argv);
  const std::string& Str(const std::string& key) const;
  double Num(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  /// A comma-separated list of numbers.
  std::vector<double> Nums(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Ordered JSON object builder for the raw result document.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, std::string_view value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Nums(const std::string& key, const std::vector<double>& values);
  JsonObject& Strs(const std::string& key,
                   const std::vector<std::string>& values);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  JsonObject& Objs(const std::string& key,
                   const std::vector<JsonObject>& values);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Operation accounting of one run: every attempted operation, every
/// failure (mismatch, refusal, unresolved future), and the first few
/// failure messages.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::vector<std::string> messages;
  void Fail(const std::string& message, bool mismatch = false);
  void WriteTo(JsonObject* out) const;
};

/// Raw VmHWM/VmRSS lines of /proc/self/status (parsed by the front end).
std::string ReadProcStatus();

/// Starts a measured memory segment on the calling thread: hands freed
/// heap back to the kernel, so heap that idle malloc arenas kept from
/// earlier segments does not count, and restarts VmHWM. The segment's peak
/// is the VmHWM of the next ReadProcStatus. Segments are fixed amounts of
/// work (a grid pass, a burst or rung, a quarter of requests), so a
/// segment's peak does not depend on how fast the host gets through it.
void StartRssSegment();

/// The neural shape of examples/train_model: dim 48, 4 heads, ff 96, three
/// encoder layers to one decoder layer, 160-token inputs.
dtt::nn::TransformerConfig NeuralShape();

/// Random-initialises the neural shape from `seed`, suppresses the EOS
/// logit (every decode runs to its budget) and writes it as a DTTART1
/// artifact. Untimed preparation.
dtt::Status WriteNeuralArtifact(const std::string& path, uint64_t seed);

struct NeuralBackend {
  dtt::io::ArtifactModel artifact;
  std::shared_ptr<dtt::NeuralSeq2SeqModel> model;
};

/// io::LoadArtifact plus the NeuralSeq2SeqModel wrapper.
dtt::Result<NeuralBackend> LoadNeural(const std::string& path,
                                      int max_output_tokens);

/// The serial per-prompt oracle of one served row: request `index` of a
/// TransformService seeded `service_seed` draws its contexts from
/// Rng(seed).Fork(index).Fork(model); every prompt is decoded alone through
/// Transform and the trials pooled by Aggregator::AggregateMulti.
/// `trials`, when given, receives the per-model trial outputs.
dtt::RowPrediction OracleRow(
    const std::vector<std::shared_ptr<dtt::TextToTextModel>>& models,
    const dtt::DecomposerOptions& decomposer, uint64_t service_seed,
    uint64_t index, const std::string& source,
    const std::vector<dtt::ExamplePair>& examples, int budget,
    std::vector<std::vector<std::string>>* trials = nullptr);

/// Input properties of a stream of prompts, accumulated untimed: example
/// pair and example-set reuse (the ceiling of a synthesis memo), exact
/// prompt repeats (the ceiling of the prompt cache), serialized prompt
/// lengths and the decode-budget mix.
class InputProfile {
 public:
  void AddPrompt(const dtt::Prompt& prompt, int serialized_bytes);
  void AddBudget(bool long_budget) { (long_budget ? long_ : short_)++; }
  void WriteTo(JsonObject* out) const;
  const std::vector<double>& prompt_bytes() const { return prompt_bytes_; }

 private:
  std::unordered_set<std::string> pairs_seen_;
  std::unordered_set<std::string> contexts_seen_;
  std::unordered_set<std::string> prompts_seen_;
  int64_t pair_uses_ = 0, pair_repeats_ = 0;
  int64_t context_uses_ = 0, context_repeats_ = 0;
  int64_t prompt_uses_ = 0, prompt_repeats_ = 0;
  int64_t short_ = 0, long_ = 0;
  std::vector<double> prompt_bytes_;
};

/// Runs model->TransformBatch over `prompts` in chunks of `batch` (the
/// service's micro-batches) and returns each prompt's output, empty when
/// the model abstained; the time spent in TransformBatch is added to
/// `*seconds`.
std::vector<std::string> TransformInBatches(
    dtt::TextToTextModel* model, const std::vector<dtt::Prompt>& prompts,
    size_t batch, double* seconds);

/// Per-layer probe of the neural encoder/decoder on a workload's prompts,
/// serialized through the stream decoder's Prepare: EncodeBatch and
/// GenerateBatch at batch 8, GenerateBatch at batch 1, the stream decoder's
/// Admit and Step driven directly, padding share, and computed GFLOP.
/// Writes the nn.* raw values to `out`.
void ProbeNeural(dtt::NeuralSeq2SeqModel* model,
                 const std::vector<dtt::Prompt>& prompts, JsonObject* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
