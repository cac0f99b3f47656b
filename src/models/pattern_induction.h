#ifndef DTT_MODELS_PATTERN_INDUCTION_H_
#define DTT_MODELS_PATTERN_INDUCTION_H_

#include <memory>

#include "data/knowledge_base.h"
#include "models/alignment.h"
#include "models/model.h"
#include "util/rng.h"

namespace dtt {

/// Behavioural knobs of the simulated fine-tuned byte-level model. The
/// defaults are calibrated to the qualitative profile §5.5 reports for DTT:
/// near-exact outputs on transformations expressible as character-level copy
/// programs, lossy-but-joinable outputs on whole-string reversal (the paper
/// measures ANED 0.85 with F1 0.63 on Syn-RV), tiny generation noise
/// elsewhere, and limited world knowledge (a subsampled KB).
struct PatternInductionOptions {
  induction::InductionConfig induction;
  bool detect_reverse = true;
  bool detect_replace = true;
  /// Per-character probability of emitting the *correct* character when
  /// realizing a reversal (auto-regressive degradation on a transformation
  /// never seen in training, §5.9). Errors substitute, drop or double
  /// characters, so length drifts as well.
  double reverse_fidelity = 0.21;
  /// Per-character error rate when realizing a character-replacement pattern.
  double replace_noise = 0.01;
  /// Per-character error rate on ordinary program outputs.
  double generation_noise = 0.005;
  /// When no program is consistent with all context examples, fall back to
  /// the best program of a single example (produces plausible-but-wrong
  /// predictions the aggregator can out-vote).
  bool fallback_single_example = true;
  /// Optional world knowledge (pass KnowledgeBase::Builtin()->Subsample(...)
  /// to model the limited prior knowledge of a small fine-tuned model).
  std::shared_ptr<const KnowledgeBase> kb;
  uint64_t seed = 0xD77;
};

/// Simulated fine-tuned ByT5: an example-driven character-level program
/// synthesizer with the behavioural envelope of the paper's DTT model
/// (docs/design.md §1 documents the substitution).
class PatternInductionModel : public TextToTextModel {
 public:
  explicit PatternInductionModel(PatternInductionOptions options = {});

  std::string name() const override { return "dtt"; }
  Result<std::string> Transform(const Prompt& prompt) override;

  /// Transform derives its RNG purely from (seed, prompt) and keeps no
  /// mutable state, so concurrent calls are safe and deterministic.
  bool thread_safe() const override { return true; }

  const PatternInductionOptions& options() const { return options_; }

 private:
  PatternInductionOptions options_;
};

}  // namespace dtt

#endif  // DTT_MODELS_PATTERN_INDUCTION_H_
