#include "models/knowledge_lm.h"

#include <cctype>

#include "models/noisy_model.h"
#include "models/synthesis_memo.h"
#include "util/string_util.h"

namespace dtt {

KnowledgeLM::KnowledgeLM(KnowledgeLMOptions options)
    : options_(std::move(options)) {
  if (!options_.kb) options_.kb = KnowledgeBase::Builtin();
  // Degraded mode: no sub-token alignment on unfamiliar byte soup.
  options_.random_text.allow_char_range = false;
  options_.random_text.allow_token_slice = false;
}

double KnowledgeLM::Naturalness(const Prompt& prompt,
                                std::string_view separators) {
  std::vector<std::string_view> cells;
  for (const auto& ex : prompt.examples) {
    cells.push_back(ex.source);
    cells.push_back(ex.target);
  }
  cells.push_back(prompt.source);
  return ContentNaturalness(cells, separators);
}

Result<std::string> KnowledgeLM::Transform(const Prompt& prompt) {
  if (prompt.examples.empty()) {
    return Status::InvalidArgument(
        "KnowledgeLM requires at least one context example (zero-shot table "
        "transformation is ill-posed, §5.6)");
  }
  Serializer serializer;
  Rng rng =
      Rng(options_.seed).Fork(Rng::HashString(serializer.RenderPrompt(prompt)));
  const size_t k = prompt.examples.size();
  const double noise =
      options_.generation_noise * 2.0 / static_cast<double>(k + 1);

  // 1. World knowledge: examples grounded in a KB relation.
  auto rels = options_.kb->MatchingRelations(prompt.examples);
  for (const auto* rel : rels) {
    auto v = rel->Lookup(prompt.source);
    if (v) return *v;
  }

  // 2. Whole-string character replacement (reversal intentionally absent).
  auto global = induction::DetectGlobalPattern(
      prompt.examples, options_.detect_replace, options_.detect_reverse);
  if (global) {
    std::string exact = global->Apply(prompt.source);
    double err = global->kind == induction::GlobalPattern::Kind::kCharReplace
                     ? options_.replace_noise
                     : noise;
    // One-example replace hypotheses are shaky: sometimes the model follows a
    // different reading of the single example.
    if (k == 1 && rng.NextBool(0.5)) {
      return CorruptChars(prompt.source, options_.echo_noise, &rng);
    }
    return CorruptChars(exact, err, &rng);
  }

  // 3. Content-dependent program induction.
  double naturalness = Naturalness(prompt, options_.natural.separators);
  induction::InductionConfig cfg;
  if (naturalness >= options_.naturalness_threshold) {
    cfg = options_.natural;
  } else {
    cfg = options_.random_text;
    // Occasionally the LLM still "sees" the character-level alignment.
    if (rng.NextBool(options_.char_range_prob)) {
      cfg.allow_char_range = true;
      cfg.allow_token_slice = true;
    }
  }

  // Every candidate applies through one tokenization of the input.
  induction::SynthesisMemo& memo = induction::SynthesisMemo::Shared();
  const induction::TokenCache input(prompt.source, cfg.separators);
  std::string out;
  if (k == 1) {
    // A single example underdetermines the transformation: sometimes the
    // model mis-reads the task entirely and rambles ...
    if (rng.NextBool(options_.one_example_fail_prob)) {
      return CorruptChars(prompt.source, options_.echo_noise, &rng);
    }
    // ... otherwise it samples among the top candidate programs (both are
    // the Figure 3 one-shot failure mode).
    const induction::ProgramList programs =
        memo.Programs(prompt.examples[0], cfg);
    std::vector<std::string> applicable;
    size_t i = programs.FirstApplicable(input, &out);
    while (i < programs.size()) {
      applicable.push_back(out);
      if (static_cast<int>(applicable.size()) >= options_.one_example_top_n) {
        break;
      }
      i = programs.FirstApplicable(input, &out, i + 1);
    }
    if (!applicable.empty()) {
      return CorruptChars(applicable[rng.NextBounded(applicable.size())],
                          noise, &rng);
    }
  } else {
    const induction::ProgramList programs =
        memo.CommonPrograms(prompt.examples, cfg);
    if (programs.FirstApplicable(input, &out) < programs.size()) {
      return CorruptChars(out, noise, &rng);
    }
    // Inconsistent context: follow the first example alone half the time.
    if (rng.NextBool(0.5)) {
      const induction::ProgramList singles =
          memo.Programs(prompt.examples[0], cfg);
      if (singles.FirstApplicable(input, &out) < singles.size()) {
        return CorruptChars(out, noise, &rng);
      }
    }
  }

  // 4. Lost: echo the input (LLMs rarely emit nothing). The echo is noisy
  // and context-seeded, so trials disagree and the aggregator discounts it.
  if (rng.NextBool(options_.echo_prob)) {
    return CorruptChars(prompt.source, options_.echo_noise, &rng);
  }
  return std::string();
}

}  // namespace dtt
