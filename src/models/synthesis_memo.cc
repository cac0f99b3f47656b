#include "models/synthesis_memo.h"

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtt {
namespace induction {
namespace {

// The field types of InductionConfig, in order. A field added to or retyped
// in InductionConfig changes its size and fails the assert below; the
// structured binding in Key() fails to compile on a new field too. Either
// way the new field has to join the key before anything builds.
struct KeyedConfigFields {
  bool allow_char_range, allow_token_slice, allow_tokens;
  int max_literal_len, max_atoms, min_char_range_len, min_nonprefix_slice_len,
      beam_width, max_programs;
  std::string separators;
};
static_assert(sizeof(InductionConfig) == sizeof(KeyedConfigFields),
              "InductionConfig changed: add the new field to "
              "SynthesisMemo::Key");

// A self-delimiting varint of zigzag(v): the small values that make up a
// key take one byte each, and keys stay as short as what they hold (the
// memo charges every key against its byte budget).
void AppendInt(int64_t v, std::string* out) {
  uint64_t z = (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  while (z >= 0x80) {
    out->push_back(static_cast<char>(z | 0x80));
    z >>= 7;
  }
  out->push_back(static_cast<char>(z));
}

void AppendBytes(const std::string& s, std::string* out) {
  AppendInt(static_cast<int64_t>(s.size()), out);
  *out += s;
}

}  // namespace

void ProgramList::Apply(size_t i, const TokenCache& cache,
                        std::string* out) const {
  if (!uncached_) {
    compact_.Apply(i, cache, out);
    return;
  }
  std::optional<std::string> applied = (*uncached_)[i].Apply(cache);
  if (applied) {
    *out = std::move(*applied);
  } else {
    out->clear();
  }
}

size_t ProgramList::FirstApplicable(const TokenCache& cache, std::string* out,
                                    size_t from) const {
  const size_t n = size();
  for (size_t i = from; i < n; ++i) {
    Apply(i, cache, out);
    if (!out->empty()) return i;
  }
  return n;
}

SynthesisMemo::SynthesisMemo(size_t byte_budget, int num_shards,
                             const std::string& metrics_prefix)
    : cache_(byte_budget, num_shards, metrics_prefix, "bytes") {
  if (!metrics_prefix.empty()) {
    uncached_counter_ =
        obs::MetricsRegistry::Global().GetCounter(metrics_prefix + ".uncached");
  }
}

std::string SynthesisMemo::Key(const ExamplePair* examples, size_t n,
                               const InductionConfig& cfg) {
  const auto& [allow_char_range, allow_token_slice, allow_tokens,
               max_literal_len, max_atoms, min_char_range_len,
               min_nonprefix_slice_len, beam_width, max_programs,
               separators] = cfg;
  std::string key;
  key.push_back(static_cast<char>(allow_char_range));
  key.push_back(static_cast<char>(allow_token_slice));
  key.push_back(static_cast<char>(allow_tokens));
  for (int v : {max_literal_len, max_atoms, min_char_range_len,
                min_nonprefix_slice_len, beam_width, max_programs}) {
    AppendInt(v, &key);
  }
  AppendBytes(separators, &key);
  AppendInt(static_cast<int64_t>(n), &key);
  for (size_t i = 0; i < n; ++i) {
    AppendBytes(examples[i].source, &key);
    AppendBytes(examples[i].target, &key);
  }
  return key;
}

template <typename Synthesize>
ProgramList SynthesisMemo::GetOrSynthesize(const std::string& key,
                                           const char* span_name,
                                           size_t num_examples,
                                           Synthesize synthesize) {
  if (auto hit = cache_.Get(key)) return ProgramList(std::move(*hit));
  obs::TraceSpan span("models", span_name);
  std::vector<AtomProgram> programs = synthesize();
  if (span.enabled()) {
    span.Arg("examples", static_cast<int64_t>(num_examples));
    span.Arg("programs", static_cast<int64_t>(programs.size()));
  }
  std::optional<CompactPrograms> compact = CompactPrograms::Encode(programs);
  if (compact && cache_.Put(key, *compact, key.size() + compact->bytes())) {
    return ProgramList(std::move(*compact));
  }
  ++uncached_;
  if (uncached_counter_ != nullptr) uncached_counter_->Increment();
  return compact ? ProgramList(std::move(*compact))
                 : ProgramList(std::move(programs));
}

ProgramList SynthesisMemo::Programs(const ExamplePair& ex,
                                    const InductionConfig& cfg) {
  return GetOrSynthesize(Key(&ex, 1, cfg), "models.synthesize", 1,
                         [&] { return SynthesizePrograms(ex, cfg); });
}

ProgramList SynthesisMemo::CommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg) {
  if (examples.size() == 1) return Programs(examples[0], cfg);
  return GetOrSynthesize(
      Key(examples.data(), examples.size(), cfg),
      "models.joint_synthesize", examples.size(),
      [&] { return SynthesizeCommonPrograms(examples, cfg); });
}

SynthesisMemo& SynthesisMemo::Shared() {
  // Leaked so worker threads may still use it during static destruction.
  static SynthesisMemo* memo = new SynthesisMemo(
      kSynthesisMemoBytes, /*num_shards=*/8, "models.synth_cache");
  return *memo;
}

}  // namespace induction
}  // namespace dtt
