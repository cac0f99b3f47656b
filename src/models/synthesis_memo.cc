#include "models/synthesis_memo.h"

#include <cstdint>
#include <cstring>

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

void AppendInt(int64_t v, std::string* out) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out->append(bytes, sizeof(v));
}

void AppendBytes(const std::string& s, std::string* out) {
  AppendInt(static_cast<int64_t>(s.size()), out);
  *out += s;
}

}  // namespace

SynthesisMemo::SynthesisMemo(size_t capacity, int num_shards,
                             const std::string& metrics_prefix)
    : cache_(capacity, num_shards, metrics_prefix) {}

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

namespace {

// The memoized value of `key`, running `synthesize` (under a `span_name`
// span, so traces show misses only) when it is absent.
template <typename Synthesize>
ProgramList GetOrSynthesize(ShardedLruCache<ProgramList>* cache,
                            const std::string& key, const char* span_name,
                            size_t num_examples, Synthesize synthesize) {
  if (auto hit = cache->Get(key)) return *hit;
  obs::TraceSpan span("models", span_name);
  ProgramList programs =
      std::make_shared<const std::vector<AtomProgram>>(synthesize());
  if (span.enabled()) {
    span.Arg("examples", static_cast<int64_t>(num_examples));
    span.Arg("programs", static_cast<int64_t>(programs->size()));
  }
  cache->Put(key, programs);
  return programs;
}

}  // namespace

ProgramList SynthesisMemo::Programs(const ExamplePair& ex,
                                    const InductionConfig& cfg) {
  return GetOrSynthesize(&cache_, Key(&ex, 1, cfg), "models.synthesize", 1,
                         [&] { return SynthesizePrograms(ex, cfg); });
}

ProgramList SynthesisMemo::CommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg) {
  if (examples.size() == 1) return Programs(examples[0], cfg);
  return GetOrSynthesize(
      &cache_, Key(examples.data(), examples.size(), cfg),
      "models.joint_synthesize", examples.size(),
      [&] { return SynthesizeCommonPrograms(examples, cfg); });
}

SynthesisMemo& SynthesisMemo::Shared() {
  // Leaked so worker threads may still use it during static destruction.
  static SynthesisMemo* memo = new SynthesisMemo(
      kSynthesisMemoCapacity, /*num_shards=*/8, "models.synth_cache");
  return *memo;
}

}  // namespace induction
}  // namespace dtt
