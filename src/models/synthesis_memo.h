#ifndef DTT_MODELS_SYNTHESIS_MEMO_H_
#define DTT_MODELS_SYNTHESIS_MEMO_H_

#include <memory>
#include <string>
#include <vector>

#include "models/alignment.h"
#include "util/lru_cache.h"

namespace dtt {
namespace induction {

/// Entries of the shared memo. One entry holds up to max_programs programs
/// (a few KB to tens of KB), so the bound sets the memo's share of the
/// resident set: 64 already catches the runs of repeated example sets that
/// the paper grid and the serving path produce, while a few hundred entries
/// grow the serving peak past what the memo saves.
constexpr size_t kSynthesisMemoCapacity = 64;

/// An immutable synthesis result, shared between the memo and its callers.
using ProgramList = std::shared_ptr<const std::vector<AtomProgram>>;

/// A bounded, thread-safe memo in front of SynthesizePrograms and
/// SynthesizeCommonPrograms. Both are pure functions of (config, ordered
/// examples), so a hit returns exactly what the uncached call would, as the
/// very object the first caller got. Concurrent misses on one key both
/// synthesize; the later Put overwrites an identical value.
class SynthesisMemo {
 public:
  /// `capacity` entries over `num_shards` LRU shards; a non-empty
  /// `metrics_prefix` mirrors hits/misses/insertions/evictions onto global
  /// counters (see ShardedLruCache).
  SynthesisMemo(size_t capacity, int num_shards = 8,
                const std::string& metrics_prefix = "");

  /// SynthesizePrograms(ex, cfg), memoized.
  ProgramList Programs(const ExamplePair& ex, const InductionConfig& cfg);

  /// SynthesizeCommonPrograms(examples, cfg), memoized. A one-example set
  /// is the single-pair call and shares its entry.
  ProgramList CommonPrograms(const std::vector<ExamplePair>& examples,
                             const InductionConfig& cfg);

  LruCacheStats stats() const { return cache_.stats(); }

  /// The memo PatternInductionModel and KnowledgeLM share:
  /// kSynthesisMemoCapacity entries mirrored onto "models.synth_cache.*",
  /// built on first use.
  static SynthesisMemo& Shared();

  /// The memo key of `examples[0, n)` under `cfg`: every InductionConfig
  /// field, then the examples in order, each length-prefixed.
  static std::string Key(const ExamplePair* examples, size_t n,
                         const InductionConfig& cfg);

 private:
  ShardedLruCache<ProgramList> cache_;
};

}  // namespace induction
}  // namespace dtt

#endif  // DTT_MODELS_SYNTHESIS_MEMO_H_
