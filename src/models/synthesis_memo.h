#ifndef DTT_MODELS_SYNTHESIS_MEMO_H_
#define DTT_MODELS_SYNTHESIS_MEMO_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "models/alignment.h"
#include "models/compact_programs.h"
#include "util/lru_cache.h"

namespace dtt {
namespace obs {
class Counter;
}  // namespace obs

namespace induction {

/// Byte budget of the shared memo. An entry is charged its key plus its
/// CompactPrograms allocation: a few hundred bytes for a typical paper-grid
/// context, about 6,000 entries in all, and the LRU bookkeeping adds ~180
/// uncharged bytes per entry. A 1/2/4 MiB sweep on perfbench grid_join
/// (seed 1, shared 4-vCPU host, 3 runs each) gave 18.7k/24.8k/29.5k rows/s
/// at a peak RSS of 11.3/12.6/15.3 MB, against 9.9k rows/s and 12.3 MB for
/// the former memo of 64 AtomProgram-vector entries: 2 MiB takes most of the
/// speed-up for ~2% more memory, 4 MiB costs 25% more.
constexpr size_t kSynthesisMemoBytes = size_t{2} << 20;

/// What the memo returns: a synthesis result in its compact encoding or,
/// for a result with a field the encoding cannot hold, the programs
/// themselves, uncached. Cheap to copy; the programs are shared and
/// immutable.
class ProgramList {
 public:
  explicit ProgramList(CompactPrograms compact)
      : compact_(std::move(compact)) {}
  explicit ProgramList(std::vector<AtomProgram> uncached)
      : uncached_(std::make_shared<const std::vector<AtomProgram>>(
            std::move(uncached))) {}

  size_t size() const {
    return uncached_ ? uncached_->size() : compact_.size();
  }
  double score(size_t i) const {
    return uncached_ ? (*uncached_)[i].score : compact_.score(i);
  }

  /// Program i's output on cache.input() into `*out` (empty when the
  /// program does not apply).
  void Apply(size_t i, const TokenCache& cache, std::string* out) const;

  /// The first program at or after `from` whose output on cache.input() is
  /// non-empty, with that output in `*out`; size() when there is none.
  size_t FirstApplicable(const TokenCache& cache, std::string* out,
                         size_t from = 0) const;

  /// Whether this is the compact encoding (the memo may hold it).
  bool compact() const { return !uncached_; }

  /// The shared storage, equal between copies of one result; null when
  /// empty.
  const void* data() const {
    return uncached_ ? static_cast<const void*>(uncached_.get())
                     : compact_.data();
  }

 private:
  CompactPrograms compact_;
  std::shared_ptr<const std::vector<AtomProgram>> uncached_;
};

/// A byte-bounded, thread-safe memo in front of SynthesizePrograms and
/// SynthesizeCommonPrograms. Both are pure functions of (config, ordered
/// examples), so a hit returns exactly what the uncached call would, in the
/// very storage the first caller got. It keeps CompactPrograms, each charged
/// its key plus its allocation against the budget. A result the encoding
/// cannot hold, or one charged more than a shard's whole budget, is returned
/// uncached and counted (uncached()). Concurrent misses on one key both
/// synthesize; the later Put overwrites an identical value.
class SynthesisMemo {
 public:
  /// `byte_budget` over `num_shards` LRU shards. A non-empty
  /// `metrics_prefix` mirrors hits/misses/insertions/evictions and the
  /// uncached count onto global counters, and the resident bytes onto the
  /// gauge "<prefix>.bytes" (see ShardedLruCache).
  SynthesisMemo(size_t byte_budget, int num_shards = 8,
                const std::string& metrics_prefix = "");

  /// SynthesizePrograms(ex, cfg), memoized.
  ProgramList Programs(const ExamplePair& ex, const InductionConfig& cfg);

  /// SynthesizeCommonPrograms(examples, cfg), memoized. A one-example set
  /// is the single-pair call and shares its entry.
  ProgramList CommonPrograms(const std::vector<ExamplePair>& examples,
                             const InductionConfig& cfg);

  /// Cache counters; `charge` is the resident bytes.
  LruCacheStats stats() const { return cache_.stats(); }

  /// Results returned without being kept.
  uint64_t uncached() const { return uncached_.load(); }

  /// The memo PatternInductionModel and KnowledgeLM share:
  /// kSynthesisMemoBytes mirrored onto "models.synth_cache.*", built on
  /// first use.
  static SynthesisMemo& Shared();

  /// The memo key of `examples[0, n)` under `cfg`: every InductionConfig
  /// field, then the examples in order, each length-prefixed.
  static std::string Key(const ExamplePair* examples, size_t n,
                         const InductionConfig& cfg);

 private:
  // The result of `synthesize` under `key`, run (inside a `span_name` span,
  // so traces show misses only) when the key is absent.
  template <typename Synthesize>
  ProgramList GetOrSynthesize(const std::string& key, const char* span_name,
                              size_t num_examples, Synthesize synthesize);

  ShardedLruCache<CompactPrograms> cache_;
  std::atomic<uint64_t> uncached_{0};
  obs::Counter* uncached_counter_ = nullptr;
};

}  // namespace induction
}  // namespace dtt

#endif  // DTT_MODELS_SYNTHESIS_MEMO_H_
