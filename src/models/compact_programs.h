#ifndef DTT_MODELS_COMPACT_PROGRAMS_H_
#define DTT_MODELS_COMPACT_PROGRAMS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "models/alignment.h"

namespace dtt {
namespace induction {

/// A synthesis result as SynthesisMemo keeps it: every program of the list
/// packed into one immutable allocation, laid out as
///
///   header | program table | scores | atoms | atom references | literals
///
/// Programs of one list are variations on a few atoms and share most of
/// their scores, so each distinct score (a double) and each distinct atom is
/// stored once. A program-table row is two 16-bit fields: the index of the
/// program's score and the end of its run of atom references (the run
/// starts where the previous row's ends). An atom is an 8-byte POD: kind and
/// case op in one byte, the separator family, and three 16-bit fields that
/// hold PosRefs (index | from_end << 15) or, for a literal, its length and
/// its offset in the literal pool, where each distinct literal is stored
/// once. A reference is one byte while a list has at most 256 distinct
/// atoms, two otherwise. Programs apply in place through a TokenCache of the
/// input; the list is never decoded back into AtomPrograms. Copies share the
/// allocation.
class CompactPrograms {
 public:
  /// The largest PosRef index the encoding holds.
  static constexpr int kMaxIndex = 0x7FFF;
  /// The largest literal length and literal-pool offset it holds.
  static constexpr size_t kMaxLiteralPool = 0xFFFF;

  /// The empty list (no allocation).
  CompactPrograms() = default;

  /// `programs` in order, or nullopt when a field does not fit: a PosRef
  /// index outside [0, kMaxIndex], a literal whose length or pool offset
  /// exceeds kMaxLiteralPool, more than 65535 programs, or more than 65535
  /// atoms over all programs.
  /// Nothing is ever truncated.
  static std::optional<CompactPrograms> Encode(
      const std::vector<AtomProgram>& programs);

  size_t size() const;
  double score(size_t i) const;

  /// Program i's output on cache.input() into `*out`: exactly what
  /// AtomProgram::Apply returns for the program that was encoded.
  void Apply(size_t i, const TokenCache& cache, std::string* out) const;

  /// Bytes of the allocation; 0 for the empty list.
  size_t bytes() const;

  /// The allocation, shared by every copy; null for the empty list.
  const void* data() const { return words_.get(); }

 private:
  std::shared_ptr<const uint64_t[]> words_;
};

}  // namespace induction
}  // namespace dtt

#endif  // DTT_MODELS_COMPACT_PROGRAMS_H_
