#ifndef DTT_TESTS_TESTING_REFERENCE_SYNTHESIS_H_
#define DTT_TESTS_TESTING_REFERENCE_SYNTHESIS_H_

#include <vector>

#include "models/alignment.h"

namespace dtt {
namespace reference_synthesis {

/// The copied-vector beam search that src/models/alignment.cc replaced,
/// frozen verbatim. Same contracts as induction::SynthesizePrograms and
/// induction::SynthesizeCommonPrograms; the production versions must return
/// the same programs (Key()) with the same scores in the same order.
std::vector<induction::AtomProgram> SynthesizePrograms(
    const ExamplePair& ex, const induction::InductionConfig& cfg);

std::vector<induction::AtomProgram> SynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples,
    const induction::InductionConfig& cfg);

}  // namespace reference_synthesis
}  // namespace dtt

#endif  // DTT_TESTS_TESTING_REFERENCE_SYNTHESIS_H_
