#ifndef DTT_TESTS_TESTING_REFERENCE_DECODE_H_
#define DTT_TESTS_TESTING_REFERENCE_DECODE_H_

#include <vector>

#include "nn/transformer.h"

namespace dtt {
namespace reference_decode {

/// Per-sequence greedy decoding on the autograd graph: re-runs
/// Transformer::DecodeLogits over the whole prefix at every step and takes
/// the argmax of the last row, until <eos>, `max_steps`, or the model's
/// length limit. Returns the generated ids (without <sos>/<eos>). The
/// independent oracle for the graph-free DecodeSession engine behind
/// GenerateBatch and Transform.
std::vector<int> GreedyDecode(const nn::Transformer& model,
                              const std::vector<int>& input_ids,
                              int max_steps);

/// Per-prompt beam search on the autograd graph; returns the best
/// hypothesis. The bit-exactness oracle for Transformer::BeamDecodeBatch
/// (nn_beam_test), which holds only while the scoring arithmetic here
/// (float log-softmax reads, double score sums, the exact partial_sort/sort
/// calls) stays untouched.
std::vector<int> BeamDecode(const nn::Transformer& model,
                            const std::vector<int>& input_ids, int max_steps,
                            int beam_size);

}  // namespace reference_decode
}  // namespace dtt

#endif  // DTT_TESTS_TESTING_REFERENCE_DECODE_H_
