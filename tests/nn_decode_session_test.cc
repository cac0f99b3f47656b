// DecodeSession pinned to the autograd reference decoder
// (testing/reference_decode.h): the step-resumable slotted engine must
// reproduce per-sequence greedy decoding bit-for-bit under every admission
// schedule — single slot == greedy, group admits == the fixed batch,
// interleaved mid-decode admits == the same sequences in any batch
// permutation — and keep that identity across mid-decode eviction, slot
// reuse, and KV compaction. Its preconditions abort in every build type.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/decode_session.h"
#include "nn/transformer.h"
#include "testing/reference_decode.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace dtt {
namespace {

nn::TransformerConfig TinyConfig() {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 96;
  return cfg;
}

std::vector<int> RandomIds(int len, Rng* rng) {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    ids.push_back(
        Vocab::ByteToken(static_cast<uint8_t>(rng->NextBounded(256))));
  }
  return ids;
}

/// Steps until every admitted sequence in `handles` is done.
void RunToDone(nn::DecodeSession* session, const std::vector<int>& handles) {
  for (int guard = 0; guard < 1024; ++guard) {
    bool all = true;
    for (int h : handles) {
      if (!session->done(h)) all = false;
    }
    if (all) return;
    session->Step();
  }
  FAIL() << "decode did not finish within the step guard";
}

TEST(DecodeSessionTest, SingleSlotMatchesGreedyDecode) {
  Rng rng(3101);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3102);
  const std::vector<int> input = RandomIds(9, &data_rng);
  auto session = model.NewDecodeSession({4, 24});
  const int handle = session->Admit(input);
  RunToDone(session.get(), {handle});
  EXPECT_EQ(session->output(handle),
            reference_decode::GreedyDecode(model, input, 24));
  EXPECT_EQ(session->stats().admitted, 1u);
  EXPECT_EQ(session->stats().finished, 1u);
}

TEST(DecodeSessionTest, GroupAdmitMatchesGenerateBatch) {
  Rng rng(3111);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3112);
  std::vector<std::vector<int>> inputs;
  for (int len : {3, 11, 7, 1}) inputs.push_back(RandomIds(len, &data_rng));
  auto session = model.NewDecodeSession({4, 20});
  std::vector<nn::DecodeSession::Admission> group;
  for (const auto& ids : inputs) group.push_back({ids, 0});
  std::vector<int> handles = session->Admit(group);
  ASSERT_EQ(handles.size(), inputs.size());
  RunToDone(session.get(), handles);
  std::vector<std::vector<int>> golden = model.GenerateBatch(inputs, 20);
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(session->output(handles[i]), golden[i]) << "sequence " << i;
  }
  EXPECT_EQ(session->stats().admit_groups, 1u);
}

TEST(DecodeSessionTest, InterleavedAdmitsMatchPermutedBatch) {
  Rng rng(3121);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3122);
  const std::vector<int> a = RandomIds(8, &data_rng);
  const std::vector<int> b = RandomIds(4, &data_rng);
  const std::vector<int> c = RandomIds(12, &data_rng);
  auto session = model.NewDecodeSession({4, 24});
  const int ha = session->Admit(a);
  session->Step();
  session->Step();
  const int hb = session->Admit(b);  // joins mid-decode, 2 steps behind
  session->Step();
  const int hc = session->Admit(c);  // joins later still
  RunToDone(session.get(), {ha, hb, hc});
  // Whatever the admission schedule, each sequence's output equals its
  // GenerateBatch result — in any batch permutation.
  std::vector<std::vector<int>> golden = model.GenerateBatch({c, a, b}, 24);
  EXPECT_EQ(session->output(ha), golden[1]);
  EXPECT_EQ(session->output(hb), golden[2]);
  EXPECT_EQ(session->output(hc), golden[0]);
}

TEST(DecodeSessionTest, PerSlotBudgetMatchesBudgetedGreedy) {
  Rng rng(3131);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3132);
  const std::vector<int> lo = RandomIds(6, &data_rng);
  const std::vector<int> hi = RandomIds(6, &data_rng);
  auto session = model.NewDecodeSession({2, 32});
  const int hlo = session->Admit(lo, 5);  // per-slot budget below the cap
  const int hhi = session->Admit(hi);     // session default (32)
  RunToDone(session.get(), {hlo, hhi});
  EXPECT_EQ(session->output(hlo), reference_decode::GreedyDecode(model, lo, 5));
  EXPECT_EQ(session->output(hhi),
            reference_decode::GreedyDecode(model, hi, 32));
  EXPECT_LE(session->output(hlo).size(), 5u);
}

TEST(DecodeSessionTest, EvictMidDecodeLeavesOthersBitExact) {
  Rng rng(3141);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3142);
  const std::vector<int> a = RandomIds(10, &data_rng);
  const std::vector<int> b = RandomIds(5, &data_rng);
  const std::vector<int> c = RandomIds(7, &data_rng);
  auto session = model.NewDecodeSession({3, 24});
  std::vector<int> handles = session->Admit({{a, 0}, {b, 0}, {c, 0}});
  session->Step();
  session->Step();
  session->Release(handles[1]);  // abandon b mid-decode
  EXPECT_EQ(session->stats().evictions, 1u);
  EXPECT_EQ(session->active_slots(), 2);
  RunToDone(session.get(), {handles[0], handles[2]});
  EXPECT_EQ(session->output(handles[0]),
            reference_decode::GreedyDecode(model, a, 24));
  EXPECT_EQ(session->output(handles[2]),
            reference_decode::GreedyDecode(model, c, 24));
}

TEST(DecodeSessionTest, CompactMovesRowsAndPreservesOutputs) {
  Rng rng(3151);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3152);
  const std::vector<int> a = RandomIds(9, &data_rng);
  const std::vector<int> b = RandomIds(6, &data_rng);
  const std::vector<int> c = RandomIds(13, &data_rng);
  auto session = model.NewDecodeSession({3, 24});
  std::vector<int> handles = session->Admit({{a, 0}, {b, 0}, {c, 0}});
  session->Step();
  session->Step();
  session->Step();
  EXPECT_EQ(session->Compact(), 0) << "dense session should not move rows";
  session->Release(handles[1]);  // hole in the middle of the physical rows
  EXPECT_GT(session->Compact(), 0);
  EXPECT_GT(session->stats().compact_moves, 0u);
  // Handles are stable across compaction and the decode continues bit-exact.
  RunToDone(session.get(), {handles[0], handles[2]});
  EXPECT_EQ(session->output(handles[0]),
            reference_decode::GreedyDecode(model, a, 24));
  EXPECT_EQ(session->output(handles[2]),
            reference_decode::GreedyDecode(model, c, 24));
}

TEST(DecodeSessionTest, SlotReuseAfterReleaseMatchesFreshDecode) {
  Rng rng(3161);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3162);
  auto session = model.NewDecodeSession({2, 16});
  EXPECT_EQ(session->free_slots(), 2);
  const std::vector<int> a = RandomIds(7, &data_rng);
  const std::vector<int> b = RandomIds(7, &data_rng);
  std::vector<int> first = session->Admit({{a, 0}, {b, 0}});
  EXPECT_EQ(session->free_slots(), 0);
  RunToDone(session.get(), first);
  EXPECT_EQ(session->output(first[0]),
            reference_decode::GreedyDecode(model, a, 16));
  session->Release(first[0]);
  session->Release(first[1]);
  EXPECT_EQ(session->free_slots(), 2);
  // The reused slots must behave exactly like a fresh session: no state of
  // the previous residents may leak into the new decodes.
  const std::vector<int> c = RandomIds(9, &data_rng);
  const std::vector<int> d = RandomIds(3, &data_rng);
  std::vector<int> second = session->Admit({{c, 0}, {d, 0}});
  RunToDone(session.get(), second);
  EXPECT_EQ(session->output(second[0]),
            reference_decode::GreedyDecode(model, c, 16));
  EXPECT_EQ(session->output(second[1]),
            reference_decode::GreedyDecode(model, d, 16));
  EXPECT_EQ(session->stats().admitted, 4u);
  EXPECT_EQ(session->stats().admit_groups, 2u);
}

TEST(DecodeSessionTest, StepOnEmptySessionReturnsNothing) {
  Rng rng(3171);
  nn::Transformer model(TinyConfig(), &rng);
  auto session = model.NewDecodeSession({2, 8});
  EXPECT_TRUE(session->Step().empty());
  EXPECT_EQ(session->stats().steps, 0u);
}

// Preconditions are checked in every build type, not only under assert:
// an over-length prompt would otherwise overrun its slot's cross-attention
// cache, and an over-full group would run out of KV rows.
TEST(DecodeSessionDeathTest, OverLengthInputAborts) {
  Rng rng(3181);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3182);
  const std::vector<int> too_long =
      RandomIds(model.config().max_len + 1, &data_rng);
  auto session = model.NewDecodeSession({2, 8});
  EXPECT_DEATH(session->Admit(too_long), "CHECK failed");
  EXPECT_DEATH(model.GenerateBatch({too_long}, 8), "CHECK failed");
}

TEST(DecodeSessionDeathTest, GroupLargerThanFreeSlotsAborts) {
  Rng rng(3191);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3192);
  const std::vector<int> a = RandomIds(5, &data_rng);
  auto session = model.NewDecodeSession({2, 8});
  EXPECT_DEATH(session->Admit({{a, 0}, {a, 0}, {a, 0}}), "free_slots");
  session->Admit(a);
  EXPECT_DEATH(session->Admit({{a, 0}, {a, 0}}), "free_slots");
}

TEST(DecodeSessionDeathTest, InvalidSlotHandleAborts) {
  Rng rng(3201);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(3202);
  auto session = model.NewDecodeSession({2, 8});
  const int handle = session->Admit(RandomIds(5, &data_rng));
  session->Release(handle);
  // Released, never admitted, and out-of-range handles.
  EXPECT_DEATH(session->done(handle), "CHECK failed");
  EXPECT_DEATH(session->output(1), "CHECK failed");
  EXPECT_DEATH(session->output(-1), "CHECK failed");
  EXPECT_DEATH(session->Release(2), "CHECK failed");
}

}  // namespace
}  // namespace dtt
