// The compact program encoding against its oracle, AtomProgram::Apply: every
// program of every list synthesized over a seeded sample of the paper
// datasets' contexts must produce the same output, with the same score, on
// the examples' own sources and on shorter, longer and separator-free
// inputs; and a field the encoding cannot hold must fail the encoding
// rather than be truncated.
#include "models/compact_programs.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/experiment.h"
#include "models/synthesis_memo.h"
#include "util/rng.h"

namespace dtt {
namespace induction {
namespace {

std::vector<InductionConfig> Configs() {
  std::vector<InductionConfig> configs(2);
  // KnowledgeLM's degraded random-text mode.
  configs[1].allow_char_range = false;
  configs[1].allow_token_slice = false;
  return configs;
}

// Inputs to apply the programs of `context` to.
std::vector<std::string> Inputs(const std::vector<ExamplePair>& context,
                                const std::string& other,
                                const std::string& separators) {
  std::vector<std::string> inputs = {other, "", "x", "abcdefghij"};
  for (const ExamplePair& ex : context) {
    const std::string& s = ex.source;
    inputs.push_back(s);
    inputs.push_back(s.substr(0, s.size() / 2));  // shorter
    inputs.push_back(s + " " + s);                // longer, more tokens
    std::string bare;                             // no separator at all
    for (char c : s) {
      if (separators.find(c) == std::string::npos) bare.push_back(c);
    }
    inputs.push_back(bare);
  }
  return inputs;
}

// First mismatch between the encoding and the oracle on `inputs`, or "".
std::string Diff(const std::vector<AtomProgram>& programs,
                 const ProgramList& list,
                 const std::vector<std::string>& inputs,
                 const std::string& separators) {
  if (list.size() != programs.size()) return "size";
  std::string out;
  for (const std::string& input : inputs) {
    const TokenCache cache(input, separators);
    size_t first = programs.size();
    for (size_t i = 0; i < programs.size(); ++i) {
      if (list.score(i) != programs[i].score) {
        return "score of program " + std::to_string(i);
      }
      const std::optional<std::string> expected =
          programs[i].Apply(input, separators);
      list.Apply(i, cache, &out);
      if (out != expected.value_or("")) {
        return "program " + programs[i].Key() + " on '" + input + "': '" +
               out + "' vs '" + expected.value_or("") + "'";
      }
      if (first == programs.size() && expected && !expected->empty()) {
        first = i;
      }
    }
    const size_t found = list.FirstApplicable(cache, &out);
    if (found != first) return "first applicable on '" + input + "'";
  }
  return "";
}

TEST(CompactProgramsTest, RoundTripsSynthesizedGridPrograms) {
  const std::vector<Dataset> datasets = MakeAllDatasets(20247, 0.05);
  Rng rng(17);
  size_t lists = 0;
  size_t programs_seen = 0;
  for (const Dataset& ds : datasets) {
    for (const TablePair& table : ds.tables) {
      const size_t rows = table.num_rows();
      if (rows < 4) continue;
      for (size_t k = 1; k <= 3; ++k) {
        std::vector<ExamplePair> context;
        for (size_t i = 0; i < k; ++i) {
          const size_t r = rng.NextBounded(rows);
          context.push_back({table.source[r], table.target[r]});
        }
        const std::string& other = table.source[rng.NextBounded(rows)];
        for (const InductionConfig& cfg : Configs()) {
          const std::vector<AtomProgram> programs =
              SynthesizeCommonPrograms(context, cfg);
          const std::optional<CompactPrograms> compact =
              CompactPrograms::Encode(programs);
          ASSERT_TRUE(compact.has_value());
          const std::string diff =
              Diff(programs, ProgramList(*compact),
                   Inputs(context, other, cfg.separators), cfg.separators);
          ASSERT_EQ(diff, "") << ds.name << " k=" << k << " "
                              << context[0].source << " -> "
                              << context[0].target;
          ++lists;
          programs_seen += programs.size();
        }
      }
    }
  }
  EXPECT_GT(lists, 200u);
  EXPECT_GT(programs_seen, 2000u);
}

TEST(CompactProgramsTest, EmptyListTakesNoAllocation) {
  const std::optional<CompactPrograms> empty = CompactPrograms::Encode({});
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(empty->bytes(), 0u);
  EXPECT_EQ(empty->data(), nullptr);
}

AtomProgram RangeProgram(PosRef begin, PosRef end) {
  AtomProgram program;
  Atom atom;
  atom.kind = Atom::Kind::kCopyRange;
  atom.begin = begin;
  atom.end = end;
  program.atoms.push_back(atom);
  return program;
}

AtomProgram LiteralProgram(std::string literal) {
  AtomProgram program;
  Atom atom;
  atom.literal = std::move(literal);
  program.atoms.push_back(atom);
  return program;
}

TEST(CompactProgramsTest, FieldsThatDoNotFitFailTheEncoding) {
  const int max = CompactPrograms::kMaxIndex;
  // The widest PosRefs that fit, from either end, apply as the oracle.
  const std::vector<AtomProgram> widest = {
      RangeProgram({max, false}, {0, true}),
      RangeProgram({max, true}, {max - 1, true})};
  const std::optional<CompactPrograms> fits = CompactPrograms::Encode(widest);
  ASSERT_TRUE(fits.has_value());
  const std::string input = std::string(max, 'a') + "tail";
  std::string out;
  for (size_t i = 0; i < widest.size(); ++i) {
    fits->Apply(i, TokenCache(input, " "), &out);
    EXPECT_EQ(out, *widest[i].Apply(input, " ")) << i;
  }
  fits->Apply(0, TokenCache(input, " "), &out);
  EXPECT_EQ(out, "tail");

  EXPECT_FALSE(CompactPrograms::Encode({RangeProgram({max + 1, false},
                                                     {0, true})}));
  EXPECT_FALSE(CompactPrograms::Encode({RangeProgram({0, false},
                                                     {max + 1, true})}));
  EXPECT_FALSE(CompactPrograms::Encode({RangeProgram({-1, false},
                                                     {0, true})}));
  AtomProgram token = RangeProgram({0, false}, {1, false});
  token.atoms[0].kind = Atom::Kind::kCopyToken;
  token.atoms[0].token = {max + 1, true};
  EXPECT_FALSE(CompactPrograms::Encode({token}));

  // 16-bit counts: 65535 programs fit, one more does not.
  EXPECT_TRUE(CompactPrograms::Encode(
      std::vector<AtomProgram>(0xFFFF, LiteralProgram("a"))));
  EXPECT_FALSE(CompactPrograms::Encode(
      std::vector<AtomProgram>(0x10000, LiteralProgram("a"))));

  // A literal up to the pool limit fits; one byte more does not, and
  // neither does a literal that would start past the limit.
  const size_t limit = CompactPrograms::kMaxLiteralPool;
  EXPECT_TRUE(
      CompactPrograms::Encode({LiteralProgram(std::string(limit, 'x'))}));
  EXPECT_FALSE(
      CompactPrograms::Encode({LiteralProgram(std::string(limit + 1, 'x'))}));
  EXPECT_FALSE(CompactPrograms::Encode(
      {LiteralProgram(std::string(limit, 'x')), LiteralProgram("y"),
       LiteralProgram("z")}));
}

TEST(CompactProgramsTest, MoreThan256DistinctAtomsRoundTrip) {
  // Two-byte atom references, and scores that repeat and differ.
  std::vector<AtomProgram> programs;
  for (int i = 0; i < 300; ++i) {
    programs.push_back(RangeProgram({i, false}, {i + 2, false}));
    programs.back().atoms.push_back(
        RangeProgram({i, true}, {0, true}).atoms[0]);
    programs.back().score = 0.5 * (i % 7) - 1.2;
  }
  const std::optional<CompactPrograms> compact =
      CompactPrograms::Encode(programs);
  ASSERT_TRUE(compact.has_value());
  ASSERT_EQ(compact->size(), programs.size());
  std::string input;
  for (int i = 0; i < 400; ++i) {
    input.push_back(static_cast<char>('a' + i % 26));
  }
  const TokenCache cache(input, " ");
  std::string out;
  for (size_t i = 0; i < programs.size(); ++i) {
    compact->Apply(i, cache, &out);
    EXPECT_EQ(out, *programs[i].Apply(input, " ")) << i;
    EXPECT_EQ(compact->score(i), programs[i].score) << i;
  }
}

TEST(CompactProgramsTest, SharedAtomsAndLiteralsAreStoredOnce) {
  const std::vector<AtomProgram> one = {LiteralProgram("@example.com")};
  const std::vector<AtomProgram> three = {LiteralProgram("@example.com"),
                                          LiteralProgram("@example.com"),
                                          LiteralProgram("example")};
  const auto a = CompactPrograms::Encode(one);
  const auto b = CompactPrograms::Encode(three);
  ASSERT_TRUE(a && b);
  // Two more program rows (4 bytes each) and references (1 byte each), one
  // more distinct atom (8 bytes), no more scores or literal bytes; up to 7
  // bytes of rounding to whole words.
  EXPECT_LE(b->bytes(), a->bytes() + 2 * 4 + 2 + 8 + 7);
  std::string out;
  for (size_t i = 0; i < three.size(); ++i) {
    b->Apply(i, TokenCache("", " "), &out);
    EXPECT_EQ(out, three[i].atoms[0].literal);
  }
}

}  // namespace
}  // namespace induction
}  // namespace dtt
