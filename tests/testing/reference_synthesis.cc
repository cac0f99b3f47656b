// Frozen copy of the copied-vector beam synthesis (every partial program
// carries its own std::vector<Atom>), kept as the oracle for the
// parent-index beam in src/models/alignment.cc. The candidate generation,
// SynthesizePrograms and JointSynthesize below are verbatim; do not optimize
// them — their value is that they are the old, obviously-correct search.
#include "testing/reference_synthesis.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "util/string_util.h"

namespace dtt {
namespace reference_synthesis {

using induction::ApplyCase;
using induction::Atom;
using induction::AtomProgram;
using induction::CaseOp;
using induction::InductionConfig;
using induction::PosRef;
using induction::TokenCache;

namespace {

struct Cand {
  Atom atom;
  size_t len;    // target characters produced
  double score;  // contribution to the program score
};

// Max l such that ApplyCase(op, s.substr(p, l)) matches t.substr(j, l).
size_t MatchLen(std::string_view s, size_t p, std::string_view t, size_t j,
                CaseOp op) {
  size_t l = 0;
  while (p + l < s.size() && j + l < t.size()) {
    char sc = s[p + l];
    if (op == CaseOp::kLower) {
      sc = static_cast<char>(std::tolower(static_cast<unsigned char>(sc)));
    } else if (op == CaseOp::kUpper) {
      sc = static_cast<char>(std::toupper(static_cast<unsigned char>(sc)));
    }
    if (sc != t[j + l]) break;
    ++l;
  }
  return l;
}

// All case ops (cheapest first).
constexpr CaseOp kCaseOps[] = {CaseOp::kNone, CaseOp::kLower, CaseOp::kUpper};

// Candidates from one separator family's token decomposition.
void AddFamilyTokenCandidates(char family,
                              const std::vector<std::string>& tokens,
                              std::string_view t, size_t j,
                              const InductionConfig& cfg,
                              std::vector<Cand>* cands) {
  const size_t n = tokens.size();
  const double fam_penalty = family == 0 ? 0.0 : 0.05;  // prefer generic split
  for (size_t k = 0; k < n; ++k) {
    const std::string& tok = tokens[k];
    for (CaseOp op : kCaseOps) {
      double penalty = fam_penalty + ((op == CaseOp::kNone) ? 0.0 : 0.15);
      // Whole token.
      if (cfg.allow_tokens && tok.size() > 0 && j + tok.size() <= t.size()) {
        std::string cased = ApplyCase(op, tok);
        if (t.substr(j, tok.size()) == cased) {
          for (bool from_end : {false, true}) {
            Atom a;
            a.kind = Atom::Kind::kCopyToken;
            a.family = family;
            a.token = from_end ? PosRef{static_cast<int>(n - k), true}
                               : PosRef{static_cast<int>(k), false};
            a.case_op = op;
            cands->push_back(
                {a, tok.size(),
                 2.0 * static_cast<double>(tok.size()) - 1.0 - penalty -
                     (from_end ? 0.01 : 0.0)});
          }
        }
      }
      // Arbitrary [b, b+l) slices within the token (covers initials,
      // truncation, and substring-stacked-on-split transformations).
      if (cfg.allow_token_slice && tok.size() >= 2) {
        size_t max_begin = std::min<size_t>(tok.size() - 1, 12);
        for (size_t b = 0; b <= max_begin; ++b) {
          // Longest match of the cased token tail against the target tail.
          size_t max_l = MatchLen(tok, b, t, j, op);
          max_l = std::min(max_l, tok.size() - b);
          if (b == 0 && max_l == tok.size()) --max_l;  // whole token covered above
          size_t min_l =
              b == 0 ? 1
                     : static_cast<size_t>(
                           std::max(1, cfg.min_nonprefix_slice_len));
          for (size_t l = max_l; l >= min_l; --l) {
            if (j + l > t.size()) continue;
            // Mid-token slices shorter than the max are rarely the intended
            // program; keep only the two longest per (b) to bound growth.
            if (l + 2 <= max_l && l > 1) break;
            double slice_pen = penalty + (b == 0 ? 0.0 : 0.1);
            for (bool from_end : {false, true}) {
              Atom a;
              a.kind = Atom::Kind::kCopyTokenSlice;
              a.family = family;
              a.token = from_end ? PosRef{static_cast<int>(n - k), true}
                                 : PosRef{static_cast<int>(k), false};
              if (from_end) {
                a.begin = {static_cast<int>(tok.size() - b), true};
                a.end = {static_cast<int>(tok.size() - (b + l)), true};
              } else {
                a.begin = {static_cast<int>(b), false};
                a.end = {static_cast<int>(b + l), false};
              }
              a.case_op = op;
              cands->push_back({a, l,
                                1.8 * static_cast<double>(l) - 1.0 - slice_pen -
                                    (from_end ? 0.01 : 0.0)});
              // End-anchored variant "token[b:]" (substr(b, inf) stacked on
              // split): begin from the start, end pinned to the token end.
              if (b + l == tok.size()) {
                Atom tail = a;
                tail.begin = {static_cast<int>(b), false};
                tail.end = {0, true};
                cands->push_back({tail, l,
                                  1.8 * static_cast<double>(l) - 1.0 -
                                      slice_pen - 0.02 -
                                      (from_end ? 0.01 : 0.0)});
              }
            }
          }
        }
      }
    }
  }
}

void AddTokenCandidates(const TokenCache& cache, std::string_view t, size_t j,
                        const InductionConfig& cfg, std::vector<Cand>* cands) {
  AddFamilyTokenCandidates(0, cache.Tokens(0), t, j, cfg, cands);
  for (char sep : cache.present_separators()) {
    const auto& tokens = cache.Tokens(sep);
    // The single-separator family only adds signal when it differs from the
    // all-separators decomposition (i.e. tokens still contain other seps).
    if (tokens.size() <= 1 && cache.Tokens(0).size() <= 1) continue;
    AddFamilyTokenCandidates(sep, tokens, t, j, cfg, cands);
  }
}

void AddCharRangeCandidates(std::string_view s, std::string_view t, size_t j,
                            const InductionConfig& cfg,
                            std::vector<Cand>* cands) {
  if (!cfg.allow_char_range) return;
  const size_t min_range =
      static_cast<size_t>(std::max(2, cfg.min_char_range_len));
  for (CaseOp op : kCaseOps) {
    for (size_t p = 0; p < s.size(); ++p) {
      size_t max_l = MatchLen(s, p, t, j, op);
      if (max_l < min_range) continue;
      // The maximal extension plus shorter prefixes (longer first); shorter
      // prefixes let the cross-example intersection settle on the span length
      // that is actually consistent.
      for (size_t l = max_l; l >= min_range; --l) {
        double penalty = (op == CaseOp::kNone) ? 0.0 : 0.15;
        // All four coordinate-frame combinations: mixed frames express
        // variable-length spans such as "position p to the end of the
        // string" (substr(p, inf)) or whole-string case copies.
        for (int frame = 0; frame < 4; ++frame) {
          bool begin_from_end = frame & 1;
          bool end_from_end = frame & 2;
          Atom a;
          a.kind = Atom::Kind::kCopyRange;
          a.begin = begin_from_end
                        ? PosRef{static_cast<int>(s.size() - p), true}
                        : PosRef{static_cast<int>(p), false};
          a.end = end_from_end
                      ? PosRef{static_cast<int>(s.size() - (p + l)), true}
                      : PosRef{static_cast<int>(p + l), false};
          a.case_op = op;
          cands->push_back({a, l,
                            2.0 * static_cast<double>(l) - 1.2 - penalty -
                                0.01 * frame});
        }
        if (l > 8 && l != max_l) l -= 1;  // thin out long mid-spans
      }
    }
  }
}

void AddLiteralCandidates(std::string_view t, size_t j,
                          const InductionConfig& cfg,
                          std::vector<Cand>* cands) {
  size_t max_l =
      std::min<size_t>(static_cast<size_t>(cfg.max_literal_len), t.size() - j);
  for (size_t l = 1; l <= max_l; ++l) {
    Atom a;
    a.kind = Atom::Kind::kLiteral;
    a.literal = std::string(t.substr(j, l));
    cands->push_back({a, l, 0.25 * static_cast<double>(l) - 1.0});
  }
}

// Merges adjacent literal atoms so equivalent programs share one key.
void CanonicalizeLiterals(AtomProgram* program) {
  std::vector<Atom> merged;
  for (auto& atom : program->atoms) {
    if (atom.kind == Atom::Kind::kLiteral && !merged.empty() &&
        merged.back().kind == Atom::Kind::kLiteral) {
      merged.back().literal += atom.literal;
    } else {
      merged.push_back(std::move(atom));
    }
  }
  program->atoms = std::move(merged);
}

struct Partial {
  std::vector<Atom> atoms;
  double score = 0.0;
};

}  // namespace

std::vector<AtomProgram> SynthesizePrograms(const ExamplePair& ex,
                                            const InductionConfig& cfg) {
  std::vector<AtomProgram> out;
  const std::string& s = ex.source;
  const std::string& t = ex.target;
  if (t.empty()) return out;
  TokenCache cache(s, cfg.separators);

  // Candidate atoms per target position.
  std::vector<std::vector<Cand>> cands(t.size());
  for (size_t j = 0; j < t.size(); ++j) {
    AddTokenCandidates(cache, t, j, cfg, &cands[j]);
    AddCharRangeCandidates(s, t, j, cfg, &cands[j]);
    AddLiteralCandidates(t, j, cfg, &cands[j]);
    // Keep the strongest candidates per position.
    auto& c = cands[j];
    std::stable_sort(c.begin(), c.end(),
                     [](const Cand& a, const Cand& b) { return a.score > b.score; });
    if (c.size() > 72) c.resize(72);
  }

  // Beam over target positions.
  std::vector<std::vector<Partial>> beams(t.size() + 1);
  beams[0].push_back({});
  for (size_t j = 0; j < t.size(); ++j) {
    if (beams[j].empty()) continue;
    for (const auto& partial : beams[j]) {
      if (static_cast<int>(partial.atoms.size()) >= cfg.max_atoms) continue;
      for (const auto& cand : cands[j]) {
        size_t next = j + cand.len;
        Partial ext = partial;
        ext.atoms.push_back(cand.atom);
        ext.score += cand.score;
        beams[next].push_back(std::move(ext));
      }
    }
    beams[j].clear();  // free memory as we go
    for (size_t n = j + 1; n <= t.size(); ++n) {
      auto& beam = beams[n];
      if (static_cast<int>(beam.size()) > cfg.beam_width * 2) {
        std::stable_sort(beam.begin(), beam.end(),
                         [](const Partial& a, const Partial& b) {
                           return a.score > b.score;
                         });
        beam.resize(static_cast<size_t>(cfg.beam_width));
      }
    }
  }

  auto& done = beams[t.size()];
  std::stable_sort(done.begin(), done.end(),
                   [](const Partial& a, const Partial& b) {
                     return a.score > b.score;
                   });
  std::unordered_set<std::string> seen;
  for (auto& partial : done) {
    AtomProgram program;
    program.atoms = std::move(partial.atoms);
    program.score = partial.score;
    CanonicalizeLiterals(&program);
    std::string key = program.Key();
    if (!seen.insert(key).second) continue;
    out.push_back(std::move(program));
    if (static_cast<int>(out.size()) >= cfg.max_programs) break;
  }
  return out;
}

namespace {

// Joint synthesis over two examples (the FlashFill-style version-space
// intersection): a DP over position pairs (j1, j2) of the two targets where
// every candidate atom must produce matching pieces for BOTH examples under
// the SAME positional descriptor. Far more complete than intersecting two
// independently-ranked program lists, and cheaper too.
std::vector<AtomProgram> JointSynthesize(const ExamplePair& ex1,
                                         const ExamplePair& ex2,
                                         const InductionConfig& cfg) {
  std::vector<AtomProgram> out;
  const std::string& t1 = ex1.target;
  const std::string& t2 = ex2.target;
  if (t1.empty() || t2.empty()) return out;
  TokenCache cache1(ex1.source, cfg.separators);
  TokenCache cache2(ex2.source, cfg.separators);

  // Candidate atoms anchored on example 1's positions (as in the
  // single-example synthesis); each is validated against example 2 lazily.
  std::vector<std::vector<Cand>> cands1(t1.size());
  for (size_t j = 0; j < t1.size(); ++j) {
    AddTokenCandidates(cache1, t1, j, cfg, &cands1[j]);
    AddCharRangeCandidates(ex1.source, t1, j, cfg, &cands1[j]);
    AddLiteralCandidates(t1, j, cfg, &cands1[j]);
    auto& c = cands1[j];
    std::stable_sort(c.begin(), c.end(), [](const Cand& a, const Cand& b) {
      return a.score > b.score;
    });
    if (c.size() > 72) c.resize(72);
  }

  // dp[j1][j2]: best partial programs reaching (j1, j2).
  constexpr size_t kPerState = 4;
  const size_t n1 = t1.size() + 1;
  const size_t n2 = t2.size() + 1;
  std::vector<std::vector<std::vector<Partial>>> dp(
      n1, std::vector<std::vector<Partial>>(n2));
  dp[0][0].push_back({});
  auto keep_top = [](std::vector<Partial>* v, size_t cap) {
    if (v->size() <= cap) return;
    std::stable_sort(v->begin(), v->end(), [](const Partial& a,
                                              const Partial& b) {
      return a.score > b.score;
    });
    v->resize(cap);
  };

  // Process states in increasing j1 (atoms always consume >= 1 char of t1).
  for (size_t j1 = 0; j1 < t1.size(); ++j1) {
    for (size_t j2 = 0; j2 <= t2.size(); ++j2) {
      auto& here = dp[j1][j2];
      if (here.empty()) continue;
      keep_top(&here, kPerState);
      for (const auto& cand : cands1[j1]) {
        // The same descriptor must produce a matching piece for example 2.
        auto piece2 = cand.atom.Apply(cache2);
        if (!piece2) continue;
        if (t2.compare(j2, piece2->size(), *piece2) != 0) continue;
        size_t next2 = j2 + piece2->size();
        size_t next1 = j1 + cand.len;
        for (const auto& partial : here) {
          if (static_cast<int>(partial.atoms.size()) >= cfg.max_atoms) continue;
          Partial ext = partial;
          ext.atoms.push_back(cand.atom);
          ext.score += cand.score;
          dp[next1][next2].push_back(std::move(ext));
        }
      }
      here.clear();
      here.shrink_to_fit();
    }
  }

  auto& done = dp[t1.size()][t2.size()];
  std::stable_sort(done.begin(), done.end(),
                   [](const Partial& a, const Partial& b) {
                     return a.score > b.score;
                   });
  std::unordered_set<std::string> seen;
  for (auto& partial : done) {
    AtomProgram program;
    program.atoms = std::move(partial.atoms);
    program.score = partial.score;
    CanonicalizeLiterals(&program);
    if (!seen.insert(program.Key()).second) continue;
    out.push_back(std::move(program));
    if (static_cast<int>(out.size()) >= cfg.max_programs) break;
  }
  return out;
}

}  // namespace

std::vector<AtomProgram> SynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg) {
  std::vector<AtomProgram> result;
  if (examples.empty()) return result;
  if (examples.size() == 1) {
    return reference_synthesis::SynthesizePrograms(examples[0], cfg);
  }

  result = JointSynthesize(examples[0], examples[1], cfg);
  if (examples.size() == 2) return result;

  // More than two examples: verify the joint programs on the rest.
  std::vector<AtomProgram> filtered;
  for (auto& program : result) {
    bool ok = true;
    for (size_t i = 2; i < examples.size() && ok; ++i) {
      auto out = program.Apply(examples[i].source, cfg.separators);
      ok = out && *out == examples[i].target;
    }
    if (ok) filtered.push_back(std::move(program));
  }
  return filtered;
}

}  // namespace reference_synthesis
}  // namespace dtt
