#include "models/alignment.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <map>
#include <unordered_set>
#include <utility>

#include "util/string_util.h"

namespace dtt {
namespace induction {

std::string ApplyCase(CaseOp op, std::string_view s) {
  switch (op) {
    case CaseOp::kNone:
      return std::string(s);
    case CaseOp::kLower:
      return ToLower(s);
    case CaseOp::kUpper:
      return ToUpper(s);
  }
  return std::string(s);
}

std::optional<size_t> PosRef::Resolve(size_t n) const {
  if (index < 0) return std::nullopt;
  size_t i = static_cast<size_t>(index);
  if (i > n) return std::nullopt;
  return from_end ? n - i : i;
}

size_t PosRef::ResolveClamped(size_t n) const {
  if (index < 0) return 0;
  size_t i = static_cast<size_t>(index);
  if (from_end) return i > n ? 0 : n - i;
  return std::min(i, n);
}

namespace {

const char* CaseName(CaseOp op) {
  switch (op) {
    case CaseOp::kNone:
      return "n";
    case CaseOp::kLower:
      return "l";
    case CaseOp::kUpper:
      return "u";
  }
  return "?";
}

void AppendPosKey(const PosRef& p, std::string* out) {
  char digits[16];
  const auto end = std::to_chars(digits, digits + sizeof(digits), p.index).ptr;
  out->append(digits, end);
  out->push_back(p.from_end ? 'e' : 's');
}

void AppendCaseKey(CaseOp op, std::string* out) {
  out->push_back(',');
  *out += CaseName(op);
}

}  // namespace

TokenCache::TokenCache(std::string_view input, std::string_view separators)
    : input_(input), separators_(separators) {
  for (char c : separators_) {
    if (input_.find(c) != std::string::npos) present_.push_back(c);
  }
}

const std::vector<std::string>& TokenCache::Tokens(char family) const {
  for (const auto& [f, tokens] : families_) {
    if (f == family) return tokens;
  }
  std::string_view seps =
      family == 0 ? std::string_view(separators_) : std::string_view(&family, 1);
  families_.emplace_back(family, SplitAny(input_, seps));
  return families_.back().second;
}

std::optional<std::string> Atom::Apply(const TokenCache& cache) const {
  // Clamping semantics throughout, mirroring the transformation DSL: an
  // out-of-range substr yields the empty string, an out-of-range split index
  // yields the empty string. Programs therefore always "apply"; degenerate
  // ones produce empty pieces.
  std::string_view input = cache.input();
  switch (kind) {
    case Kind::kLiteral:
      return literal;
    case Kind::kCopyRange: {
      size_t b = begin.ResolveClamped(input.size());
      size_t e = end.ResolveClamped(input.size());
      if (e <= b) return std::string();
      return ApplyCase(case_op, input.substr(b, e - b));
    }
    case Kind::kCopyToken: {
      const auto& tokens = cache.Tokens(family);
      auto k = token.Resolve(tokens.size());
      if (!k || *k >= tokens.size()) return std::string();
      return ApplyCase(case_op, tokens[*k]);
    }
    case Kind::kCopyTokenSlice: {
      const auto& tokens = cache.Tokens(family);
      auto k = token.Resolve(tokens.size());
      if (!k || *k >= tokens.size()) return std::string();
      const std::string& tok = tokens[*k];
      size_t b = begin.ResolveClamped(tok.size());
      size_t e = end.ResolveClamped(tok.size());
      if (e <= b) return std::string();
      return ApplyCase(case_op, std::string_view(tok).substr(b, e - b));
    }
  }
  return std::nullopt;
}

std::string Atom::Key() const {
  std::string key;
  AppendKey(&key);
  return key;
}

void Atom::AppendKey(std::string* out) const {
  const char fam = family == 0 ? '*' : family;
  switch (kind) {
    case Kind::kLiteral:
      *out += "L:";
      *out += literal;
      return;
    case Kind::kCopyRange:
      *out += "R:";
      AppendPosKey(begin, out);
      out->push_back(',');
      AppendPosKey(end, out);
      AppendCaseKey(case_op, out);
      return;
    case Kind::kCopyToken:
      *out += "T:";
      out->push_back(fam);
      out->push_back(',');
      AppendPosKey(token, out);
      AppendCaseKey(case_op, out);
      return;
    case Kind::kCopyTokenSlice:
      *out += "S:";
      out->push_back(fam);
      out->push_back(',');
      AppendPosKey(token, out);
      out->push_back(',');
      AppendPosKey(begin, out);
      out->push_back(',');
      AppendPosKey(end, out);
      AppendCaseKey(case_op, out);
      return;
  }
  *out += "?";
}

std::optional<std::string> AtomProgram::Apply(
    std::string_view input, std::string_view separators) const {
  TokenCache cache(input, separators);
  return Apply(cache);
}

std::optional<std::string> AtomProgram::Apply(const TokenCache& cache) const {
  std::string out;
  for (const auto& atom : atoms) {
    auto piece = atom.Apply(cache);
    if (!piece) return std::nullopt;
    out += *piece;
  }
  return out;
}

std::string AtomProgram::Key() const {
  std::string key;
  for (const auto& atom : atoms) {
    atom.AppendKey(&key);
    key += ";";
  }
  return key;
}

std::vector<std::string> TokenizeCell(std::string_view s,
                                      std::string_view separators) {
  return SplitAny(s, separators);
}

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

// Keeps the `cap` highest-scoring items of `*v` in exactly the order
// std::stable_sort by descending score followed by resize(cap) leaves them
// (ties keep their relative order). Selecting before sorting makes a prune
// of n items to k cost O(n + k log k) rather than O(n log n). The buffers
// are reused across calls, so steady-state prunes do not allocate.
template <typename T>
class StableTopK {
 public:
  void operator()(std::vector<T>* v, size_t cap) {
    const size_t n = v->size();
    const size_t k = std::min(n, cap);
    rank_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      rank_[i] = {(*v)[i].score, static_cast<uint32_t>(i)};
    }
    // A strict total order equal to the stable descending-score order.
    auto before = [](const Rank& a, const Rank& b) {
      return a.first > b.first || (a.first == b.first && a.second < b.second);
    };
    if (k < n) {
      std::nth_element(rank_.begin(), rank_.begin() + k, rank_.end(), before);
    }
    std::sort(rank_.begin(), rank_.begin() + k, before);
    kept_.clear();
    for (size_t i = 0; i < k; ++i) {
      kept_.push_back(std::move((*v)[rank_[i].second]));
    }
    v->swap(kept_);
  }

 private:
  using Rank = std::pair<double, uint32_t>;  // (score, original position)
  std::vector<Rank> rank_;
  std::vector<T> kept_;
};

// Candidate atoms kept per target position (the strongest).
constexpr size_t kCandsPerPosition = 72;

// Candidate atoms of every target position, strongest first, flattened so a
// search entry names its last atom with one index: position j's candidates
// are cands[begin[j], begin[j + 1]).
struct CandidateTable {
  std::vector<Cand> cands;
  std::vector<uint32_t> begin;
};

CandidateTable BuildCandidates(const TokenCache& cache, std::string_view t,
                               const InductionConfig& cfg) {
  CandidateTable table;
  table.begin.reserve(t.size() + 1);
  std::vector<Cand> at;
  StableTopK<Cand> top;
  for (size_t j = 0; j < t.size(); ++j) {
    at.clear();
    AddTokenCandidates(cache, t, j, cfg, &at);
    AddCharRangeCandidates(cache.input(), t, j, cfg, &at);
    AddLiteralCandidates(t, j, cfg, &at);
    top(&at, kCandsPerPosition);
    table.begin.push_back(static_cast<uint32_t>(table.cands.size()));
    std::move(at.begin(), at.end(), std::back_inserter(table.cands));
  }
  table.begin.push_back(static_cast<uint32_t>(table.cands.size()));
  return table;
}

constexpr uint32_t kNoAtom = UINT32_MAX;

// One partial program of a beam or DP state: its score, the arena node of
// its prefix and its last atom. Atom lists are rebuilt, by walking the
// parent chain, only for the programs that finish.
struct Entry {
  double score = 0.0;
  int32_t parent = -1;      // arena node of the prefix; -1: empty prefix
  uint32_t atom = kNoAtom;  // flat candidate index; kNoAtom: empty program
  int32_t depth = 0;        // atoms in the program
};

// The partial programs that were expanded, each interned once; the entries
// extending one point at its node.
class Arena {
 public:
  // The node of `e` as the prefix of its extensions.
  int32_t Intern(const Entry& e) {
    if (e.atom == kNoAtom) return -1;
    nodes_.push_back({e.parent, e.atom});
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  // The atoms of `e`, first to last.
  void Chain(const Entry& e, std::vector<uint32_t>* atoms) const {
    atoms->clear();
    if (e.atom == kNoAtom) return;
    atoms->push_back(e.atom);
    for (int32_t n = e.parent; n >= 0; n = nodes_[n].parent) {
      atoms->push_back(nodes_[n].atom);
    }
    std::reverse(atoms->begin(), atoms->end());
  }

 private:
  struct Node {
    int32_t parent;
    uint32_t atom;
  };
  std::vector<Node> nodes_;
};

// Turns finished entries into programs: best score first (stable), adjacent
// literals merged (so equivalent programs share one key), duplicate
// structural keys dropped, at most cfg.max_programs. Keys are assembled from
// per-candidate key strings, so only the programs kept are materialized.
std::vector<AtomProgram> Finish(std::vector<Entry>* done, const Arena& arena,
                                const std::vector<Cand>& cands,
                                const InductionConfig& cfg) {
  std::vector<AtomProgram> out;
  StableTopK<Entry>()(done, done->size());
  std::vector<std::string> atom_keys(cands.size());  // filled on first use
  std::unordered_set<std::string> seen;
  seen.reserve(static_cast<size_t>(std::max(0, cfg.max_programs)) + 1);
  std::vector<uint32_t> chain;
  std::string key, literal;
  for (const Entry& entry : *done) {
    arena.Chain(entry, &chain);
    // Exactly AtomProgram::Key() of the literal-merged program.
    key.clear();
    bool in_literal = false;
    auto flush_literal = [&] {
      if (!in_literal) return;
      key += "L:";
      key += literal;
      key += ';';
      literal.clear();
      in_literal = false;
    };
    for (uint32_t a : chain) {
      const Atom& atom = cands[a].atom;
      if (atom.kind == Atom::Kind::kLiteral) {
        literal += atom.literal;
        in_literal = true;
        continue;
      }
      flush_literal();
      std::string& atom_key = atom_keys[a];
      if (atom_key.empty()) atom.AppendKey(&atom_key);
      key += atom_key;
      key += ';';
    }
    flush_literal();
    if (!seen.insert(key).second) continue;
    AtomProgram program;
    program.score = entry.score;
    for (uint32_t a : chain) {
      const Atom& atom = cands[a].atom;
      if (atom.kind == Atom::Kind::kLiteral && !program.atoms.empty() &&
          program.atoms.back().kind == Atom::Kind::kLiteral) {
        program.atoms.back().literal += atom.literal;
      } else {
        program.atoms.push_back(atom);
      }
    }
    out.push_back(std::move(program));
    if (static_cast<int>(out.size()) >= cfg.max_programs) break;
  }
  return out;
}

}  // namespace

std::vector<AtomProgram> SynthesizePrograms(const ExamplePair& ex,
                                            const InductionConfig& cfg) {
  const std::string& t = ex.target;
  if (t.empty()) return {};
  TokenCache cache(ex.source, cfg.separators);
  const CandidateTable table = BuildCandidates(cache, t, cfg);

  // Beam over target positions.
  Arena arena;
  StableTopK<Entry> prune;
  std::vector<std::vector<Entry>> beams(t.size() + 1);
  beams[0].push_back({});
  for (size_t j = 0; j < t.size(); ++j) {
    if (beams[j].empty()) continue;
    for (const Entry& partial : beams[j]) {
      if (partial.depth >= cfg.max_atoms) continue;
      const int32_t node = arena.Intern(partial);
      for (uint32_t c = table.begin[j]; c < table.begin[j + 1]; ++c) {
        const Cand& cand = table.cands[c];
        beams[j + cand.len].push_back(
            {partial.score + cand.score, node, c, partial.depth + 1});
      }
    }
    std::vector<Entry>().swap(beams[j]);  // free memory as we go
    for (size_t n = j + 1; n <= t.size(); ++n) {
      if (static_cast<int>(beams[n].size()) > cfg.beam_width * 2) {
        prune(&beams[n], static_cast<size_t>(cfg.beam_width));
      }
    }
  }
  return Finish(&beams[t.size()], arena, table.cands, cfg);
}

namespace {

// Partial programs kept per joint DP state.
constexpr size_t kPerState = 4;

// The partial programs of one joint DP state, bounded online to what the
// state's expansion reads: every arrival, in arrival order, while at most
// kPerState arrived; otherwise the kPerState best in stable descending-score
// order (what stable_sort + resize over all arrivals would keep).
class JointState {
 public:
  void Push(const Entry& e) {
    if (arrived_ < kPerState) {
      top_[arrived_++] = e;
      return;
    }
    if (arrived_++ == kPerState) {
      std::stable_sort(top_, top_ + kPerState, [](const Entry& a,
                                                  const Entry& b) {
        return a.score > b.score;
      });
    }
    // `e` arrived last, so it only displaces entries it strictly outscores.
    size_t i = 0;
    while (i < kPerState && top_[i].score >= e.score) ++i;
    if (i == kPerState) return;
    std::move_backward(top_ + i, top_ + kPerState - 1, top_ + kPerState);
    top_[i] = e;
  }

  size_t size() const { return std::min(arrived_, kPerState); }
  const Entry& operator[](size_t i) const { return top_[i]; }

 private:
  Entry top_[kPerState];
  size_t arrived_ = 0;
};

// Joint synthesis over two examples (the FlashFill-style version-space
// intersection): a DP over position pairs (j1, j2) of the two targets where
// every candidate atom must produce matching pieces for BOTH examples under
// the SAME positional descriptor. Far more complete than intersecting two
// independently-ranked program lists, and cheaper too.
std::vector<AtomProgram> JointSynthesize(const ExamplePair& ex1,
                                         const ExamplePair& ex2,
                                         const InductionConfig& cfg) {
  const std::string& t1 = ex1.target;
  const std::string& t2 = ex2.target;
  if (t1.empty() || t2.empty()) return {};
  TokenCache cache1(ex1.source, cfg.separators);
  TokenCache cache2(ex2.source, cfg.separators);

  // Candidate atoms anchored on example 1's positions (as in the
  // single-example synthesis); each is validated against example 2.
  const CandidateTable table = BuildCandidates(cache1, t1, cfg);

  // rows[j1][j2]: the state (j1, j2). A row is allocated on its first push
  // and freed once expanded. The final state (|t1|, |t2|) is never expanded
  // and keeps every arrival; the rest of row |t1| can never finish.
  const size_t n2 = t2.size() + 1;
  std::vector<std::vector<JointState>> rows(t1.size());
  std::vector<Entry> done;
  auto push = [&](size_t j1, size_t j2, const Entry& e) {
    if (j1 == t1.size()) {
      if (j2 == t2.size()) done.push_back(e);
      return;
    }
    if (rows[j1].empty()) rows[j1].resize(n2);
    rows[j1][j2].Push(e);
  };
  push(0, 0, Entry{});

  Arena arena;
  std::vector<std::optional<std::string>> pieces2;
  // Process states in increasing j1 (atoms always consume >= 1 char of t1).
  for (size_t j1 = 0; j1 < t1.size(); ++j1) {
    if (rows[j1].empty()) continue;
    const uint32_t first = table.begin[j1];
    const uint32_t last = table.begin[j1 + 1];
    // A descriptor's piece on example 2 does not depend on j2: apply each
    // candidate once per row.
    pieces2.clear();
    for (uint32_t c = first; c < last; ++c) {
      pieces2.push_back(table.cands[c].atom.Apply(cache2));
    }
    for (size_t j2 = 0; j2 <= t2.size(); ++j2) {
      const JointState& here = rows[j1][j2];
      const size_t count = here.size();
      std::array<int32_t, kPerState> nodes;
      nodes.fill(-1);
      for (size_t i = 0; i < count; ++i) {
        if (here[i].depth < cfg.max_atoms) nodes[i] = arena.Intern(here[i]);
      }
      for (uint32_t c = first; count > 0 && c < last; ++c) {
        // The same descriptor must produce a matching piece for example 2.
        const std::optional<std::string>& piece2 = pieces2[c - first];
        if (!piece2) continue;
        if (t2.compare(j2, piece2->size(), *piece2) != 0) continue;
        const Cand& cand = table.cands[c];
        const size_t next1 = j1 + cand.len;
        const size_t next2 = j2 + piece2->size();
        for (size_t i = 0; i < count; ++i) {
          const Entry& partial = here[i];
          if (partial.depth >= cfg.max_atoms) continue;
          push(next1, next2,
               {partial.score + cand.score, nodes[i], c, partial.depth + 1});
        }
      }
    }
    std::vector<JointState>().swap(rows[j1]);
  }
  return Finish(&done, arena, table.cands, cfg);
}

}  // namespace

std::vector<AtomProgram> SynthesizeCommonPrograms(
    const std::vector<ExamplePair>& examples, const InductionConfig& cfg) {
  std::vector<AtomProgram> result;
  if (examples.empty()) return result;
  if (examples.size() == 1) return SynthesizePrograms(examples[0], cfg);

  result = JointSynthesize(examples[0], examples[1], cfg);
  if (examples.size() == 2) return result;

  // More than two examples: verify the joint programs on the rest.
  std::vector<TokenCache> rest;
  rest.reserve(examples.size() - 2);
  for (size_t i = 2; i < examples.size(); ++i) {
    rest.emplace_back(examples[i].source, cfg.separators);
  }
  std::vector<AtomProgram> filtered;
  for (auto& program : result) {
    bool ok = true;
    for (size_t i = 2; i < examples.size() && ok; ++i) {
      auto out = program.Apply(rest[i - 2]);
      ok = out && *out == examples[i].target;
    }
    if (ok) filtered.push_back(std::move(program));
  }
  return filtered;
}

std::string GlobalPattern::Apply(std::string_view input) const {
  switch (kind) {
    case Kind::kIdentity:
      return std::string(input);
    case Kind::kLower:
      return ToLower(input);
    case Kind::kUpper:
      return ToUpper(input);
    case Kind::kReverse:
      return Reverse(ApplyCase(reverse_case, input));
    case Kind::kCharReplace: {
      std::string out(input);
      for (char& c : out) {
        for (const auto& [from, to] : char_map) {
          if (c == from) {
            c = to;
            break;
          }
        }
      }
      return out;
    }
  }
  return std::string(input);
}

std::optional<GlobalPattern> DetectGlobalPattern(
    const std::vector<ExamplePair>& examples, bool detect_replace,
    bool detect_reverse) {
  if (examples.empty()) return std::nullopt;
  auto all = [&](auto&& pred) {
    for (const auto& ex : examples) {
      if (!pred(ex)) return false;
    }
    return true;
  };

  if (all([](const ExamplePair& e) { return e.target == e.source; })) {
    return GlobalPattern{GlobalPattern::Kind::kIdentity, CaseOp::kNone, {}};
  }
  if (all([](const ExamplePair& e) { return e.target == ToLower(e.source); })) {
    return GlobalPattern{GlobalPattern::Kind::kLower, CaseOp::kNone, {}};
  }
  if (all([](const ExamplePair& e) { return e.target == ToUpper(e.source); })) {
    return GlobalPattern{GlobalPattern::Kind::kUpper, CaseOp::kNone, {}};
  }

  if (detect_replace &&
      all([](const ExamplePair& e) {
        return e.source.size() == e.target.size();
      })) {
    // Learn a functional per-character map across all examples.
    std::map<char, char> mapping;
    bool consistent = true;
    bool differs = false;
    for (const auto& ex : examples) {
      for (size_t i = 0; i < ex.source.size() && consistent; ++i) {
        char from = ex.source[i];
        char to = ex.target[i];
        auto it = mapping.find(from);
        if (it == mapping.end()) {
          mapping.emplace(from, to);
        } else if (it->second != to) {
          consistent = false;
        }
        if (from != to) differs = true;
      }
      if (!consistent) break;
    }
    if (consistent && differs) {
      GlobalPattern p;
      p.kind = GlobalPattern::Kind::kCharReplace;
      for (const auto& [from, to] : mapping) {
        if (from != to) p.char_map.emplace_back(from, to);
      }
      return p;
    }
  }

  if (detect_reverse) {
    for (CaseOp op : {CaseOp::kNone, CaseOp::kLower, CaseOp::kUpper}) {
      if (all([op](const ExamplePair& e) {
            return e.target == Reverse(ApplyCase(op, e.source));
          })) {
        GlobalPattern p;
        p.kind = GlobalPattern::Kind::kReverse;
        p.reverse_case = op;
        return p;
      }
    }
  }
  return std::nullopt;
}

}  // namespace induction
}  // namespace dtt
