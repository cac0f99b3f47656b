#include "models/compact_programs.h"

#include <cctype>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <unordered_map>

namespace dtt {
namespace induction {
namespace {

struct Header {
  uint16_t num_programs;
  uint16_t num_scores;  // distinct scores
  uint16_t num_atoms;   // distinct atoms
  uint16_t num_refs;    // atom references, over all programs
  uint8_t ref_width;    // bytes per atom reference: 1 or 2
  uint8_t unused[3] = {};
  uint32_t bytes;  // the whole allocation
};

// A program-table row: the index of the program's score, then the end of its
// run of atom references (the run starts where the previous row's ends).
constexpr size_t kRowBytes = 2 * sizeof(uint16_t);

struct PackedAtom {
  uint8_t op = 0;  // Atom::Kind | CaseOp << 4
  char family = 0;
  uint16_t token = 0;  // PosRef; a literal's length
  uint16_t begin = 0;  // PosRef; a literal's pool offset
  uint16_t end = 0;    // PosRef
};

static_assert(sizeof(Header) == 16 && sizeof(PackedAtom) == 8);
static_assert(std::is_trivially_copyable_v<Header> &&
              std::is_trivially_copyable_v<PackedAtom>);

// Counts and indices are 16-bit: a list with more programs, or more atom
// references over all its programs, does not fit.
constexpr size_t kMaxCount = 0xFFFF;

// The allocation is only read and written through memcpy, so its sections
// need no alignment and nothing is accessed through a mistyped pointer; each
// load compiles to plain moves.
template <typename T>
T Load(const std::byte* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

template <typename T>
void Store(const T& value, std::byte* at) {
  std::memcpy(at, &value, sizeof(T));
}

// Offsets of the sections after the header.
size_t RowAt(size_t i) { return sizeof(Header) + i * kRowBytes; }
size_t ScoresAt(const Header& h) { return RowAt(h.num_programs); }
size_t AtomsAt(const Header& h) {
  return ScoresAt(h) + h.num_scores * sizeof(double);
}
size_t RefsAt(const Header& h) {
  return AtomsAt(h) + h.num_atoms * sizeof(PackedAtom);
}
size_t PoolAt(const Header& h) { return RefsAt(h) + h.num_refs * h.ref_width; }

constexpr uint16_t kFromEnd = 0x8000;

std::optional<uint16_t> PackPos(const PosRef& p) {
  if (p.index < 0 || p.index > CompactPrograms::kMaxIndex) return std::nullopt;
  return static_cast<uint16_t>(p.index | (p.from_end ? kFromEnd : 0));
}

PosRef UnpackPos(uint16_t v) {
  return {static_cast<int>(v & ~kFromEnd), (v & kFromEnd) != 0};
}

// Appends ApplyCase(op, s) without a temporary.
void AppendCase(CaseOp op, std::string_view s, std::string* out) {
  switch (op) {
    case CaseOp::kNone:
      out->append(s);
      return;
    case CaseOp::kLower:
      for (char c : s) {
        out->push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
      return;
    case CaseOp::kUpper:
      for (char c : s) {
        out->push_back(
            static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
      }
      return;
  }
}

// The atom's fields that its kind reads; nullopt when one does not fit.
std::optional<PackedAtom> PackAtom(const Atom& atom, std::string* pool) {
  PackedAtom packed;
  packed.op = static_cast<uint8_t>(static_cast<unsigned>(atom.kind) |
                                   static_cast<unsigned>(atom.case_op) << 4);
  if (atom.kind == Atom::Kind::kLiteral) {
    // Programs of one list share most of their literals; store each once.
    size_t at = pool->find(atom.literal);
    if (at == std::string::npos) at = pool->size();
    if (atom.literal.size() > CompactPrograms::kMaxLiteralPool ||
        at > CompactPrograms::kMaxLiteralPool) {
      return std::nullopt;
    }
    if (at == pool->size()) *pool += atom.literal;
    packed.token = static_cast<uint16_t>(atom.literal.size());
    packed.begin = static_cast<uint16_t>(at);
    return packed;
  }
  if (atom.kind != Atom::Kind::kCopyRange) {
    packed.family = atom.family;
    const auto token = PackPos(atom.token);
    if (!token) return std::nullopt;
    packed.token = *token;
    if (atom.kind == Atom::Kind::kCopyToken) return packed;
  }
  const auto begin = PackPos(atom.begin);
  const auto end = PackPos(atom.end);
  if (!begin || !end) return std::nullopt;
  packed.begin = *begin;
  packed.end = *end;
  return packed;
}

}  // namespace

std::optional<CompactPrograms> CompactPrograms::Encode(
    const std::vector<AtomProgram>& programs) {
  if (programs.empty()) return CompactPrograms();
  if (programs.size() > kMaxCount) return std::nullopt;
  // Programs of one list are variations on a few atoms and share most of
  // their scores: each distinct atom and score is stored once and the
  // program table refers to them.
  std::vector<double> scores;
  std::unordered_map<uint64_t, uint16_t> score_index;  // by bit pattern
  std::vector<PackedAtom> atoms;
  std::unordered_map<uint64_t, uint16_t> atom_index;
  std::vector<uint16_t> rows;  // (score index, end of references) pairs
  std::vector<uint16_t> refs;
  std::string pool;
  for (const AtomProgram& program : programs) {
    if (refs.size() + program.atoms.size() > kMaxCount) return std::nullopt;
    for (const Atom& atom : program.atoms) {
      const std::optional<PackedAtom> packed = PackAtom(atom, &pool);
      if (!packed) return std::nullopt;
      uint64_t bits;
      std::memcpy(&bits, &*packed, sizeof(bits));
      const auto [it, added] = atom_index.emplace(
          bits, static_cast<uint16_t>(atoms.size()));
      if (added) atoms.push_back(*packed);
      refs.push_back(it->second);
    }
    uint64_t score_bits;
    std::memcpy(&score_bits, &program.score, sizeof(score_bits));
    const auto [it, added] = score_index.emplace(
        score_bits, static_cast<uint16_t>(scores.size()));
    if (added) scores.push_back(program.score);
    rows.push_back(it->second);
    rows.push_back(static_cast<uint16_t>(refs.size()));
  }
  Header header{static_cast<uint16_t>(programs.size()),
                static_cast<uint16_t>(scores.size()),
                static_cast<uint16_t>(atoms.size()),
                static_cast<uint16_t>(refs.size()),
                static_cast<uint8_t>(atoms.size() <= 0x100 ? 1 : 2),
                {},
                0};
  const size_t words =
      (PoolAt(header) + pool.size() + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  header.bytes = static_cast<uint32_t>(words * sizeof(uint64_t));
  std::shared_ptr<uint64_t[]> storage = std::make_shared<uint64_t[]>(words);
  std::byte* base = reinterpret_cast<std::byte*>(storage.get());
  Store(header, base);
  std::memcpy(base + RowAt(0), rows.data(), rows.size() * sizeof(uint16_t));
  std::memcpy(base + ScoresAt(header), scores.data(),
              scores.size() * sizeof(double));
  std::memcpy(base + AtomsAt(header), atoms.data(),
              atoms.size() * sizeof(PackedAtom));
  std::byte* ref_at = base + RefsAt(header);
  for (uint16_t ref : refs) {
    if (header.ref_width == 1) {
      *ref_at = static_cast<std::byte>(ref);
    } else {
      Store(ref, ref_at);
    }
    ref_at += header.ref_width;
  }
  std::memcpy(base + PoolAt(header), pool.data(), pool.size());
  CompactPrograms out;
  out.words_ = std::move(storage);
  return out;
}

size_t CompactPrograms::size() const {
  if (!words_) return 0;
  return Load<Header>(reinterpret_cast<const std::byte*>(words_.get()))
      .num_programs;
}

size_t CompactPrograms::bytes() const {
  if (!words_) return 0;
  return Load<Header>(reinterpret_cast<const std::byte*>(words_.get())).bytes;
}

double CompactPrograms::score(size_t i) const {
  const std::byte* base = reinterpret_cast<const std::byte*>(words_.get());
  const size_t index = Load<uint16_t>(base + RowAt(i));
  return Load<double>(base + ScoresAt(Load<Header>(base)) +
                      index * sizeof(double));
}

void CompactPrograms::Apply(size_t i, const TokenCache& cache,
                            std::string* out) const {
  // The clamping semantics of Atom::Apply, written straight into `out`.
  out->clear();
  const std::byte* base = reinterpret_cast<const std::byte*>(words_.get());
  const Header header = Load<Header>(base);
  const size_t first =
      i == 0 ? 0 : Load<uint16_t>(base + RowAt(i - 1) + sizeof(uint16_t));
  const size_t last = Load<uint16_t>(base + RowAt(i) + sizeof(uint16_t));
  const std::byte* atoms = base + AtomsAt(header);
  const std::byte* refs = base + RefsAt(header);
  const char* pool = reinterpret_cast<const char*>(base + PoolAt(header));
  const std::string_view input = cache.input();
  for (size_t r = first; r < last; ++r) {
    const size_t ref = header.ref_width == 1
                           ? static_cast<size_t>(refs[r])
                           : Load<uint16_t>(refs + 2 * r);
    const PackedAtom atom = Load<PackedAtom>(atoms + ref * sizeof(PackedAtom));
    const auto kind = static_cast<Atom::Kind>(atom.op & 0xF);
    const auto op = static_cast<CaseOp>(atom.op >> 4);
    if (kind == Atom::Kind::kLiteral) {
      out->append(pool + atom.begin, atom.token);
      continue;
    }
    std::string_view from = input;
    if (kind != Atom::Kind::kCopyRange) {
      const std::vector<std::string>& tokens = cache.Tokens(atom.family);
      const auto k = UnpackPos(atom.token).Resolve(tokens.size());
      if (!k || *k >= tokens.size()) continue;
      from = tokens[*k];
      if (kind == Atom::Kind::kCopyToken) {
        AppendCase(op, from, out);
        continue;
      }
    }
    const size_t b = UnpackPos(atom.begin).ResolveClamped(from.size());
    const size_t e = UnpackPos(atom.end).ResolveClamped(from.size());
    if (e > b) AppendCase(op, from.substr(b, e - b), out);
  }
}

}  // namespace induction
}  // namespace dtt
