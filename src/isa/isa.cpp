#include "isa/isa.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "support/string_utils.hpp"

namespace mat2c::isa {

namespace {

constexpr OpInfo kOps[] = {
#define NO_EXPAND {{0, Op::AddF}, {0, Op::AddF}}
#define EXPAND(n1, a, n2, b) {{n1, Op::a}, {n2, Op::b}}
#define MAT2C_OP(name, mn, elem, vec, cost, gate, rule, expansion, units, shape, fallback) \
  {mn, Elem::elem, vec != 0, cost, Gate::gate, CostRule::rule, expansion, units, Shape::shape, fallback},
#include "isa/ops.def"
#undef MAT2C_OP
#undef EXPAND
#undef NO_EXPAND
};
static_assert(std::size(kOps) == kNumOps);

int lanes(const IsaDescription& d, Elem elem) {
  return elem == Elem::F64 ? d.lanesF64() : elem == Elem::C64 ? d.lanesC64() : 1;
}

}  // namespace

const OpInfo& opInfo(Op op) { return kOps[static_cast<int>(op)]; }

const char* mnemonic(Op op) { return opInfo(op).mnemonic; }

std::optional<Op> opFromMnemonic(const std::string& name) {
  for (int i = 0; i < kNumOps; ++i) {
    if (name == kOps[i].mnemonic) return static_cast<Op>(i);
  }
  return std::nullopt;
}

bool isVectorOp(Op op) { return opInfo(op).vector; }

bool isComplexOp(Op op) { return opInfo(op).elem == Elem::C64; }

void IsaDescription::setLanes(int f64Lanes, int c64Lanes) {
  lanesF64_ = f64Lanes < 1 ? 1 : f64Lanes;
  lanesC64_ = c64Lanes < 1 ? 1 : c64Lanes;
}

void IsaDescription::setFeature(const std::string& feature, bool on, DiagnosticEngine* diags) {
  if (feature == "fma") {
    fma_ = on;
  } else if (feature == "cmul") {
    cmul_ = on;
  } else if (feature == "cmac") {
    cmac_ = on;
  } else if (feature == "zol") {
    zol_ = on;
  } else if (feature == "agu") {
    agu_ = on;
  } else if (diags) {
    diags->error({}, "unknown ISA feature '" + feature + "'");
  }
}

bool IsaDescription::supports(Op op) const {
  const OpInfo& m = opInfo(op);
  if (m.vector && lanes(*this, m.elem) <= 1) return false;
  switch (m.gate) {
    case Gate::None: return true;
    case Gate::Fma: return fma_;
    case Gate::Cmul: return cmul_;
    case Gate::Cmac: return cmac_;
  }
  return false;
}

double IsaDescription::rawCost(Op op) const {
  const OpInfo& m = opInfo(op);
  auto it = costOverride_.find(op);
  const bool overridden = it != costOverride_.end();
  if (!overridden) {
    if (m.rule == CostRule::Zol && zol_) return 0.0;
    if (m.rule == CostRule::Agu && agu_) return 0.0;
    if (m.rule == CostRule::Tree) {
      return std::max(1.0, std::log2(static_cast<double>(lanes(*this, m.elem))) + 1.0);
    }
  }
  double base = overridden ? it->second : m.defaultCost;
  if (m.rule == CostRule::Port) {
    // Wide vectors beyond the memory port width pay extra issues; a c64
    // element is two doubles.
    int doubles = lanes(*this, m.elem) * (m.elem == Elem::C64 ? 2 : 1);
    return base * ((doubles + memLanes_ - 1) / memLanes_);
  }
  return base;
}

double IsaDescription::cost(Op op) const {
  if (supports(op)) return rawCost(op);
  const OpInfo& m = opInfo(op);
  if (m.expansion[0].count == 0) {
    throw std::logic_error(std::string("cost requested for unsupported op ") + m.mnemonic);
  }
  double c = 0.0;
  for (const Term& t : m.expansion) {
    if (t.count != 0) c += t.count * cost(t.op);
  }
  return c;
}

bool IsaDescription::costable(Op op) const {
  if (supports(op)) return true;
  const OpInfo& m = opInfo(op);
  if (m.expansion[0].count == 0) return false;
  for (const Term& t : m.expansion)
    if (t.count != 0 && !costable(t.op)) return false;
  return true;
}

std::string IsaDescription::intrinsicName(Op op) const {
  auto it = intrinsicOverride_.find(op);
  if (it != intrinsicOverride_.end()) return it->second;
  std::string n = name_ + "_" + mnemonic(op);
  for (char& c : n) {
    if (c == '.') c = '_';
  }
  return n;
}

bool IsaDescription::usesIntrinsic(Op op) const {
  return opInfo(op).shape != Shape::None && supports(op);
}

namespace {

struct PresetSpec {
  const char* name;
  int lanesF64, lanesC64;
  bool custom;       // fma, zol and agu
  bool complexUnit;  // cmul and cmac
};

// In presetNames() order. dspx_nocomplex keeps the SIMD registers, which
// still hold interleaved complex data (vadd/vsub work as plain f64 lane ops);
// only the complex-arithmetic unit is gone.
constexpr PresetSpec kPresets[] = {
    {"scalar", 1, 1, false, false},  {"dspx", 8, 4, true, true},
    {"dspx_w2", 2, 1, true, true},   {"dspx_w4", 4, 2, true, true},
    {"dspx_w16", 16, 8, true, true}, {"dspx_nocomplex", 8, 4, true, false},
    {"dspx_novec", 1, 1, true, true},
};

}  // namespace

IsaDescription IsaDescription::preset(const std::string& name) {
  for (const PresetSpec& p : kPresets) {
    if (name != p.name) continue;
    IsaDescription d;
    d.setName(name);
    d.setLanes(p.lanesF64, p.lanesC64);
    for (const char* f : {"fma", "zol", "agu"}) d.setFeature(f, p.custom);
    for (const char* f : {"cmul", "cmac"}) d.setFeature(f, p.complexUnit);
    return d;
  }
  throw std::invalid_argument("unknown ISA preset '" + name + "'");
}

std::vector<std::string> IsaDescription::presetNames() {
  std::vector<std::string> names;
  for (const PresetSpec& p : kPresets) names.push_back(p.name);
  return names;
}

namespace {

constexpr std::string_view kSpace = " \t\r\v\f";

struct Token {
  std::string_view text;
  std::uint32_t col;
};

/// Whitespace-separated tokens of one description line. A token starting
/// with '#' begins a comment that runs to the end of the line.
std::vector<Token> tokenize(std::string_view line) {
  std::vector<Token> out;
  for (std::size_t i = line.find_first_not_of(kSpace); i < line.size() && line[i] != '#';
       i = line.find_first_not_of(kSpace, i)) {
    std::size_t end = std::min(line.find_first_of(kSpace, i), line.size());
    out.push_back({line.substr(i, end - i), static_cast<std::uint32_t>(i + 1)});
    i = end;
  }
  return out;
}

/// `T` parsed from all of `text`, or nothing.
template <typename T>
std::optional<T> parseNumber(std::string_view text) {
  T v{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  return v;
}

struct DirectiveSpec {
  const char* name;
  std::size_t operands;
  const char* usage;
};

constexpr DirectiveSpec kDirectives[] = {
    {"name", 1, "name <target>"},
    {"simd", 2, "simd f64|c64 <lanes>"},
    {"memlanes", 1, "memlanes <lanes>"},
    {"feature", 1, "feature <unit>"},
    {"cost", 2, "cost <mnemonic> <cycles>"},
    {"intrinsic", 2, "intrinsic <mnemonic> <c_name>"},
};

}  // namespace

IsaDescription IsaDescription::parse(const std::string& text, DiagnosticEngine& diags) {
  IsaDescription d;
  std::uint32_t lineNo = 0;
  // A second cost/intrinsic entry for the same op would silently win over the
  // first (map overwrite), which hides typos in hand-edited descriptions —
  // diagnose it naming both definitions instead.
  std::map<Op, std::uint32_t> costLine;
  std::map<Op, std::uint32_t> intrinsicLine;
  for (const std::string& rawLine : split(text, '\n')) {
    ++lineNo;
    std::vector<Token> tok = tokenize(rawLine);
    if (tok.empty()) continue;
    auto at = [&](std::size_t i) { return SourceLoc{lineNo, tok[i].col}; };
    auto word = [&](std::size_t i) { return std::string(tok[i].text); };
    const std::string directive = word(0);
    const DirectiveSpec* spec = nullptr;
    for (const auto& s : kDirectives) {
      if (directive == s.name) spec = &s;
    }
    if (!spec) {
      diags.error(at(0), "unknown ISA directive '" + directive + "'");
      continue;
    }
    if (tok.size() <= spec->operands) {
      diags.error(at(0), "missing operand: expected '" + std::string(spec->usage) + "'");
      continue;
    }
    if (tok.size() > spec->operands + 1) {
      diags.error(at(spec->operands + 1), "unexpected '" + word(spec->operands + 1) +
                                              "' after '" + spec->usage +
                                              "' (comments start with '#')");
      continue;
    }
    if (directive == "name") {
      d.setName(word(1));
    } else if (directive == "simd" || directive == "memlanes") {
      const std::size_t n = directive == "simd" ? 2 : 1;
      auto lanes = parseNumber<int>(tok[n].text);
      if (directive == "simd" && word(1) != "f64" && word(1) != "c64") {
        diags.error(at(1), "unknown simd element type '" + word(1) + "'");
      } else if (!lanes) {
        diags.error(at(n), "lane count '" + word(n) + "' is not an integer");
      } else if (directive == "memlanes") {
        d.setMemLanes(std::max(1, *lanes));
      } else {
        (word(1) == "f64" ? d.lanesF64_ : d.lanesC64_) = std::max(1, *lanes);
      }
    } else if (directive == "feature") {
      DiagnosticEngine unknown;  // setFeature's diagnostic carries no location
      d.setFeature(word(1), true, &unknown);
      if (unknown.hasErrors()) diags.error(at(1), "unknown ISA feature '" + word(1) + "'");
    } else {  // cost / intrinsic <mnemonic> <value>
      const bool isCost = directive == "cost";
      auto op = opFromMnemonic(word(1));
      auto cycles = parseNumber<double>(tok[2].text);
      auto& firstLine = isCost ? costLine : intrinsicLine;
      if (!op) {
        diags.error(at(1), "unknown op mnemonic '" + word(1) + "'");
      } else if (isCost && (!cycles || !std::isfinite(*cycles) || *cycles < 0)) {
        diags.error(at(2), "cycle count '" + word(2) + "' is not a finite number >= 0");
      } else if (!isCost && !isIdentifier(tok[2].text)) {
        diags.error(at(2), "intrinsic name '" + word(2) + "' is not a valid C identifier");
      } else if (auto [it, inserted] = firstLine.emplace(*op, lineNo); !inserted) {
        diags.error(at(1), "duplicate " + directive + " for '" + word(1) +
                               "' (first defined at line " + std::to_string(it->second) + ")");
      } else if (isCost) {
        d.setCost(*op, *cycles);
      } else {
        d.setIntrinsicName(*op, word(2));
      }
    }
  }
  return d;
}

std::string IsaDescription::serialize() const {
  // Built with appends rather than a stream: every service cache key
  // serializes the request's ISA. "%g" is the stream's default format.
  std::string out = "name " + name_ + "\n";
  out += "simd f64 " + std::to_string(lanesF64_) + "\n";
  out += "simd c64 " + std::to_string(lanesC64_) + "\n";
  out += "memlanes " + std::to_string(memLanes_) + "\n";
  if (fma_) out += "feature fma\n";
  if (cmul_) out += "feature cmul\n";
  if (cmac_) out += "feature cmac\n";
  if (zol_) out += "feature zol\n";
  if (agu_) out += "feature agu\n";
  for (const auto& [op, cycles] : costOverride_) {
    char num[32];
    std::snprintf(num, sizeof num, "%g", cycles);
    out += "cost ";
    out += mnemonic(op);
    out += ' ';
    out += num;
    out += '\n';
  }
  for (const auto& [op, cName] : intrinsicOverride_) {
    out += "intrinsic ";
    out += mnemonic(op);
    out += ' ';
    out += cName;
    out += '\n';
  }
  return out;
}

std::uint64_t IsaDescription::fingerprint() const { return fnv1a64(serialize()); }

}  // namespace mat2c::isa
