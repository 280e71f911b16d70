#include "isa/isa.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/string_utils.hpp"

namespace mat2c::isa {

namespace {

struct OpMeta {
  Op op;
  const char* mnemonic;
  double defaultCost;
};

// Default cycle costs are data-sheet-style figures for a mid-range DSP ASIP:
// single-cycle ALU/MAC, pipelined wide memory port, microcoded
// transcendentals. They are deliberately round numbers — the experiments
// measure *relative* speedups, which depend on the ratios, not the absolute
// scale.
constexpr OpMeta kOps[] = {
    {Op::AddF, "add.f64", 1},       {Op::SubF, "sub.f64", 1},
    {Op::MulF, "mul.f64", 1},       {Op::DivF, "div.f64", 8},
    {Op::NegF, "neg.f64", 1},       {Op::MinF, "min.f64", 1},
    {Op::MaxF, "max.f64", 1},       {Op::AbsF, "abs.f64", 1},
    {Op::FmaF, "fma.f64", 1},       {Op::CmpF, "cmp.f64", 1},
    {Op::SqrtF, "sqrt.f64", 12},    {Op::ExpF, "exp.f64", 20},
    {Op::LogF, "log.f64", 20},      {Op::SinF, "sin.f64", 18},
    {Op::CosF, "cos.f64", 18},      {Op::TanF, "tan.f64", 22},
    {Op::AtanF, "atan.f64", 22},    {Op::Atan2F, "atan2.f64", 24},
    {Op::PowF, "pow.f64", 30},      {Op::FloorF, "floor.f64", 2},
    {Op::RoundF, "round.f64", 2},   {Op::ModF, "mod.f64", 12},

    {Op::AddC, "add.c64", 2},       {Op::SubC, "sub.c64", 2},
    {Op::MulC, "cmul.c64", 1},      {Op::DivC, "cdiv.c64", 20},
    {Op::NegC, "neg.c64", 2},       {Op::ConjC, "conj.c64", 1},
    {Op::FmaC, "cmac.c64", 1},

    {Op::AddI, "add.i64", 1},       {Op::MulI, "mul.i64", 1},
    {Op::CmpI, "cmp.i64", 1},       {Op::Branch, "branch", 1},
    {Op::LoopOverhead, "loop", 2},

    {Op::LoadF, "ld.f64", 2},       {Op::StoreF, "st.f64", 2},
    {Op::LoadC, "ld.c64", 2},       {Op::StoreC, "st.c64", 2},
    {Op::VLoadF, "vld.f64", 2},     {Op::VStoreF, "vst.f64", 2},
    {Op::VLoadC, "vld.c64", 2},     {Op::VStoreC, "vst.c64", 2},

    {Op::VAddF, "vadd.f64", 1},     {Op::VSubF, "vsub.f64", 1},
    {Op::VMulF, "vmul.f64", 1},     {Op::VDivF, "vdiv.f64", 10},
    {Op::VMinF, "vmin.f64", 1},     {Op::VMaxF, "vmax.f64", 1},
    {Op::VAbsF, "vabs.f64", 1},     {Op::VNegF, "vneg.f64", 1},
    {Op::VFmaF, "vfma.f64", 1},     {Op::VSplatF, "vsplat.f64", 1},
    {Op::VReduceAddF, "vredadd.f64", 4},
    {Op::VReduceMinF, "vredmin.f64", 4},
    {Op::VReduceMaxF, "vredmax.f64", 4},

    {Op::VAddC, "vadd.c64", 1},     {Op::VSubC, "vsub.c64", 1},
    {Op::VMulC, "vcmul.c64", 1},    {Op::VNegC, "vneg.c64", 1},
    {Op::VConjC, "vconj.c64", 1},   {Op::VFmaC, "vcmac.c64", 1},
    {Op::VSplatC, "vsplat.c64", 1}, {Op::VReduceAddC, "vredadd.c64", 3},

    {Op::BoundsCheck, "boundscheck", 2},
    {Op::AllocTemp, "alloctemp", 30},
};

const OpMeta& meta(Op op) {
  for (const auto& m : kOps) {
    if (m.op == op) return m;
  }
  throw std::logic_error("unknown isa::Op");
}

}  // namespace

const char* mnemonic(Op op) { return meta(op).mnemonic; }

std::optional<Op> opFromMnemonic(const std::string& name) {
  for (const auto& m : kOps) {
    if (name == m.mnemonic) return m.op;
  }
  return std::nullopt;
}

bool isVectorOp(Op op) {
  switch (op) {
    case Op::VLoadF: case Op::VStoreF: case Op::VLoadC: case Op::VStoreC:
    case Op::VAddF: case Op::VSubF: case Op::VMulF: case Op::VDivF:
    case Op::VMinF: case Op::VMaxF: case Op::VAbsF: case Op::VNegF:
    case Op::VFmaF: case Op::VSplatF:
    case Op::VReduceAddF: case Op::VReduceMinF: case Op::VReduceMaxF:
    case Op::VAddC: case Op::VSubC: case Op::VMulC: case Op::VNegC:
    case Op::VConjC: case Op::VFmaC: case Op::VSplatC: case Op::VReduceAddC:
      return true;
    default:
      return false;
  }
}

bool isComplexOp(Op op) {
  switch (op) {
    case Op::AddC: case Op::SubC: case Op::MulC: case Op::DivC:
    case Op::NegC: case Op::ConjC: case Op::FmaC:
    case Op::LoadC: case Op::StoreC: case Op::VLoadC: case Op::VStoreC:
    case Op::VAddC: case Op::VSubC: case Op::VMulC: case Op::VNegC:
    case Op::VConjC: case Op::VFmaC: case Op::VSplatC: case Op::VReduceAddC:
      return true;
    default:
      return false;
  }
}

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
  switch (op) {
    case Op::FmaF: return fma_;
    case Op::MulC: return cmul_;
    case Op::FmaC: return cmac_;
    case Op::VFmaF: return lanesF64_ > 1 && fma_;
    case Op::VMulC: return lanesC64_ > 1 && cmul_;
    case Op::VFmaC: return lanesC64_ > 1 && cmac_;
    case Op::VConjC: return lanesC64_ > 1 && cmul_;  // part of the complex unit
    default:
      if (isVectorOp(op)) {
        return isComplexOp(op) ? lanesC64_ > 1 : lanesF64_ > 1;
      }
      return true;  // baseline scalar/integer/memory ops always exist
  }
}

double IsaDescription::rawCost(Op op) const {
  auto it = costOverride_.find(op);
  double base = it != costOverride_.end() ? it->second : meta(op).defaultCost;
  if (it == costOverride_.end()) {
    if (zol_ && op == Op::LoopOverhead) return 0.0;
    if (agu_ && (op == Op::AddI || op == Op::MulI || op == Op::CmpI)) return 0.0;
  }
  // Wide vectors beyond the memory port width pay extra issues on memory ops.
  if (op == Op::VLoadF || op == Op::VStoreF) {
    int issues = (lanesF64_ + memLanes_ - 1) / memLanes_;
    return base * issues;
  }
  if (op == Op::VLoadC || op == Op::VStoreC) {
    int issues = (2 * lanesC64_ + memLanes_ - 1) / memLanes_;  // c64 = 2 doubles
    return base * issues;
  }
  // Reduction depth scales with lane count.
  if (op == Op::VReduceAddF || op == Op::VReduceMinF || op == Op::VReduceMaxF) {
    return std::max(1.0, std::log2(static_cast<double>(lanesF64_)) + 1.0);
  }
  if (op == Op::VReduceAddC) {
    return std::max(1.0, std::log2(static_cast<double>(lanesC64_)) + 1.0);
  }
  return base;
}

double IsaDescription::cost(Op op) const {
  if (supports(op)) return rawCost(op);
  // Decompositions for missing custom instructions.
  switch (op) {
    case Op::FmaF: return cost(Op::MulF) + cost(Op::AddF);
    case Op::MulC: return 4 * cost(Op::MulF) + 2 * cost(Op::AddF);
    case Op::FmaC: return cost(Op::MulC) + cost(Op::AddC);
    case Op::ConjC: return cost(Op::NegF);
    case Op::VFmaF:
      if (lanesF64_ > 1) return cost(Op::VMulF) + cost(Op::VAddF);
      break;
    case Op::VMulC:
      // Without a complex SIMD unit the vectorizer never emits this.
      break;
    default:
      break;
  }
  throw std::logic_error(std::string("cost requested for unsupported op ") + mnemonic(op));
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
  if (!supports(op)) return false;
  if (isVectorOp(op)) return true;
  switch (op) {
    case Op::FmaF:
    case Op::MulC:
    case Op::FmaC:
      return true;  // scalar custom instructions
    default:
      return false;  // plain C operators / libm
  }
}

IsaDescription IsaDescription::preset(const std::string& name) {
  IsaDescription d;
  auto dspx = [&](int wF, int wC) {
    d.setName(name);
    d.setLanes(wF, wC);
    d.setMemLanes(8);
    d.setFeature("fma", true);
    d.setFeature("cmul", true);
    d.setFeature("cmac", true);
    d.setFeature("zol", true);
    d.setFeature("agu", true);
  };
  if (name == "scalar") {
    d.setName("scalar");
    return d;
  }
  if (name == "dspx") {
    dspx(8, 4);
    return d;
  }
  if (name == "dspx_w2") {
    dspx(2, 1);
    return d;
  }
  if (name == "dspx_w4") {
    dspx(4, 2);
    return d;
  }
  if (name == "dspx_w16") {
    dspx(16, 8);
    return d;
  }
  if (name == "dspx_nocomplex") {
    // SIMD registers still hold interleaved complex data (vadd/vsub work as
    // plain f64 lane ops); only the complex-arithmetic unit is gone.
    dspx(8, 4);
    d.setFeature("cmul", false);
    d.setFeature("cmac", false);
    return d;
  }
  if (name == "dspx_novec") {
    dspx(1, 1);
    return d;
  }
  throw std::invalid_argument("unknown ISA preset '" + name + "'");
}

std::vector<std::string> IsaDescription::presetNames() {
  return {"scalar", "dspx", "dspx_w2", "dspx_w4", "dspx_w16", "dspx_nocomplex", "dspx_novec"};
}

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
    std::string_view line = trim(rawLine);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is{std::string(line)};
    std::string directive;
    is >> directive;
    SourceLoc loc{lineNo, 1};
    if (directive == "name") {
      std::string n;
      is >> n;
      d.setName(n);
    } else if (directive == "simd") {
      std::string ty;
      int lanes = 1;
      is >> ty >> lanes;
      if (ty == "f64") {
        d.lanesF64_ = lanes < 1 ? 1 : lanes;
      } else if (ty == "c64") {
        d.lanesC64_ = lanes < 1 ? 1 : lanes;
      } else {
        diags.error(loc, "unknown simd element type '" + ty + "'");
      }
    } else if (directive == "memlanes") {
      int lanes = 8;
      is >> lanes;
      d.setMemLanes(lanes < 1 ? 1 : lanes);
    } else if (directive == "feature") {
      std::string f;
      is >> f;
      d.setFeature(f, true, &diags);
    } else if (directive == "cost") {
      std::string mn;
      double cycles = 0;
      is >> mn >> cycles;
      auto op = opFromMnemonic(mn);
      if (!op) {
        diags.error(loc, "unknown op mnemonic '" + mn + "'");
      } else if (auto [it, inserted] = costLine.emplace(*op, lineNo); !inserted) {
        diags.error(loc, "duplicate cost for '" + mn + "' (first defined at line " +
                             std::to_string(it->second) + ")");
      } else {
        d.setCost(*op, cycles);
      }
    } else if (directive == "intrinsic") {
      std::string mn;
      std::string cName;
      is >> mn >> cName;
      auto op = opFromMnemonic(mn);
      if (!op) {
        diags.error(loc, "unknown op mnemonic '" + mn + "'");
      } else if (!isIdentifier(cName)) {
        diags.error(loc, "intrinsic name '" + cName + "' is not a valid C identifier");
      } else if (auto [it, inserted] = intrinsicLine.emplace(*op, lineNo); !inserted) {
        diags.error(loc, "duplicate intrinsic for '" + mn + "' (first defined at line " +
                             std::to_string(it->second) + ")");
      } else {
        d.setIntrinsicName(*op, cName);
      }
    } else {
      diags.error(loc, "unknown ISA directive '" + directive + "'");
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
