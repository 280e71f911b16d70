// Parameterized ASIP instruction-set description.
//
// This is the paper's retargeting mechanism: the compiler never hard-codes a
// processor. An IsaDescription lists which custom instructions exist (SIMD
// lanes per element type, complex-arithmetic units, fused MAC), what each
// operation costs in cycles, and how its intrinsic is spelled in the emitted
// C. Descriptions come from presets (the evaluated `dspx` ASIP, a plain
// `scalar` target) or from a textual description file, so any processor can
// be targeted by writing a description — no compiler changes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/diagnostics.hpp"

namespace mat2c::isa {

/// Machine-level operations the compiler can emit and the VM can cost, in
/// the row order of isa/ops.def.
enum class Op {
#define MAT2C_OP(name, ...) name,
#include "isa/ops.def"
#undef MAT2C_OP
};

inline constexpr int kNumOps = 0
#define MAT2C_OP(...) +1
#include "isa/ops.def"
#undef MAT2C_OP
    ;

// Column types of the op table; isa/ops.def documents each column.
enum class Elem { None, F64, C64, I64 };
enum class Gate { None, Fma, Cmul, Cmac };
enum class CostRule { Flat, Zol, Agu, Port, Tree };
enum class Shape { None, Load, Store, Splat, Map1, Map2, Map3, Sum, Fold };

/// `count` issues of `op`; count 0 marks an unused expansion slot.
struct Term {
  int count;
  Op op;
};

/// One row of isa/ops.def.
struct OpInfo {
  const char* mnemonic;
  Elem elem;
  bool vector;
  double defaultCost;
  Gate gate;
  CostRule rule;
  Term expansion[2];
  double unitsPerLane;
  Shape shape;
  const char* fallback;
};

const OpInfo& opInfo(Op op);

/// Mnemonic used in description files and dumps, e.g. "vfma.f64".
const char* mnemonic(Op op);
std::optional<Op> opFromMnemonic(const std::string& name);
bool isVectorOp(Op op);
bool isComplexOp(Op op);

class IsaDescription {
 public:
  /// Built-in targets:
  ///  * "dspx"        — the evaluated ASIP: 8-lane f64 SIMD, 4-lane c64 SIMD,
  ///                    fused MAC, complex multiply and complex MAC units.
  ///  * "dspx_w2/4/16" — dspx with a different SIMD width (ablation A).
  ///  * "dspx_nocomplex" — dspx without the complex-arithmetic unit (ablation B).
  ///  * "scalar"      — plain CPU: no SIMD, no custom instructions.
  static IsaDescription preset(const std::string& name);
  static std::vector<std::string> presetNames();

  /// Parses the textual description format:
  ///   name mydsp
  ///   simd f64 8
  ///   simd c64 4
  ///   memlanes 8
  ///   feature fma | cmul | cmac
  ///   cost <mnemonic> <cycles>
  ///   intrinsic <mnemonic> <c_name>
  /// Unknown directives are diagnosed. Starts from scalar defaults.
  static IsaDescription parse(const std::string& text, DiagnosticEngine& diags);

  /// Round-trippable textual form of this description. Canonical: two
  /// descriptions with identical observable state serialize identically
  /// (override maps are ordered), so this doubles as the fingerprint input.
  std::string serialize() const;

  /// Stable 64-bit content hash of serialize(). Two descriptions with equal
  /// fingerprints behave identically for compilation, costing, and emission;
  /// the compile cache keys on it (service::CacheKey).
  std::uint64_t fingerprint() const;

  const std::string& name() const { return name_; }

  /// SIMD lanes for each element type (1 = no SIMD).
  int lanesF64() const { return lanesF64_; }
  int lanesC64() const { return lanesC64_; }
  bool hasFma() const { return fma_; }
  bool hasCmul() const { return cmul_; }
  bool hasCmac() const { return cmac_; }
  /// Zero-overhead hardware loops (standard on DSPs/ASIPs): loop
  /// increment+branch cost nothing.
  bool hasZol() const { return zol_; }
  /// Dedicated address-generation units: index arithmetic runs in parallel
  /// with the datapath and costs no issue slots.
  bool hasAgu() const { return agu_; }
  /// f64 elements the memory port moves per cycle; wider vectors pay more.
  int memLanes() const { return memLanes_; }

  /// Whether the target has a (custom) instruction for `op`: vector ops need
  /// more than one lane of their element kind, and gated ops (FmaF, MulC,
  /// FmaC and their vector forms, VConjC) need their feature.
  bool supports(Op op) const;

  /// Cycle cost of one issue of `op` *when supported*.
  double rawCost(Op op) const;

  /// Cycle cost including decomposition: unsupported complex/fused ops are
  /// charged as their expansion over supported ops (e.g. MulC without a cmul
  /// unit = 4 MulF + 2 AddF). Unsupported vector ops have no expansion and
  /// must not be emitted; asking for their cost throws. Never allocates
  /// unless it throws.
  double cost(Op op) const;
  /// Whether cost(op) returns rather than throws: `op` is supported, or it
  /// expands into ops that are.
  bool costable(Op op) const;

  /// C spelling of the intrinsic for a supported custom op, e.g.
  /// "dspx_vfma_f64". Scalar f64/int ops map to plain C operators and have no
  /// intrinsic name.
  std::string intrinsicName(Op op) const;
  /// True when emitted C should use an intrinsic call for this op: it is
  /// supported and has a runtime-header fallback.
  bool usesIntrinsic(Op op) const;

  // -- mutation (used by presets, parser, and ablation benches) -------------
  void setName(std::string n) { name_ = std::move(n); }
  void setLanes(int f64Lanes, int c64Lanes);
  void setMemLanes(int lanes) { memLanes_ = lanes; }
  void setFeature(const std::string& feature, bool on, DiagnosticEngine* diags = nullptr);
  void setCost(Op op, double cycles) { costOverride_[op] = cycles; }
  void setIntrinsicName(Op op, std::string cName) { intrinsicOverride_[op] = std::move(cName); }

 private:
  std::string name_ = "scalar";
  int lanesF64_ = 1;
  int lanesC64_ = 1;
  int memLanes_ = 8;
  bool fma_ = false;
  bool cmul_ = false;
  bool cmac_ = false;
  bool zol_ = false;
  bool agu_ = false;
  std::map<Op, double> costOverride_;
  std::map<Op, std::string> intrinsicOverride_;
};

}  // namespace mat2c::isa
