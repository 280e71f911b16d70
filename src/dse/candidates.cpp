// Layer 2 — candidate custom instructions and the hardware-cost model.
#include <algorithm>
#include <cmath>
#include <set>

#include "dse/dse.hpp"
#include "support/string_utils.hpp"

namespace mat2c::dse {
namespace {

std::string shortToken(isa::Op op) {
  std::string t = isa::mnemonic(op);
  std::replace(t.begin(), t.end(), '.', '_');
  return t;
}

}  // namespace

std::vector<CandidateInstr> synthesizeCandidates(const std::vector<MinedIdiom>& idioms,
                                                 const isa::IsaDescription& costRef,
                                                 int topK) {
  std::vector<CandidateInstr> out;
  for (const auto& idiom : idioms) {
    if (idiom.ops.size() < 2) continue;
    CandidateInstr c;
    c.hash = idiom.hash;
    c.signature = idiom.signature;
    c.ops = idiom.ops;
    c.dynCount = idiom.dynCount;
    c.kernels = idiom.kernels;

    double sum = 0.0, maxMember = 0.0;
    for (isa::Op op : idiom.ops) {
      double cost = costRef.cost(op);
      sum += cost;
      maxMember = std::max(maxMember, cost);
      c.hwUnits += isa::opInfo(op).unitsPerLane;
    }
    // Dual-issue fusion: the fused instruction still flows every member
    // micro-op, but two per cycle, and never beats the slowest member.
    c.cycles = std::max(maxMember, std::ceil(sum / 2.0));
    c.latency = sum;
    c.estSavedCycles = (sum - c.cycles) * idiom.dynCount;

    // Name: member mnemonics with repeats collapsed ("fused.vfma_f64+2vld_f64").
    std::vector<std::string> tokens;
    for (std::size_t i = 0; i < idiom.ops.size(); ++i) {
      int repeat = 1;
      bool seenBefore = false;
      for (std::size_t j = 0; j < idiom.ops.size(); ++j) {
        if (idiom.ops[j] != idiom.ops[i]) continue;
        if (j < i) { seenBefore = true; break; }
        if (j > i) ++repeat;
      }
      if (seenBefore) continue;
      std::string t = shortToken(idiom.ops[i]);
      tokens.push_back(repeat > 1 ? std::to_string(repeat) + t : t);
    }
    c.name = "fused." + join(tokens, "+");
    if (c.estSavedCycles > 0.0) out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const CandidateInstr& a, const CandidateInstr& b) {
    if (a.estSavedCycles != b.estSavedCycles) return a.estSavedCycles > b.estSavedCycles;
    return a.signature < b.signature;
  });
  if (topK >= 0 && out.size() > static_cast<std::size_t>(topK))
    out.resize(static_cast<std::size_t>(topK));
  return out;
}

double hwCostEstimate(const isa::IsaDescription& d) {
  double cost = 3.0;  // scalar core: ALU + FPU + control
  if (d.lanesF64() > 1) cost += 2.0 * d.lanesF64();  // SIMD f64 datapath
  if (d.hasFma()) cost += 1.0 * d.lanesF64();        // fused MAC per lane
  if (d.hasCmul()) cost += 6.0 * d.lanesC64();       // complex multiply unit
  if (d.hasCmac()) cost += 2.0 * d.lanesC64();       // complex accumulate extension
  if (d.hasZol()) cost += 1.0;                       // hardware loop registers
  if (d.hasAgu()) cost += 2.0;                       // address-generation units
  cost += d.memLanes();                              // memory-port width
  return cost;
}

std::string DesignPoint::label() const {
  std::string s = "w" + std::to_string(lanesF64);
  std::vector<std::string> feats;
  if (fma) feats.push_back("fma");
  if (cmul) feats.push_back("cmul");
  if (cmac) feats.push_back("cmac");
  s += feats.empty() ? " plain" : " " + join(feats, "+");
  if (zol || agu) s += " zol+agu";
  s += " m" + std::to_string(memLanes);
  if (!fused.empty()) s += " +" + std::to_string(fused.size()) + " fused";
  return s;
}

isa::IsaDescription toIsa(const DesignPoint& p, const std::string& name) {
  isa::IsaDescription d = isa::IsaDescription::preset("scalar");
  d.setName(name);
  d.setLanes(p.lanesF64, p.lanesC64);
  d.setMemLanes(p.memLanes);
  if (p.fma) d.setFeature("fma", true);
  if (p.cmul) d.setFeature("cmul", true);
  if (p.cmac) d.setFeature("cmac", true);
  if (p.zol) d.setFeature("zol", true);
  if (p.agu) d.setFeature("agu", true);
  return d;
}

double tileFused(const std::vector<IdiomInstance>& instances,
                 const std::vector<CandidateInstr>& candidates,
                 const std::vector<int>& selection, const isa::IsaDescription& variant,
                 vm::FusedCosting* out) {
  // Most-profitable-per-issue candidates claim nodes first.
  struct Sel {
    const CandidateInstr* c;
    double perIssue;  // member-cost sum minus fused cycles under `variant`
  };
  std::vector<Sel> order;
  for (int idx : selection) {
    if (idx < 0 || static_cast<std::size_t>(idx) >= candidates.size()) continue;
    const CandidateInstr& c = candidates[static_cast<std::size_t>(idx)];
    double memberSum = 0.0;
    for (isa::Op op : c.ops) memberSum += variant.cost(op);
    order.push_back({&c, memberSum - c.cycles});
  }
  std::sort(order.begin(), order.end(), [](const Sel& a, const Sel& b) {
    if (a.perIssue != b.perIssue) return a.perIssue > b.perIssue;
    return a.c->name < b.c->name;
  });

  double saved = 0.0;
  std::set<const lir::Expr*> used;
  std::set<const lir::Stmt*> usedStores;
  for (const Sel& sel : order) {
    if (sel.perIssue <= 0.0) continue;
    for (const IdiomInstance& inst : instances) {
      if (inst.hash != sel.c->hash || inst.dynCount <= 0.0) continue;
      bool overlap = inst.store && usedStores.count(inst.store);
      for (const lir::Expr* n : inst.nodes)
        if (overlap || used.count(n)) { overlap = true; break; }
      if (overlap) continue;
      for (const lir::Expr* n : inst.nodes) used.insert(n);
      if (inst.store) usedStores.insert(inst.store);
      saved += sel.perIssue * inst.dynCount;
      if (out) {
        out->roots[inst.root] = {sel.c->name, sel.c->cycles};
        for (const lir::Expr* n : inst.nodes) out->members.insert(n);
        if (inst.store) out->storeMembers.insert(inst.store);
      }
    }
  }
  return saved;
}

}  // namespace mat2c::dse
