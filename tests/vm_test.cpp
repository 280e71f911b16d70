// VM tests: cycle accounting, category attribution, runtime faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "support/errors.hpp"
#include "support/limits.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;

CompiledUnit compile(const std::string& src, const std::vector<ArgSpec>& specs,
                     const CompileOptions& options = CompileOptions::proposed()) {
  Compiler compiler;
  return compiler.compileSource(src, "f", specs, options);
}

TEST(Vm, ScalarResult) {
  auto unit = compile("function y = f(a)\ny = a * 3;\nend\n", {ArgSpec::scalar()});
  auto r = unit.run({Matrix::scalar(7)});
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(r.outputs[0].scalarValue(), 21.0);
  EXPECT_GT(r.cycles.total, 0.0);
}

TEST(Vm, CyclesScaleWithWork) {
  std::string src = "function y = f(x)\ny = x + 1;\nend\n";
  kernels::InputGen gen(50);
  CompileOptions scalarIsa = CompileOptions::proposed("scalar");
  auto small = compile(src, {ArgSpec::row(64)}, scalarIsa);
  auto large = compile(src, {ArgSpec::row(256)}, scalarIsa);
  double cSmall = small.run({gen.rowVector(64)}).cycles.total;
  double cLarge = large.run({gen.rowVector(256)}).cycles.total;
  EXPECT_NEAR(cLarge / cSmall, 4.0, 0.3);
}

TEST(Vm, CategoriesArePopulated) {
  auto k = kernels::makeFir(128, 8);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike("scalar"));
  auto r = unit.run(k.args);
  auto cats = r.cycles.byCategory();
  EXPECT_GT(cats.at("arith"), 0.0);
  EXPECT_GT(cats.at("memory"), 0.0);
  EXPECT_GT(cats.at("loop"), 0.0);
  EXPECT_GT(cats.at("check"), 0.0);
  double sum = 0;
  for (const auto& [cat, v] : cats) sum += v;
  EXPECT_NEAR(sum, r.cycles.total, 1e-6);
}

TEST(Vm, ByOpBreakdownIsConsistent) {
  auto k = kernels::makeCdot(64);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto r = unit.run(k.args);
  double sum = 0;
  for (double v : r.cycles.byOp) sum += v;
  EXPECT_NEAR(sum, r.cycles.total, 1e-6);
  // The complex MAC unit must actually be used.
  EXPECT_GT(r.cycles.count(isa::Op::VFmaC) + r.cycles.count(isa::Op::FmaC), 0.0);
}

TEST(Vm, IntrinsicOpsCounted) {
  auto k = kernels::makeFdeq(64);
  Compiler compiler;
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());
  EXPECT_GT(prop.run(k.args).cycles.intrinsicOpsExecuted, 0u);
  EXPECT_EQ(base.run(k.args).cycles.intrinsicOpsExecuted, 0u);
}

TEST(Vm, ArgumentShapeMismatchThrows) {
  auto unit = compile("function y = f(x)\ny = x + 1;\nend\n", {ArgSpec::row(8)});
  EXPECT_THROW(unit.run({kernels::InputGen(51).rowVector(9)}), RuntimeError);
  EXPECT_THROW(unit.run({}), RuntimeError);
}

TEST(Vm, RealParamRejectsComplexInput) {
  auto unit = compile("function y = f(x)\ny = x + 1;\nend\n", {ArgSpec::row(4)});
  EXPECT_THROW(unit.run({kernels::InputGen(52).complexRowVector(4)}), RuntimeError);
}

TEST(Vm, OutOfBoundsLoadFaults) {
  // Index depends on a runtime scalar — compile succeeds, VM faults.
  auto unit = compile("function y = f(x, i)\ny = x(i);\nend\n",
                      {ArgSpec::row(4), ArgSpec::scalar()});
  EXPECT_THROW(unit.run({kernels::InputGen(53).rowVector(4), Matrix::scalar(9)}),
               RuntimeError);
  auto ok = unit.run({kernels::InputGen(53).rowVector(4), Matrix::scalar(2)});
  EXPECT_EQ(ok.outputs.size(), 1u);
}

TEST(Vm, OpBudgetStopsRunaway) {
  auto unit = compile("function y = f(x)\ny = 0;\nwhile x > -1\n  y = y + 1;\nend\nend\n",
                      {ArgSpec::scalar()});
  vm::Machine machine(unit.isa());
  machine.setMaxOps(10'000);
  EXPECT_THROW(machine.run(unit.fn(), {Matrix::scalar(1)}), RuntimeError);
}

TEST(Vm, ComplexOutputs) {
  auto unit = compile("function y = f(x)\ny = x * 2i;\nend\n", {ArgSpec::complexScalar()});
  auto r = unit.run({Matrix::scalar(Complex{1, 1})});
  EXPECT_EQ(r.outputs[0].at(0), (Complex{-2, 2}));
}

TEST(Vm, ComplexLogChargesWhatTheRuntimeComputes) {
  // mat2c_clog(z) = log(|z|) + i*arg(z): |z|'s charges plus log and atan2.
  auto cycles = [](const char* body) {
    auto unit = compile(std::string("function y = f(z)\ny = ") + body + ";\nend\n",
                        {ArgSpec::complexScalar()});
    auto r = unit.run({Matrix::scalar(Complex{-0.6, 0.8})});
    return r.cycles;
  };
  vm::CycleStats log = cycles("log(z)");
  vm::CycleStats abs = cycles("abs(z)");
  EXPECT_EQ(log.count(isa::Op::LogF), 1.0);
  EXPECT_EQ(log.count(isa::Op::Atan2F), 1.0);
  for (int i = 0; i < isa::kNumOps; ++i) {
    auto op = static_cast<isa::Op>(i);
    if (abs.count(op) > 0) {
      EXPECT_EQ(log.count(op), abs.count(op)) << isa::mnemonic(op);
    }
  }
  auto dspx = isa::IsaDescription::preset("dspx");
  EXPECT_DOUBLE_EQ(log.byCategory().at("arith"), abs.byCategory().at("arith") +
                                                     dspx.cost(isa::Op::LogF) +
                                                     dspx.cost(isa::Op::Atan2F));
}

TEST(Vm, BaselineCheckCyclesDisappearInProposed) {
  auto k = kernels::makeFir(128, 8);
  Compiler compiler;
  auto base = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::coderLike());
  auto prop = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  auto rb = base.run(k.args);
  auto rp = prop.run(k.args);
  EXPECT_GT(rb.cycles.byCategory().at("check"), 0.0);
  EXPECT_EQ(rp.cycles.byCategory().count("check"), 0u);
  EXPECT_EQ(rp.cycles.byCategory().count("alloc"), 0u);
}

TEST(Vm, DeterministicCycles) {
  auto k = kernels::makeFmdemod(128);
  Compiler compiler;
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  double c1 = unit.run(k.args).cycles.total;
  double c2 = unit.run(k.args).cycles.total;
  EXPECT_DOUBLE_EQ(c1, c2);
}

// -- runtime faults -----------------------------------------------------------

/// A hand-built function with one 1x4 f64 array output `y`.
lir::Function handBuilt(std::vector<lir::StmtPtr> body) {
  lir::Function fn;
  fn.name = "f";
  fn.outs.push_back({"y", lir::Scalar::F64, true, 1, 4});
  fn.body = std::move(body);
  return fn;
}

/// The RuntimeError message running `fn` raises, or "" when it runs.
std::string runError(const lir::Function& fn) {
  vm::Machine machine(isa::IsaDescription::preset("dspx"));
  try {
    machine.run(fn, {});
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "";
}

std::vector<lir::StmtPtr> stmts(lir::StmtPtr a, lir::StmtPtr b = nullptr) {
  std::vector<lir::StmtPtr> out;
  out.push_back(std::move(a));
  if (b) out.push_back(std::move(b));
  return out;
}

TEST(VmFaults, UndefinedVariableIsReportedWhenItIsRead) {
  using namespace lir;
  auto readT = [] { return store("y", constI(1), varRef("t", VType::f64())); };
  EXPECT_EQ(runError(handBuilt(stmts(readT()))), "VM: undefined variable 't'");
  // A read that is never evaluated is not an error.
  auto never = binary(BinOp::Lt, constI(1), constI(0), VType::b1());
  EXPECT_EQ(runError(handBuilt(stmts(ifStmt(std::move(never), stmts(readT()))))), "");
  // Writing the variable first makes the same read fine.
  EXPECT_EQ(runError(handBuilt(stmts(declScalar("t", VType::f64(), constF(2)), readT()))), "");
}

TEST(VmFaults, StoreOutOfBounds) {
  using namespace lir;
  EXPECT_EQ(runError(handBuilt(stmts(store("y", constI(7), constF(1))))),
            "VM: store out of bounds on 'y' at 7");
}

TEST(VmFaults, IndexNearInt64MaxIsOutOfBounds) {
  // index + lanes must not wrap round into range.
  using namespace lir;
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(runError(handBuilt(stmts(store("y", constI(huge), constF(1))))),
            "VM: store out of bounds on 'y' at 9223372036854775807");
  EXPECT_EQ(runError(handBuilt(stmts(store("y", constI(0), load("y", constI(huge), VType::f64()))))),
            "VM: load out of bounds on 'y' at 9223372036854775807 (+1) of 4");
}

TEST(VmFaults, BoundsCheckFailure) {
  using namespace lir;
  EXPECT_EQ(runError(handBuilt(stmts(boundsCheck("y", constI(3))))), "");
  EXPECT_EQ(runError(handBuilt(stmts(boundsCheck("y", constI(4))))),
            "VM: bounds check failed on 'y'");
}

TEST(VmFaults, IntegerDivisionByZero) {
  using namespace lir;
  auto quotient = binary(BinOp::Div, constI(1), constI(0), VType::i64());
  EXPECT_EQ(runError(handBuilt(stmts(declScalar("k", VType::i64(), std::move(quotient))))),
            "VM: integer division by zero");
}

TEST(VmFaults, ComplexStoredIntoRealArray) {
  using namespace lir;
  EXPECT_EQ(runError(handBuilt(stmts(store("y", constI(0), constC(1, 2))))),
            "VM: storing complex into real array 'y'");
}

TEST(VmFaults, ExpiredDeadlineStopsALongRunNamingTheVm) {
  // The tuner's wall budget rests on the VM's amortized deadline poll.
  auto unit = compile("function y = f(x)\ny = 0;\nwhile x > -1\n  y = y + 1;\nend\nend\n",
                      {ArgSpec::scalar()});
  vm::Machine machine(unit.isa());
  machine.setMaxOps(1'000'000);  // a missed poll fails fast on the op budget
  DeadlineGuard guard(60000);
  DeadlineGuard::Scope scope(guard);
  guard.forceExpire();
  try {
    machine.run(unit.fn(), {Matrix::scalar(1)});
    FAIL() << "expected a Timeout";
  } catch (const StructuredError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Timeout);
    EXPECT_NE(std::string(e.what()).find("(in vm)"), std::string::npos) << e.what();
  }
}

// -- non-finite inputs -----------------------------------------------------------

TEST(VmNonFinite, RealKernelsStayRealAndMatchTheInterpreter) {
  // (inf+0i)*(2+0i) has imaginary part inf*0 = NaN: a real value computed
  // as a complex number turns complex on an infinite input.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> anyInputs = {
      {1, inf, 2, -inf, 3, nan, 4, 5}, {inf, 1, 2, 3, 4, 5, 6, 7}, {-2, -inf, 0, 1, 2, 3, 4, 5}};
  struct Kernel {
    const char* body;
    bool nanInputs;  // max of a NaN depends on lane order; MATLAB's skips it
  };
  const Kernel kernelsUnderTest[] = {{"y = x .* 2 + 1;", true},
                                     {"y = x ./ 4 - 3 .* x;", true},
                                     {"y = abs(x) + x .* x;", true},
                                     {"y = sum(x .* 2);", true},
                                     {"y = max(x .* 2);", false},
                                     {"y = prod(x);", true},
                                     {"y = dot(x, x);", true},
                                     {"y = x' * x;", true}};
  for (const Kernel& k : kernelsUnderTest) {
    std::string src = std::string("function y = f(x)\n") + k.body + "\nend\n";
    for (const char* preset : {"dspx", "scalar"}) {
      for (bool coder : {false, true}) {
        auto unit = compile(src, {ArgSpec::row(8)},
                            coder ? CompileOptions::coderLike(preset)
                                  : CompileOptions::proposed(preset));
        for (const auto& in : anyInputs) {
          bool hasNaN = std::any_of(in.begin(), in.end(), [](double v) { return v != v; });
          if (hasNaN && !k.nanInputs) continue;
          std::vector<Matrix> args = {Matrix::rowVector(in)};
          SCOPED_TRACE(std::string(k.body) + " " + preset + (coder ? " coder" : " proposed") +
                       " on " + args[0].toString());
          EXPECT_FALSE(unit.run(args).outputs.at(0).isComplex());
          EXPECT_EQ(validateAgainstInterpreter(src, "f", unit, args), 0.0);
        }
      }
    }
  }
}

// -- the cycle ledger ---------------------------------------------------------

using SuiteFn = std::vector<kernels::KernelSpec> (*)();
constexpr std::pair<const char*, SuiteFn> kLedgerSuites[] = {
    {"dsp", kernels::dspBenchmarkSuite},
    {"ext", kernels::extendedKernelSuite},
    {"dse", kernels::dseCorpus}};

/// One kernel of one suite in kLedgerSuites, on one preset in one style.
struct LedgerCase {
  std::size_t suite;
  std::size_t kernel;
  std::string preset;
  bool coder;
  std::string name;
};

void PrintTo(const LedgerCase& c, std::ostream* os) { *os << c.name; }

std::vector<LedgerCase> ledgerCases() {
  std::vector<LedgerCase> out;
  for (std::size_t s = 0; s < std::size(kLedgerSuites); ++s) {
    auto suite = kLedgerSuites[s].second();
    for (std::size_t k = 0; k < suite.size(); ++k)
      for (const auto& preset : isa::IsaDescription::presetNames())
        for (bool coder : {false, true})
          out.push_back({s, k, preset, coder,
                         std::string(kLedgerSuites[s].first) + "_" + suite[k].name + "_" +
                             preset + (coder ? "_coder" : "_proposed")});
  }
  return out;
}

/// FNV-1a 64 over `bytes`, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hexFloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a ", x);
  return buf;
}

void profileInPreOrder(const std::vector<lir::StmtPtr>& body, const vm::StmtProfile& profile,
                       std::string& out) {
  for (const auto& s : body) {
    auto it = profile.find(s.get());
    out += std::to_string(it == profile.end() ? 0 : it->second) + " ";
    profileInPreOrder(s->body, profile, out);
    profileInPreOrder(s->elseBody, profile, out);
  }
}

/// FNV-1a 64 of a run's outputs (hex floats), ledger totals, per-op cycles
/// and counts, and per-statement counts in statement pre-order.
std::string runDigest(const lir::Function& fn, const vm::RunResult& r,
                      const vm::StmtProfile& profile) {
  std::string text;
  for (const Matrix& m : r.outputs) {
    text += std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
            (m.isComplex() ? "c " : "r ");
    for (std::size_t i = 0; i < m.numel(); ++i)
      text += hexFloat(m.real(i)) + (m.isComplex() ? hexFloat(m.imag(i)) : "");
  }
  const vm::CycleStats& s = r.cycles;
  text += "| " + hexFloat(s.total) + std::to_string(s.opsExecuted) + " " +
          std::to_string(s.intrinsicOpsExecuted) + " |";
  for (std::size_t i = 0; i < s.byOp.size(); ++i)
    text += " " + hexFloat(s.byOp[i]) + hexFloat(s.countByOp[i]);
  text += "|";
  profileInPreOrder(fn.body, profile, text);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a(0xcbf29ce484222325ULL, text));
  return hex;
}

/// tests/fixtures/vm_digests.txt: one "<case> <digest>" line per VmLedger case.
const std::map<std::string, std::string>& fixtureDigests() {
  static const std::map<std::string, std::string> digests = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(MAT2C_VM_DIGESTS);
    std::string name, digest;
    while (in >> name >> digest) out[name] = digest;
    return out;
  }();
  return digests;
}

class VmLedger : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(VmLedger, TotalIsCountsTimesCosts) {
  // docs/dse.md: the VM total is exactly sum(count[op] * cost[op]), and ops
  // that zol/agu make free still record their counts. dse::explore rescores
  // cost-only design points from the counts alone on that identity.
  const LedgerCase& c = GetParam();
  kernels::KernelSpec spec = kLedgerSuites[c.suite].second()[c.kernel];
  Compiler compiler;
  auto unit = compiler.compileSource(
      spec.source, spec.entry, spec.argSpecs,
      c.coder ? CompileOptions::coderLike(c.preset) : CompileOptions::proposed(c.preset));
  const isa::IsaDescription& isa = unit.isa();
  vm::StmtProfile profile;
  vm::Machine machine(isa);
  machine.setProfile(&profile);
  vm::RunResult run = machine.run(unit.fn(), spec.args);
  const vm::CycleStats& s = run.cycles;

  double dot = 0.0, intrinsics = 0.0;
  for (int i = 0; i < isa::kNumOps; ++i) {
    auto op = static_cast<isa::Op>(i);
    if (s.count(op) == 0) continue;
    dot += s.count(op) * isa.cost(op);
    if (isa.usesIntrinsic(op)) intrinsics += s.count(op);
  }
  EXPECT_DOUBLE_EQ(dot, s.total);
  double categories = 0.0;
  auto cats = s.byCategory();
  for (const auto& [cat, cycles] : cats) categories += cycles;
  EXPECT_DOUBLE_EQ(categories, s.total);
  EXPECT_DOUBLE_EQ(intrinsics, static_cast<double>(s.intrinsicOpsExecuted));

  // Every kernel issues loop overhead; where zol makes it free it stays in
  // the ledger, and so does its category.
  EXPECT_GT(s.count(isa::Op::LoopOverhead), 0.0);
  EXPECT_EQ(cats.count("loop"), 1u);

  // Bit-exact digest of everything the run reports, against the fixture
  // the reference evaluator wrote. A missing or stale entry prints the line
  // to put in the fixture.
  std::string digest = runDigest(unit.fn(), run, profile);
  const auto& want = fixtureDigests();
  auto it = want.find(c.name);
  EXPECT_TRUE(it != want.end() && it->second == digest)
      << "vm-digest " << c.name << " " << digest;
}

INSTANTIATE_TEST_SUITE_P(Corpus, VmLedger, ::testing::ValuesIn(ledgerCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mat2c
