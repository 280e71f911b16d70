// Optimizer tests: constant folding, declaration sinking, idiom
// recognition, and the vectorizer (legality + numerics via the VM); the
// exact output of the linear-time passes on hand-built LIR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "lir/select.hpp"
#include "parser/parser.hpp"
#include "support/string_utils.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;

lir::Function lowerOnly(const std::string& src, const std::string& entry,
                        const std::vector<ArgSpec>& specs) {
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  lir::Function fn = lower::lowerProgram(*prog, entry, specs, {}, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  return fn;
}

/// Compiles with/without vectorization and checks identical-within-tolerance
/// results plus an expected number of vectorized loops.
void checkVectorization(const std::string& src, const std::vector<ArgSpec>& specs,
                        const std::vector<Matrix>& args, int expectVectorized,
                        const std::string& isaName = "dspx") {
  Compiler compiler;
  CompileOptions vec = CompileOptions::proposed(isaName);
  CompileOptions novec = CompileOptions::proposed(isaName);
  novec.vectorize = false;
  auto uv = compiler.compileSource(src, "f", specs, vec);
  auto us = compiler.compileSource(src, "f", specs, novec);
  EXPECT_EQ(uv.optimizationReport().vec.loopsVectorized, expectVectorized) << uv.lirDump();
  auto rv = uv.run(args);
  auto rs = us.run(args);
  ASSERT_EQ(rv.outputs.size(), rs.outputs.size());
  for (std::size_t i = 0; i < rv.outputs.size(); ++i) {
    EXPECT_LE(maxAbsDiff(rv.outputs[i], rs.outputs[i]), 1e-9);
  }
  if (expectVectorized > 0) {
    EXPECT_LT(rv.cycles.total, rs.cycles.total) << "vectorization should save cycles";
  }
}

TEST(ConstFold, FoldsIndexArithmetic) {
  lir::Function fn = lowerOnly(
      "function y = f(x)\ny = zeros(1, 8);\nfor k = 1:8\n  y(k) = x(k);\nend\nend\n", "f",
      {ArgSpec::row(8)});
  opt::constFold(fn);
  // Index (k - 1) + 0 style chains must fold to a canonical small form.
  std::string dump = lir::print(fn);
  EXPECT_EQ(dump.find("(0 + "), std::string::npos) << dump;
}

TEST(ConstFold, FoldsConstantScalars) {
  lir::Function fn = lowerOnly("function y = f(x)\ny = x * (2 * 3 + 4);\nend\n", "f",
                               {ArgSpec::scalar()});
  opt::constFold(fn);
  std::string dump = lir::print(fn);
  EXPECT_NE(dump.find("10"), std::string::npos);
}

TEST(SinkDecls, MovesLoopTemporaryIntoLoop) {
  lir::Function fn = lowerOnly(
      "function y = f(x)\ny = zeros(1, 8);\nfor k = 1:8\n  t = x(k) * 2;\n  y(k) = t + 1;\n"
      "end\nend\n",
      "f", {ArgSpec::row(8)});
  opt::constFold(fn);
  opt::sinkDecls(fn);
  // The decl of t must now be the for-body's first reference.
  bool foundInLoop = false;
  for (const auto& s : fn.body) {
    if (s->kind != lir::StmtKind::For) continue;
    for (const auto& inner : s->body) {
      if (inner->kind == lir::StmtKind::DeclScalar && inner->value) foundInLoop = true;
    }
  }
  EXPECT_TRUE(foundInLoop) << lir::print(fn);
  EXPECT_TRUE(lir::verify(fn).empty());
}

TEST(SinkDecls, DoesNotSinkCarriedValue) {
  // `s` carries across iterations (read before write) — must stay outside.
  lir::Function fn = lowerOnly(
      "function y = f(x)\ns = 0;\nfor k = 1:8\n  s = s + x(k);\nend\ny = s;\nend\n", "f",
      {ArgSpec::row(8)});
  opt::constFold(fn);
  opt::sinkDecls(fn);
  EXPECT_TRUE(lir::verify(fn).empty());
  // The accumulator decl stays at frame level.
  bool declAtTop = false;
  for (const auto& s : fn.body) {
    if (s->kind == lir::StmtKind::DeclScalar) declAtTop = true;
  }
  EXPECT_TRUE(declAtTop);
}

TEST(Idioms, FormsScalarFma) {
  lir::Function fn = lowerOnly(
      "function y = f(a, b, c)\ny = a * b + c;\nend\n", "f",
      {ArgSpec::scalar(), ArgSpec::scalar(), ArgSpec::scalar()});
  int n = opt::recognizeIdioms(fn, isa::IsaDescription::preset("dspx"));
  EXPECT_EQ(n, 1);
  EXPECT_NE(lir::print(fn).find("fma("), std::string::npos);
}

TEST(Idioms, SkipsWhenTargetLacksFma) {
  lir::Function fn = lowerOnly(
      "function y = f(a, b, c)\ny = a * b + c;\nend\n", "f",
      {ArgSpec::scalar(), ArgSpec::scalar(), ArgSpec::scalar()});
  int n = opt::recognizeIdioms(fn, isa::IsaDescription::preset("scalar"));
  EXPECT_EQ(n, 0);
}

TEST(Idioms, ComplexMacNeedsCmac) {
  const char* src = "function y = f(a, b, c)\ny = a * b + c;\nend\n";
  std::vector<ArgSpec> specs = {ArgSpec::complexScalar(), ArgSpec::complexScalar(),
                                ArgSpec::complexScalar()};
  lir::Function withUnit = lowerOnly(src, "f", specs);
  EXPECT_EQ(opt::recognizeIdioms(withUnit, isa::IsaDescription::preset("dspx")), 1);
  lir::Function withoutUnit = lowerOnly(src, "f", specs);
  EXPECT_EQ(opt::recognizeIdioms(withoutUnit, isa::IsaDescription::preset("dspx_nocomplex")),
            0);
}

TEST(Vectorize, ElementwiseLoop) {
  kernels::InputGen gen(31);
  // One fused loop: the whole expression writes the output directly.
  checkVectorization("function y = f(x)\ny = x .* x + 2 .* x;\nend\n", {ArgSpec::row(37)},
                     {gen.rowVector(37)}, /*expectVectorized=*/1);
}

TEST(Vectorize, RemainderLoopCoversOddTripCounts) {
  // 37 % 8 = 5 remainder iterations; numerics must match exactly.
  kernels::InputGen gen(32);
  Compiler compiler;
  std::string src = "function y = f(x)\ny = 3 .* x;\nend\n";
  auto unit = compiler.compileSource(src, "f", {ArgSpec::row(37)},
                                     CompileOptions::proposed());
  EXPECT_LE(validateAgainstInterpreter(src, "f", unit, {gen.rowVector(37)}), 0.0);
}

TEST(Vectorize, ReductionLoop) {
  kernels::InputGen gen(33);
  checkVectorization(
      "function y = f(x)\ny = 0;\nfor k = 1:length(x)\n  y = y + x(k);\nend\nend\n",
      {ArgSpec::row(100)}, {gen.rowVector(100)}, 1);
}

TEST(Vectorize, FmaReductionLoop) {
  kernels::InputGen gen(34);
  checkVectorization(
      "function y = f(x, h)\ny = 0;\nfor k = 1:length(x)\n  y = y + x(k) * h(k);\nend\nend\n",
      {ArgSpec::row(64), ArgSpec::row(64)}, {gen.rowVector(64), gen.rowVector(64)}, 1);
}

TEST(Vectorize, MinReductionLoop) {
  kernels::InputGen gen(35);
  checkVectorization(
      "function y = f(x)\ny = x(1);\nfor k = 2:length(x)\n  y = min(y, x(k));\nend\nend\n",
      {ArgSpec::row(50)}, {gen.rowVector(50)}, 1);
}

TEST(Vectorize, ComplexLoopUsesComplexLanes) {
  kernels::InputGen gen(36);
  Compiler compiler;
  std::string src = "function y = f(x, h)\ny = x .* conj(h);\nend\n";
  auto unit = compiler.compileSource(src, "f",
                                     {ArgSpec::row(32, true), ArgSpec::row(32, true)},
                                     CompileOptions::proposed());
  EXPECT_EQ(unit.optimizationReport().vec.loopsVectorized, 1);
  EXPECT_NE(unit.lirDump().find(":4"), std::string::npos)  // c64 width is 4
      << unit.lirDump();
}

TEST(Vectorize, RejectsWithoutSimdLanes) {
  kernels::InputGen gen(37);
  checkVectorization("function y = f(x)\ny = x + 1;\nend\n", {ArgSpec::row(32)},
                     {gen.rowVector(32)}, 0, "dspx_novec");
}

TEST(Vectorize, RejectsComplexMulWithoutCmul) {
  kernels::InputGen gen(38);
  // Without the complex unit the elementwise complex product stays scalar.
  checkVectorization("function y = f(x, h)\ny = x .* h;\nend\n",
                     {ArgSpec::row(32, true), ArgSpec::row(32, true)},
                     {gen.complexRowVector(32), gen.complexRowVector(32)}, 0,
                     "dspx_nocomplex");
}

TEST(Vectorize, ComplexAddVectorizesWithoutCmul) {
  kernels::InputGen gen(39);
  checkVectorization("function y = f(x, h)\ny = x + h;\nend\n",
                     {ArgSpec::row(32, true), ArgSpec::row(32, true)},
                     {gen.complexRowVector(32), gen.complexRowVector(32)}, 1,
                     "dspx_nocomplex");
}

TEST(Vectorize, RejectsReverseStride) {
  kernels::InputGen gen(40);
  checkVectorization(
      "function y = f(x)\nn = length(x);\ny = zeros(1, n);\nfor k = 1:n\n"
      "  y(k) = x(n - k + 1);\nend\nend\n",
      {ArgSpec::row(24)}, {gen.rowVector(24)}, 1);
  // Only the zeros-fill vectorizes; the reversal loop (stride -1 load) must not.
}

TEST(Vectorize, RejectsLoopsWithBranches) {
  kernels::InputGen gen(41);
  checkVectorization(
      "function y = f(x)\ny = 0;\nfor k = 1:length(x)\n  if x(k) > 0\n    y = y + x(k);\n"
      "  end\nend\nend\n",
      {ArgSpec::row(24)}, {gen.rowVector(24)}, 0);
}

TEST(Vectorize, RejectsSequentialDependence) {
  kernels::InputGen gen(42);
  checkVectorization(
      "function y = f(x)\nn = length(x);\ny = zeros(1, n);\ny(1) = x(1);\n"
      "for k = 2:n\n  y(k) = y(k - 1) * 0.5 + x(k);\nend\nend\n",
      {ArgSpec::row(24)}, {gen.rowVector(24)}, 1);
  // Only the zeros fill; the recurrence (load y[k-2] vs store y[k-1]) must not.
}

TEST(Vectorize, AllowsSameIndexLoadStore) {
  kernels::InputGen gen(43);
  // y appears on both sides with the same index — legal elementwise update.
  checkVectorization(
      "function y = f(x)\ny = zeros(1, 32);\nfor k = 1:32\n  y(k) = x(k);\nend\n"
      "for k = 1:32\n  y(k) = y(k) * 2;\nend\nend\n",
      {ArgSpec::row(32)}, {gen.rowVector(32)}, 3);
}

TEST(Vectorize, TranscendentalsStayScalar) {
  kernels::InputGen gen(44);
  checkVectorization("function y = f(x)\ny = sin(x);\nend\n", {ArgSpec::row(32)},
                     {gen.rowVector(32)}, 0);
}

TEST(Vectorize, ComplexDivisionStaysScalar) {
  // cdiv.c64 has no SIMD form, so a c64 quotient loop stays scalar on dspx
  // and its C calls the scalar runtime division, no vdiv intrinsic.
  kernels::InputGen gen(46);
  std::vector<ArgSpec> specs = {ArgSpec::row(32, true), ArgSpec::row(32, true)};
  std::string src = "function y = f(z, w)\ny = z ./ w;\nend\n";
  checkVectorization(src, specs, {gen.complexRowVector(32), gen.complexRowVector(32)}, 0);
  Compiler compiler;
  auto unit = compiler.compileSource(src, "f", specs, CompileOptions::proposed());
  codegen::EmitOptions bodyOnly;
  bodyOnly.embedRuntime = false;
  std::string c = unit.cCode(bodyOnly);
  EXPECT_EQ(c.find("vdiv"), std::string::npos) << c;
  EXPECT_NE(c.find("mat2c_cdiv("), std::string::npos) << c;
}

TEST(OpSelection, VectorComplexDivisionHasNoOp) {
  using namespace lir;
  auto quotient = [](VType t) {
    return binary(BinOp::Div, load("z", constI(0), t), load("z", constI(0), t), t);
  };
  EXPECT_EQ(selectOp(*quotient(VType::c64())), isa::Op::DivC);
  EXPECT_EQ(selectOp(*quotient(VType::f64(8))), isa::Op::VDivF);
  EXPECT_FALSE(selectOp(*quotient(VType::c64(4))));
  EXPECT_THROW(issuedOp(*quotient(VType::c64(4))), std::logic_error);

  // Neither the VM nor the emitter invents an op for it.
  Function fn;
  fn.name = "f";
  fn.params.push_back({"z", Scalar::C64, true, 1, 4});
  fn.outs.push_back({"y", Scalar::C64, true, 1, 4});
  fn.body.push_back(store("y", constI(0), quotient(VType::c64(4))));
  auto dspx = isa::IsaDescription::preset("dspx");
  kernels::InputGen gen(47);
  EXPECT_THROW(vm::Machine(dspx).run(fn, {gen.complexRowVector(4)}), std::logic_error);
  EXPECT_THROW(codegen::emitFunction(fn, dspx), std::logic_error);
}

TEST(Vectorize, WidthSweepMonotoneCycles) {
  // Wider SIMD must never be slower on a clean elementwise kernel.
  kernels::InputGen gen(45);
  Matrix x = gen.rowVector(256);
  std::string src = "function y = f(x)\ny = x .* x + x;\nend\n";
  Compiler compiler;
  double prev = 1e18;
  for (const char* isaName : {"dspx_w2", "dspx_w4", "dspx", "dspx_w16"}) {
    auto unit = compiler.compileSource(src, "f", {ArgSpec::row(256)},
                                       CompileOptions::proposed(isaName));
    double cycles = unit.run({x}).cycles.total;
    EXPECT_LE(cycles, prev) << isaName;
    prev = cycles;
  }
}

TEST(DeadCode, RemovesUnreadScalars) {
  lir::Function fn = lowerOnly(
      "function y = f(x)\nn = length(x);\nm = n * 2;\ny = x(1);\nend\n", "f",
      {ArgSpec::row(8)});
  opt::constFold(fn);
  opt::eliminateDeadScalars(fn);
  std::string dump = lir::print(fn);
  // `m` is never read; its assignment and declaration must be gone.
  EXPECT_EQ(dump.find("t1_m"), std::string::npos) << dump;
  EXPECT_TRUE(lir::verify(fn).empty());
}

TEST(DeadCode, KeepsScalarOutputs) {
  lir::Function fn =
      lowerOnly("function y = f(x)\ny = x * 2;\nend\n", "f", {ArgSpec::scalar()});
  opt::eliminateDeadScalars(fn);
  // The assignment to the output must survive even though nothing reads it.
  EXPECT_NE(lir::print(fn).find("y ="), std::string::npos);
}

TEST(DeadCode, RemovesLoopVarMirrors) {
  lir::Function fn = lowerOnly(
      "function y = f(x)\ny = 0;\nfor k = 1:8\n  y = y + x(k);\nend\nend\n", "f",
      {ArgSpec::row(8)});
  opt::constFold(fn);
  opt::eliminateDeadScalars(fn);
  // k's f64 mirror (final-value materialization) is unread here.
  EXPECT_EQ(lir::print(fn).find("t1_k ="), std::string::npos) << lir::print(fn);
}

// Hand-built LIR for the passes' exact-output tests.
lir::ExprPtr f64Var(const std::string& n) { return lir::varRef(n, lir::VType::f64()); }
lir::ExprPtr i64Var(const std::string& n) { return lir::varRef(n, lir::VType::i64()); }
lir::ExprPtr bin(lir::BinOp op, lir::ExprPtr a, lir::ExprPtr b,
                 lir::VType t = lir::VType::f64()) {
  return lir::binary(op, std::move(a), std::move(b), t);
}

/// f(a, b, c, x[1x8]) -> (y[1x8]) with `body`.
lir::Function handBuilt(std::vector<lir::StmtPtr> body) {
  lir::Function fn;
  fn.name = "f";
  for (const char* n : {"a", "b", "c"}) fn.params.push_back({n, lir::Scalar::F64, false, 1, 1});
  fn.params.push_back({"x", lir::Scalar::F64, true, 1, 8});
  fn.outs.push_back({"y", lir::Scalar::F64, true, 1, 8});
  fn.body = std::move(body);
  return fn;
}

/// Everything printed after the signature line.
std::string bodyOf(const lir::Function& fn) {
  std::string text = lir::print(fn);
  return text.substr(text.find('\n') + 1);
}

TEST(DeadCode, RemovesAtMost32LevelsPerCall) {
  // t0 = a; t1 = t0; ... t39 = t38: each removal level drops the last.
  std::vector<lir::StmtPtr> body;
  for (int k = 0; k < 40; ++k) {
    body.push_back(lir::declScalar("t" + std::to_string(k), lir::VType::f64(),
                                   f64Var(k ? "t" + std::to_string(k - 1) : "a")));
  }
  lir::Function fn = handBuilt(std::move(body));
  EXPECT_EQ(opt::eliminateDeadScalars(fn), 32);
  ASSERT_EQ(fn.body.size(), 8u);
  EXPECT_EQ(fn.body.back()->name, "t7");
  EXPECT_EQ(opt::eliminateDeadScalars(fn), 8);
  EXPECT_TRUE(fn.body.empty());
  EXPECT_EQ(opt::eliminateDeadScalars(fn), 0);
}

TEST(Cse, KeysAreThePrintedText) {
  // Every NaN prints "nan", so products with two NaN payloads share; 0.0
  // and -0.0 print differently and do not. An assignment kills what reads
  // its target; a store forwards its value (w reads v for y[0]), and an
  // entry keyed on the untouched y[0] * c outlives the forwarded v.
  std::vector<lir::StmtPtr> body;
  body.push_back(lir::declScalar("p", lir::VType::f64(),
                                 bin(lir::BinOp::Mul, f64Var("a"), lir::constF(std::nan("1")))));
  body.push_back(lir::declScalar("q", lir::VType::f64(),
                                 bin(lir::BinOp::Mul, f64Var("a"), lir::constF(-std::nan("2")))));
  body.push_back(lir::declScalar("r", lir::VType::f64(),
                                 bin(lir::BinOp::Mul, f64Var("a"), lir::constF(0.0))));
  body.push_back(lir::declScalar("s", lir::VType::f64(),
                                 bin(lir::BinOp::Mul, f64Var("a"), lir::constF(-0.0))));
  body.push_back(lir::declScalar("u", lir::VType::f64(),
                                 bin(lir::BinOp::Add, f64Var("b"), f64Var("c"))));
  body.push_back(lir::assign("b", f64Var("a")));
  body.push_back(lir::declScalar("v", lir::VType::f64(),
                                 bin(lir::BinOp::Add, f64Var("b"), f64Var("c"))));
  body.push_back(lir::store("y", lir::constI(0), f64Var("v")));
  body.push_back(lir::declScalar(
      "w", lir::VType::f64(),
      bin(lir::BinOp::Mul, lir::load("y", lir::constI(0), lir::VType::f64()), f64Var("c"))));
  body.push_back(lir::assign("v", f64Var("a")));
  body.push_back(lir::declScalar(
      "z", lir::VType::f64(),
      bin(lir::BinOp::Mul, lir::load("y", lir::constI(0), lir::VType::f64()), f64Var("c"))));
  for (const char* n : {"p", "q", "r", "s", "u", "w", "z"}) {
    body.push_back(lir::store("y", lir::constI(1), f64Var(n)));
  }
  lir::Function fn = handBuilt(std::move(body));
  EXPECT_EQ(opt::eliminateCommonSubexprs(fn), 3);
  EXPECT_EQ(bodyOf(fn),
            "  f64 p = (a * nan)\n"
            "  f64 q = p\n"
            "  f64 r = (a * 0.0)\n"
            "  f64 s = (a * -0.0)\n"
            "  f64 u = (b + c)\n"
            "  b = a\n"
            "  f64 v = (b + c)\n"
            "  y[0] = v\n"
            "  f64 w = (v * c)\n"
            "  v = a\n"
            "  f64 z = w\n"
            "  y[1] = p\n"
            "  y[1] = q\n"
            "  y[1] = r\n"
            "  y[1] = s\n"
            "  y[1] = u\n"
            "  y[1] = w\n"
            "  y[1] = z\n"
            "}\n");
}

TEST(Cse, AVariableNamedInfIsNotTheInfiniteLiteral) {
  // Both products print "(a * inf)"; keyed by that text, the second would
  // read the first's register and multiply by 2 instead of infinity.
  std::vector<lir::StmtPtr> body;
  body.push_back(lir::declScalar("inf", lir::VType::f64(), lir::constF(2.0)));
  body.push_back(lir::declScalar("p", lir::VType::f64(),
                                 bin(lir::BinOp::Mul, f64Var("a"), f64Var("inf"))));
  body.push_back(lir::declScalar("q", lir::VType::f64(),
                                 bin(lir::BinOp::Mul, f64Var("a"), lir::constF(HUGE_VAL))));
  body.push_back(lir::store("y", lir::constI(0), f64Var("p")));
  body.push_back(lir::store("y", lir::constI(1), f64Var("q")));
  lir::Function fn = handBuilt(std::move(body));
  EXPECT_EQ(opt::eliminateCommonSubexprs(fn), 0);
  EXPECT_EQ(lir::print(*fn.body[2]), "f64 q = (a * inf)\n");  // not `q = p`
}

TEST(Cse, AStoreWhoseIndexLoadsTheArrayForwardsNothing) {
  // y(1) = 3 changes y(y(1)) from y(1) to y(3): w is 6 * 2, not s * 2.
  const std::string src =
      "function w = f(y, s)\n"
      "y(y(1)) = s;\n"
      "w = y(y(1)) * 2;\n"
      "end\n";
  Matrix y = Matrix::zeros(1, 4);
  const double values[] = {1, 5, 6, 7};
  for (std::size_t k = 0; k < 4; ++k) y.set(k, Complex{values[k], 0.0});
  const std::vector<Matrix> args = {y, Matrix::scalar(3.0)};
  for (const CompileOptions& options :
       {CompileOptions::proposed("dspx"), CompileOptions::coderLike("dspx")}) {
    auto unit = Compiler().compileSource(src, "f", {ArgSpec::row(4), ArgSpec::scalar()}, options);
    EXPECT_EQ(unit.run(args).outputs.at(0).scalarValue(), 12.0) << unit.lirDump();
  }
  EXPECT_EQ(interpretReference(src, "f", args, 1).at(0).scalarValue(), 12.0);
}

TEST(ConstFold, ToI64FoldsOnlyFiniteInRangeConstants) {
  // A cast of ±inf, NaN or a value outside i64 is undefined: it stays for
  // run time, and so no INT64_MIN reaches the division fold below.
  auto idx = [](lir::ExprPtr e) { return lir::store("y", std::move(e), f64Var("a")); };
  auto toi64 = [](double v) {
    return lir::unary(lir::UnOp::ToI64, lir::constF(v), lir::VType::i64());
  };
  auto i64 = [](lir::BinOp op, lir::ExprPtr a, lir::ExprPtr b) {
    return bin(op, std::move(a), std::move(b), lir::VType::i64());
  };
  std::vector<lir::StmtPtr> body;
  for (double v : {4.0, -0x1p63, HUGE_VAL, -HUGE_VAL, std::nan(""), 1e300, 0x1p63, 2.5})
    body.push_back(idx(toi64(v)));
  // (3 * toi64(-1.0 / 0.0)) / -1: folding the cast made INT64_MIN / -1,
  // whose fold trapped with SIGFPE.
  auto negInf = bin(lir::BinOp::Div, lir::constF(-1.0), lir::constF(0.0));
  body.push_back(idx(i64(
      lir::BinOp::Div,
      i64(lir::BinOp::Mul, lir::constI(3),
          lir::unary(lir::UnOp::ToI64, std::move(negInf), lir::VType::i64())),
      lir::constI(-1))));
  const std::int64_t int64Min = std::numeric_limits<std::int64_t>::min();
  body.push_back(idx(i64(lir::BinOp::Div, lir::constI(int64Min), lir::constI(-1))));
  body.push_back(idx(i64(lir::BinOp::Div, lir::constI(int64Min), lir::constI(2))));
  lir::Function fn = handBuilt(std::move(body));
  opt::constFold(fn);
  EXPECT_EQ(bodyOf(fn),
            "  y[4] = a\n"
            "  y[-9223372036854775808] = a\n"
            "  y[toi64(inf)] = a\n"
            "  y[toi64(-inf)] = a\n"
            "  y[toi64(nan)] = a\n"
            "  y[toi64(1.0000000000000001e+300)] = a\n"
            "  y[toi64(9.2233720368547758e+18)] = a\n"
            "  y[toi64(2.5)] = a\n"
            "  y[((3 * toi64(-inf)) / -1)] = a\n"
            "  y[(-9223372036854775808 / -1)] = a\n"
            "  y[-4611686018427387904] = a\n"
            "}\n");

  // From source: x(1/0) used to compile to x[9223372036854775807].
  auto unit = Compiler().compileSource("function y = f(x)\ny = x(1/0);\nend\n", "f",
                                       {ArgSpec::row(8)});
  EXPECT_EQ(unit.cCode().find("9223372036854775807"), std::string::npos);
  EXPECT_NE(unit.lirDump().find("toi64(inf)"), std::string::npos) << unit.lirDump();
}

TEST(Licm, CandidatesReplaceInOrderAndAnEarlierOneWins) {
  // In the first loop a*b is found before (a*b)+c: replacing a*b first
  // leaves no (a*b)+c to replace, and its hoisted temp goes unread. In the
  // second loop the larger one comes first and keeps its occurrence whole.
  auto loop = [](bool smallFirst) {
    auto ab = [] { return bin(lir::BinOp::Mul, f64Var("a"), f64Var("b")); };
    auto xi = [] { return lir::load("x", i64Var("i"), lir::VType::f64()); };
    std::vector<lir::StmtPtr> body;
    lir::ExprPtr small = bin(lir::BinOp::Add, ab(), xi());
    lir::ExprPtr large =
        bin(lir::BinOp::Mul, bin(lir::BinOp::Add, ab(), f64Var("c")), xi());
    body.push_back(lir::store("y", i64Var("i"), smallFirst ? std::move(small) : std::move(large)));
    body.push_back(lir::store("y", i64Var("i"), smallFirst ? std::move(large) : std::move(small)));
    return lir::forLoop("i", lir::constI(0), lir::constI(8), 1, std::move(body));
  };
  std::vector<lir::StmtPtr> body;
  body.push_back(loop(true));
  body.push_back(loop(false));
  lir::Function fn = handBuilt(std::move(body));
  opt::LicmStats stats = opt::hoistLoopInvariants(fn);
  EXPECT_EQ(stats.exprsHoisted, 4);
  EXPECT_EQ(bodyOf(fn),
            "  f64 h0_inv = (a * b)\n"
            "  f64 h1_inv = ((a * b) + c)\n"
            "  for i = 0 .. 8 {\n"
            "    y[i] = (h0_inv + x[i])\n"
            "    y[i] = ((h0_inv + c) * x[i])\n"
            "  }\n"
            "  f64 h2_inv = ((a * b) + c)\n"
            "  f64 h3_inv = (a * b)\n"
            "  for i = 0 .. 8 {\n"
            "    y[i] = (h2_inv * x[i])\n"
            "    y[i] = (h3_inv + x[i])\n"
            "  }\n"
            "}\n");
}

TEST(ConstFold, AffineFormsAreCanonicalizedOnce) {
  // Index arithmetic is rebuilt in name order when that is no larger, kept
  // as it is when already canonical, and left alone when not affine.
  auto idx = [](lir::ExprPtr e) {
    return lir::store("y", std::move(e), f64Var("a"));
  };
  auto add = [](lir::ExprPtr a, lir::ExprPtr b) {
    return bin(lir::BinOp::Add, std::move(a), std::move(b), lir::VType::i64());
  };
  auto sub = [](lir::ExprPtr a, lir::ExprPtr b) {
    return bin(lir::BinOp::Sub, std::move(a), std::move(b), lir::VType::i64());
  };
  auto mul = [](lir::ExprPtr a, lir::ExprPtr b) {
    return bin(lir::BinOp::Mul, std::move(a), std::move(b), lir::VType::i64());
  };
  std::vector<lir::StmtPtr> body;
  body.push_back(lir::declScalar("i", lir::VType::i64(), lir::constI(1)));
  body.push_back(lir::assign("i", lir::constI(2)));  // not a propagated constant
  body.push_back(lir::declScalar("j", lir::VType::i64(), lir::constI(3)));
  body.push_back(lir::assign("j", lir::constI(4)));
  body.push_back(lir::declScalar("k", lir::VType::i64(), lir::constI(5)));  // propagated
  body.push_back(lir::declScalar("m", lir::VType::i64(), lir::constI(6)));
  body.push_back(lir::assign("m", lir::constI(7)));
  body.push_back(lir::declScalar("w", lir::VType::i64(), lir::constI(8)));
  body.push_back(lir::assign("w", lir::constI(9)));
  body.push_back(idx(add(add(i64Var("i"), i64Var("j")), lir::constI(1))));
  body.push_back(idx(add(add(i64Var("j"), i64Var("i")), lir::constI(1))));
  body.push_back(idx(sub(add(i64Var("i"), lir::constI(4)), lir::constI(5))));
  body.push_back(idx(mul(sub(i64Var("i"), i64Var("i")), i64Var("j"))));
  body.push_back(idx(mul(add(i64Var("i"), i64Var("j")), lir::constI(3))));
  body.push_back(idx(mul(mul(lir::constI(2), i64Var("i")), i64Var("j"))));
  body.push_back(idx(add(mul(i64Var("j"), lir::constI(1)), i64Var("k"))));
  body.push_back(idx(sub(mul(i64Var("i"), i64Var("k")), mul(i64Var("k"), i64Var("i")))));
  // A kept `x * 1` or `1 * x` hands its parent x's whole form: the sum
  // stays, as rebuilding it (13 nodes) would be larger than the tree (9).
  auto ijm3 = [&] { return mul(add(add(i64Var("i"), i64Var("j")), i64Var("m")), lir::constI(3)); };
  body.push_back(idx(add(mul(ijm3(), lir::constI(1)), i64Var("w"))));
  body.push_back(idx(add(mul(lir::constI(1), ijm3()), i64Var("w"))));
  body.push_back(idx(add(add(lir::constI(0), ijm3()), i64Var("w"))));
  body.push_back(idx(add(sub(ijm3(), lir::constI(0)), i64Var("w"))));
  lir::Function fn = handBuilt(std::move(body));
  opt::constFold(fn);
  EXPECT_EQ(bodyOf(fn),
            "  i64 i = 1\n"
            "  i = 2\n"
            "  i64 j = 3\n"
            "  j = 4\n"
            "  i64 k = 5\n"
            "  i64 m = 6\n"
            "  m = 7\n"
            "  i64 w = 8\n"
            "  w = 9\n"
            "  y[((i + j) + 1)] = a\n"
            "  y[((i + j) + 1)] = a\n"
            "  y[(i - 1)] = a\n"
            "  y[0] = a\n"
            "  y[((i + j) * 3)] = a\n"
            "  y[((i * 2) * j)] = a\n"
            "  y[(j + 5)] = a\n"
            "  y[0] = a\n"
            "  y[((((i + j) + m) * 3) + w)] = a\n"
            "  y[((((i + j) + m) * 3) + w)] = a\n"
            "  y[((((i + j) + m) * 3) + w)] = a\n"
            "  y[((((i + j) + m) * 3) + w)] = a\n"
            "}\n");
}

TEST(CheckElim, RemovesProvableChecks) {
  lower::LowerOptions coder;
  coder.style = lower::CodeStyle::CoderLike;
  DiagnosticEngine diags;
  auto prog = parseSource(
      "function y = f(x)\ny = zeros(1, 8);\nfor k = 1:8\n  y(k) = x(k) * 2;\nend\nend\n",
      diags);
  lir::Function fn = lower::lowerProgram(*prog, "f", {ArgSpec::row(8)}, coder, diags);
  opt::constFold(fn);
  int removed = opt::eliminateProvableChecks(fn);
  EXPECT_GT(removed, 0);
  // All indices here are affine in k with known bounds: no checks remain.
  EXPECT_EQ(lir::print(fn).find("boundscheck"), std::string::npos) << lir::print(fn);
}

TEST(CheckElim, KeepsDataDependentChecks) {
  lower::LowerOptions coder;
  coder.style = lower::CodeStyle::CoderLike;
  DiagnosticEngine diags;
  auto prog =
      parseSource("function y = f(x, i)\ny = x(i);\nend\n", diags);
  lir::Function fn = lower::lowerProgram(*prog, "f", {ArgSpec::row(8), ArgSpec::scalar()},
                                         coder, diags);
  opt::constFold(fn);
  opt::eliminateProvableChecks(fn);
  // The index comes from a runtime scalar: the check must survive.
  EXPECT_NE(lir::print(fn).find("boundscheck"), std::string::npos);
}

TEST(CheckElim, NumericsUnchanged) {
  kernels::InputGen gen(61);
  std::string src =
      "function y = f(x)\ny = zeros(1, 24);\nfor k = 1:24\n  y(k) = x(k) + 1;\nend\nend\n";
  Compiler compiler;
  CompileOptions checked = CompileOptions::coderLike();
  CompileOptions elided = CompileOptions::coderLike();
  elided.checkElim = true;
  auto a = compiler.compileSource(src, "f", {ArgSpec::row(24)}, checked);
  auto b = compiler.compileSource(src, "f", {ArgSpec::row(24)}, elided);
  Matrix x = gen.rowVector(24);
  auto ra = a.run({x});
  auto rb = b.run({x});
  EXPECT_EQ(maxAbsDiff(ra.outputs[0], rb.outputs[0]), 0.0);
  EXPECT_LT(rb.cycles.total, ra.cycles.total);
  EXPECT_GT(b.optimizationReport().checksRemoved, 0);
}

TEST(IntAlias, IndexTemporariesStayAffine) {
  // base = (j-1)*m must not block vectorization of the inner loop.
  kernels::InputGen gen(62);
  std::string src =
      "function y = f(x)\ny = zeros(1, 64);\nfor j = 1:8\n  base = (j - 1) * 8;\n"
      "  for k = 1:8\n    y(base + k) = x(base + k) * 2;\n  end\nend\nend\n";
  Compiler compiler;
  auto unit = compiler.compileSource(src, "f", {ArgSpec::row(64)},
                                     CompileOptions::proposed());
  EXPECT_GE(unit.optimizationReport().vec.loopsVectorized, 2) << unit.lirDump();
  EXPECT_LE(validateAgainstInterpreter(src, "f", unit, {gen.rowVector(64)}), 0.0);
}

TEST(IntAlias, ConditionalAssignmentIsBarrier) {
  // base assigned under an if: alias must not propagate (correctness first).
  kernels::InputGen gen(63);
  std::string src =
      "function y = f(x, s)\ny = zeros(1, 8);\nbase = 0;\nif s > 0\n  base = 4;\nend\n"
      "for k = 1:4\n  y(base + k) = x(k);\nend\nend\n";
  Compiler compiler;
  auto unit = compiler.compileSource(src, "f", {ArgSpec::row(8), ArgSpec::scalar()},
                                     CompileOptions::proposed());
  for (double s : {-1.0, 1.0}) {
    EXPECT_LE(validateAgainstInterpreter(src, "f", unit,
                                         {gen.rowVector(8), Matrix::scalar(s)}),
              0.0);
  }
}

TEST(Vectorize, DynamicTripCountLoop) {
  // Runtime bound, i64 induction: must still vectorize with a remainder loop.
  kernels::InputGen gen(64);
  std::string src =
      "function y = f(x, n)\ny = 0;\nfor k = 1:n\n  y = y + x(k) * x(k);\nend\nend\n";
  Compiler compiler;
  auto unit = compiler.compileSource(src, "f", {ArgSpec::row(64), ArgSpec::scalar()},
                                     CompileOptions::proposed());
  EXPECT_EQ(unit.optimizationReport().vec.loopsVectorized, 1) << unit.lirDump();
  for (double n : {64.0, 37.0, 3.0}) {
    EXPECT_LE(validateAgainstInterpreter(src, "f", unit,
                                         {gen.rowVector(64), Matrix::scalar(n)}),
              1e-9)
        << "n=" << n;
  }
}

TEST(Vectorize, MissDiagnostics) {
  kernels::InputGen gen(65);
  Compiler compiler;
  // Control flow in the body.
  auto u1 = compiler.compileSource(
      "function y = f(x)\ny = 0;\nfor k = 1:8\n  if x(k) > 0\n    y = y + 1;\n  end\nend\nend\n",
      "f", {ArgSpec::row(8)}, CompileOptions::proposed());
  ASSERT_FALSE(u1.optimizationReport().vec.missed.empty());
  EXPECT_NE(u1.optimizationReport().vec.missed[0].find("control flow"), std::string::npos);

  // Reverse stride.
  auto u2 = compiler.compileSource(
      "function y = f(x)\ny = zeros(1, 8);\nfor k = 1:8\n  y(k) = x(9 - k);\nend\nend\n",
      "f", {ArgSpec::row(8)}, CompileOptions::proposed());
  bool found = false;
  for (const auto& note : u2.optimizationReport().vec.missed) {
    if (note.find("no supported vector form") != std::string::npos ||
        note.find("unit-stride") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << u2.lirDump();

  // Loop-carried dependence through a scalar. (Unrolling disabled: the
  // recurrence unroller would otherwise expand this tiny loop before the
  // vectorizer could diagnose it.)
  CompileOptions noUnroll = CompileOptions::proposed();
  noUnroll.unrollRecurrences = false;
  auto u3 = compiler.compileSource(
      "function y = f(x)\ns = 0;\ny = zeros(1, 8);\nfor k = 1:8\n  s = s * 0.5 + x(k);\n"
      "  y(k) = s;\nend\nend\n",
      "f", {ArgSpec::row(8)}, noUnroll);
  ASSERT_FALSE(u3.optimizationReport().vec.missed.empty());
  EXPECT_NE(u3.optimizationReport().vec.missed[0].find("carries a value"),
            std::string::npos);

  // A fully-vectorized function reports nothing missed.
  auto u4 = compiler.compileSource("function y = f(x)\ny = x + 1;\nend\n", "f",
                                   {ArgSpec::row(32)}, CompileOptions::proposed());
  EXPECT_TRUE(u4.optimizationReport().vec.missed.empty());
}

TEST(Pipeline, ReportCountsPasses) {
  Compiler compiler;
  auto k = kernels::makeFir(256, 16);
  auto unit = compiler.compileSource(k.source, k.entry, k.argSpecs,
                                     CompileOptions::proposed());
  EXPECT_GE(unit.optimizationReport().idiomRewrites, 1);
  EXPECT_GE(unit.optimizationReport().vec.loopsVectorized, 1);
  EXPECT_GE(unit.optimizationReport().vec.loopsConsidered,
            unit.optimizationReport().vec.loopsVectorized);
}

// --- instrumented pass manager ----------------------------------------------

const char* kMacSrc =
    "function y = f(x, h)\ny = 0;\nfor k = 1:length(x)\n  y = y + x(k) * h(k);\nend\nend\n";

lir::Function lowerMac() {
  return lowerOnly(kMacSrc, "f", {ArgSpec::row(64), ArgSpec::row(64)});
}

TEST(PassManager, RecordsEveryPassInOrder) {
  lir::Function fn = lowerMac();
  opt::PipelineOptions opts;  // defaults: everything but checkElim
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  std::vector<std::string> names;
  for (const auto& p : report.passes) names.push_back(p.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"constfold", "dce", "sinkdecls", "unroll", "idioms",
                                      "vectorize", "constfold.post", "dce.post", "fuse",
                                      "licm", "cse", "dce.final"}));
  EXPECT_EQ(names, opt::standardPipeline(opts).names());
  double total = 0.0;
  for (const auto& p : report.passes) {
    EXPECT_GE(p.millis, 0.0) << p.name;
    EXPECT_GT(p.before.statements, 0) << p.name;
    EXPECT_GT(p.after.statements, 0) << p.name;
    total += p.millis;
  }
  EXPECT_DOUBLE_EQ(total, report.totalMillis);
}

TEST(PassManager, OptionTogglesDropPassRecords) {
  opt::PipelineOptions opts;
  opts.vectorize = false;
  opts.idioms = false;
  lir::Function fn = lowerMac();
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  std::vector<std::string> names;
  for (const auto& p : report.passes) names.push_back(p.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"constfold", "dce", "sinkdecls", "unroll",
                                      "constfold.post", "dce.post", "fuse", "licm", "cse",
                                      "dce.final"}));
}

TEST(PassTable, EveryLadderPassFollowsItsRow) {
  // The degradation ladder retries a failing pass by switching off the
  // opt/passes.def row that lists it, so each listed pass must be one the
  // row really adds: in standardPipeline() with the row on, gone with it off.
  int checked = 0;
  auto check = [&](const char* key, const char* passes, bool opt::PipelineOptions::*field) {
    for (const std::string& pass : split(passes, ' ')) {
      if (pass.empty()) continue;
      opt::PipelineOptions on, off;
      on.*field = true;
      off.*field = false;
      std::vector<std::string> withRow = opt::standardPipeline(on).names();
      std::vector<std::string> withoutRow = opt::standardPipeline(off).names();
      EXPECT_NE(std::find(withRow.begin(), withRow.end(), pass), withRow.end())
          << key << " on does not run " << pass;
      EXPECT_EQ(std::find(withoutRow.begin(), withoutRow.end(), pass), withoutRow.end())
          << key << " off still runs " << pass;
      ++checked;
    }
  };
#define PIPELINE(...) __VA_ARGS__
#define DRIVER(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, ...) \
  stage(check(key, passes, &opt::PipelineOptions::field);)
#include "opt/passes.def"
  EXPECT_EQ(checked, 13);
}

TEST(PassManager, PerPassCountersMatchAggregates) {
  opt::PipelineOptions opts;
  lir::Function fn = lowerMac();
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  int idioms = 0;
  int vec = 0;
  int checks = 0;
  for (const auto& p : report.passes) {
    idioms += p.idiomRewrites;
    vec += p.loopsVectorized;
    checks += p.checksRemoved;
  }
  EXPECT_EQ(idioms, report.idiomRewrites);
  EXPECT_EQ(vec, report.vec.loopsVectorized);
  EXPECT_EQ(checks, report.checksRemoved);
  EXPECT_GE(report.idiomRewrites, 1);
  EXPECT_GE(report.vec.loopsVectorized, 1);
}

TEST(PassManager, StatsRecordVectorizerGrowth) {
  opt::PipelineOptions opts;
  lir::Function fn = lowerMac();
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  for (const auto& p : report.passes) {
    if (p.name != "vectorize") continue;
    // Strip-mining adds the vector loop + remainder loop machinery.
    EXPECT_GT(p.after.statements, p.before.statements);
    EXPECT_GT(p.after.loops, p.before.loops);
    EXPECT_TRUE(p.resized());
  }
}

TEST(PassManager, SinkDeclsRunsWithoutVectorize) {
  // Bugfix regression: decl sinking used to be gated on options.vectorize.
  lir::Function fn = lowerOnly(
      "function y = f(x)\ny = zeros(1, 8);\nfor k = 1:8\n  t = x(k) * 2;\n  y(k) = t + 1;\n"
      "end\nend\n",
      "f", {ArgSpec::row(8)});
  opt::PipelineOptions opts;
  opts.vectorize = false;
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  bool sawSink = false;
  for (const auto& p : report.passes) sawSink |= p.name == "sinkdecls";
  EXPECT_TRUE(sawSink);
  bool declInLoop = false;
  for (const auto& s : fn.body) {
    if (s->kind != lir::StmtKind::For) continue;
    for (const auto& inner : s->body) {
      if (inner->kind == lir::StmtKind::DeclScalar && inner->value) declInLoop = true;
    }
  }
  EXPECT_TRUE(declInLoop) << lir::print(fn);
}

TEST(PassManager, SinkDeclsFlagDisablesThePass) {
  lir::Function fn = lowerMac();
  opt::PipelineOptions opts;
  opts.sinkDecls = false;
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  for (const auto& p : report.passes) EXPECT_NE(p.name, "sinkdecls");
}

TEST(PassManager, VerifyEachNamesTheOffendingPass) {
  lir::Function fn = lowerMac();
  opt::PassPipeline pipeline;
  pipeline.addPass("benign", [](lir::Function&, const isa::IsaDescription&,
                                opt::PassRecord&, opt::PipelineReport&) {});
  pipeline.addPass("breaker", [](lir::Function& f, const isa::IsaDescription&,
                                 opt::PassRecord&, opt::PipelineReport&) {
    // Two distinct problems: every one must surface in the error message.
    f.body.push_back(lir::assign("no_such_var", lir::constF(1.0)));
    f.body.push_back(lir::store("no_such_array", lir::constI(0), lir::constF(2.0)));
  });
  opt::PipelineOptions opts;
  opts.verifyEach = true;
  try {
    pipeline.run(fn, isa::IsaDescription::preset("dspx"), opts);
    FAIL() << "expected CompileError from verifyEach";
  } catch (const CompileError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("breaker"), std::string::npos) << what;
    EXPECT_EQ(what.find("benign"), std::string::npos) << what;
    EXPECT_NE(what.find("no_such_var"), std::string::npos) << what;
    EXPECT_NE(what.find("no_such_array"), std::string::npos) << what;
  }
}

TEST(PassManager, VerifyEachAcceptsTheStandardPipeline) {
  lir::Function fn = lowerMac();
  opt::PipelineOptions opts;
  opts.verifyEach = true;
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  EXPECT_EQ(report.passes.size(), 12u);
}

TEST(PassManager, TraceHookSeesEveryPass) {
  lir::Function fn = lowerMac();
  opt::PipelineOptions opts;
  std::vector<std::string> traced;
  opts.trace = [&](const opt::PassRecord& rec, const lir::Function& f) {
    traced.push_back(rec.name);
    EXPECT_FALSE(lir::print(f).empty());
  };
  auto report = opt::runPipeline(fn, isa::IsaDescription::preset("dspx"), opts);
  ASSERT_EQ(traced.size(), report.passes.size());
  for (std::size_t i = 0; i < traced.size(); ++i) EXPECT_EQ(traced[i], report.passes[i].name);
}

TEST(PassManager, CustomPipelineRecordsInjectedPass) {
  lir::Function fn = lowerMac();
  opt::PassPipeline pipeline;
  pipeline.addPass("fold", [](lir::Function& f, const isa::IsaDescription&,
                              opt::PassRecord&, opt::PipelineReport&) { opt::constFold(f); });
  auto report = pipeline.run(fn, isa::IsaDescription::preset("dspx"), {});
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].name, "fold");
}

}  // namespace
}  // namespace mat2c
