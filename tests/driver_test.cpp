// Public-API tests: Compiler/CompiledUnit surface, diagnostics, reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "driver/report.hpp"

namespace mat2c {
namespace {

using sema::ArgSpec;

TEST(Driver, CompileErrorCarriesLocationAndMessage) {
  Compiler compiler;
  try {
    compiler.compileSource("function y = f(x)\ny = nosuch + 1;\nend\n", "f",
                           {ArgSpec::scalar()}, CompileOptions::proposed());
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("nosuch"), std::string::npos);
    EXPECT_NE(what.find("2:"), std::string::npos);  // line number
  }
  EXPECT_TRUE(compiler.diagnostics().hasErrors());
}

TEST(Driver, DiagnosticsResetBetweenCompilations) {
  Compiler compiler;
  EXPECT_THROW(compiler.compileSource("function y = f(x)\ny = qq;\nend\n", "f",
                                      {ArgSpec::scalar()}, CompileOptions::proposed()),
               CompileError);
  auto unit = compiler.compileSource("function y = f(x)\ny = x;\nend\n", "f",
                                     {ArgSpec::scalar()}, CompileOptions::proposed());
  EXPECT_FALSE(compiler.diagnostics().hasErrors());
  EXPECT_DOUBLE_EQ(unit.run({Matrix::scalar(5)}).outputs[0].scalarValue(), 5.0);
}

TEST(Driver, ParseErrorSurfaceviaCompileError) {
  Compiler compiler;
  EXPECT_THROW(compiler.compileSource("function y = f(x\ny = 1;\nend\n", "f",
                                      {ArgSpec::scalar()}, CompileOptions::proposed()),
               CompileError);
}

TEST(Driver, MissingEntryFunction) {
  Compiler compiler;
  EXPECT_THROW(compiler.compileSource("function y = g(x)\ny = x;\nend\n", "f",
                                      {ArgSpec::scalar()}, CompileOptions::proposed()),
               CompileError);
}

TEST(Driver, WrongArgumentCount) {
  Compiler compiler;
  EXPECT_THROW(compiler.compileSource("function y = f(a, b)\ny = a + b;\nend\n", "f",
                                      {ArgSpec::scalar()}, CompileOptions::proposed()),
               CompileError);
}

TEST(Driver, UnitExposesFunctionAndIsa) {
  Compiler compiler;
  auto unit = compiler.compileSource("function [y, n] = f(x)\ny = x * 2;\nn = sum(x);\nend\n",
                                     "f", {ArgSpec::row(4)}, CompileOptions::proposed());
  EXPECT_EQ(unit.fn().name, "f");
  ASSERT_EQ(unit.fn().outs.size(), 2u);
  EXPECT_TRUE(unit.fn().outs[0].isArray);
  EXPECT_FALSE(unit.fn().outs[1].isArray);
  EXPECT_EQ(unit.isa().name(), "dspx");
  EXPECT_FALSE(unit.lirDump().empty());
}

TEST(Driver, CoderLikeStripsCustomInstructionFeatures) {
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x)\ny = x;\nend\n", "f",
                                     {ArgSpec::row(4)}, CompileOptions::coderLike());
  EXPECT_FALSE(unit.isa().hasCmul());
  EXPECT_FALSE(unit.isa().hasFma());
  EXPECT_TRUE(unit.isa().hasZol());  // datapath-independent features remain
  EXPECT_EQ(unit.isa().lanesF64(), 8);
}

TEST(Driver, MultiOutputValidation) {
  const char* src =
      "function [lo, hi] = f(x)\nlo = min(x);\nhi = max(x);\nend\n";
  Compiler compiler;
  auto unit = compiler.compileSource(src, "f", {ArgSpec::row(8)},
                                     CompileOptions::proposed());
  kernels::InputGen gen(71);
  EXPECT_LE(validateAgainstInterpreter(src, "f", unit, {gen.rowVector(8)}), 0.0);
}

// One reference per kernel, compared with each unit's own run, gives exactly
// what validateAgainstInterpreter computes unit by unit: the bench harness
// interprets each Table-1 and extended row once for both styles.
TEST(Oracle, SharedReferenceMatchesValidate) {
  std::vector<kernels::KernelSpec> suite = kernels::dspBenchmarkSuite();
  for (auto& k : kernels::extendedKernelSuite()) suite.push_back(std::move(k));
  Compiler compiler;
  for (const auto& k : suite) {
    auto proposed =
        compiler.compileSource(k.source, k.entry, k.argSpecs, CompileOptions::proposed());
    auto coder =
        compiler.compileSource(k.source, k.entry, k.argSpecs, CompileOptions::coderLike());
    auto reference = interpretReference(k.source, k.entry, k.args, proposed.fn().outs.size());
    for (const CompiledUnit* unit : {&proposed, &coder}) {
      EXPECT_EQ(compareToReference(reference, unit->run(k.args).outputs),
                validateAgainstInterpreter(k.source, k.entry, *unit, k.args))
          << k.name;
    }
  }
}

TEST(Oracle, OutputCountMismatchThrows) {
  std::vector<Matrix> reference = {Matrix::scalar(1), Matrix::scalar(2)};
  EXPECT_THROW(compareToReference(reference, {Matrix::scalar(1)}), RuntimeError);
  EXPECT_THROW(compareToReference(reference, {}), RuntimeError);
  EXPECT_EQ(compareToReference(reference, {Matrix::scalar(1), Matrix::scalar(2.5)}), 0.5);
}

TEST(Oracle, ReferenceRejectsUnparsableSource) {
  EXPECT_THROW(interpretReference("function y = f(x\ny = 1;\nend\n", "f",
                                  {Matrix::scalar(1)}, 1),
               CompileError);
}

TEST(Driver, UnitIsCopyable) {
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x)\ny = x + 1;\nend\n", "f",
                                     {ArgSpec::scalar()}, CompileOptions::proposed());
  CompiledUnit copy = unit;  // shared LIR
  EXPECT_DOUBLE_EQ(copy.run({Matrix::scalar(1)}).outputs[0].scalarValue(), 2.0);
  EXPECT_DOUBLE_EQ(unit.run({Matrix::scalar(1)}).outputs[0].scalarValue(), 2.0);
}

TEST(Report, TableFormatsAndAligns) {
  report::Table t({"a", "long header"});
  t.addRow({"x", "1"});
  t.addRow({"longer cell", "2"});
  std::string s = t.toString();
  EXPECT_NE(s.find("| a           | long header |"), std::string::npos);
  EXPECT_NE(s.find("|-"), std::string::npos);
  EXPECT_EQ(report::Table::cycles(1234567), "1,234,567");
  EXPECT_EQ(report::Table::num(3.14159, 2), "3.14");
}

TEST(Report, ShortRowsPad) {
  report::Table t({"a", "b", "c"});
  t.addRow({"only"});
  EXPECT_NE(t.toString().find("| only |"), std::string::npos);
}

TEST(Driver, ReportExposesPerPassRecords) {
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x)\ny = x .* x;\nend\n", "f",
                                     {ArgSpec::row(32)}, CompileOptions::proposed());
  const auto& passes = unit.optimizationReport().passes;
  ASSERT_FALSE(passes.empty());
  EXPECT_EQ(passes.front().name, "constfold");
  EXPECT_EQ(passes.back().name, "dce.final");
  for (const auto& p : passes) EXPECT_GT(p.after.statements, 0) << p.name;
}

TEST(Driver, CoderLikeStillSinksDecls) {
  // Bugfix regression: sinkdecls was gated on vectorization, so CoderLike
  // pipelines silently lost the cleanup.
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x)\ny = x;\nend\n", "f",
                                     {ArgSpec::row(4)}, CompileOptions::coderLike());
  bool sawSink = false;
  bool sawVectorize = false;
  for (const auto& p : unit.optimizationReport().passes) {
    sawSink |= p.name == "sinkdecls";
    sawVectorize |= p.name == "vectorize";
  }
  EXPECT_TRUE(sawSink);
  EXPECT_FALSE(sawVectorize);
}

TEST(Driver, VerifyEachOptionPassesCleanPipelines) {
  Compiler compiler;
  CompileOptions options = CompileOptions::proposed();
  options.verifyEach = true;
  auto unit = compiler.compileSource("function y = f(x, h)\ny = x .* h;\nend\n", "f",
                                     {ArgSpec::row(16), ArgSpec::row(16)}, options);
  auto r = unit.run({Matrix::zeros(1, 16), Matrix::zeros(1, 16)});
  ASSERT_EQ(r.outputs.size(), 1u);
}

TEST(Driver, TracePassesHookObservesPipeline) {
  Compiler compiler;
  CompileOptions options = CompileOptions::proposed();
  std::vector<std::string> traced;
  options.tracePasses = [&](const opt::PassRecord& rec, const lir::Function&) {
    traced.push_back(rec.name);
  };
  auto unit = compiler.compileSource("function y = f(x)\ny = x + 1;\nend\n", "f",
                                     {ArgSpec::row(8)}, options);
  EXPECT_EQ(traced.size(), unit.optimizationReport().passes.size());
}

TEST(Driver, CompilationIsDeterministic) {
  // Byte-identical output for identical input is the correctness
  // precondition for the compile cache and single-flight dedup in
  // src/service/: a cached unit must be indistinguishable from a fresh
  // compile. Two independent Compiler instances keep hidden state honest.
  const char* src =
      "function y = fir(x, h)\n"
      "y = 0;\n"
      "for k = 1:length(x)\n"
      "  y = y + x(k) * h(k);\n"
      "end\n"
      "end\n";
  std::vector<ArgSpec> specs = {ArgSpec::row(64), ArgSpec::row(64)};
  Compiler first;
  Compiler second;
  auto a = first.compileSource(src, "fir", specs, CompileOptions::proposed());
  auto b = second.compileSource(src, "fir", specs, CompileOptions::proposed());
  EXPECT_EQ(a.cCode(), b.cCode());
  EXPECT_EQ(a.lirDump(), b.lirDump());
  // Reports match structurally (wall times naturally differ).
  EXPECT_EQ(a.optimizationReport().idiomRewrites, b.optimizationReport().idiomRewrites);
  EXPECT_EQ(a.optimizationReport().checksRemoved, b.optimizationReport().checksRemoved);
  EXPECT_EQ(a.optimizationReport().vec.loopsVectorized,
            b.optimizationReport().vec.loopsVectorized);
  EXPECT_EQ(a.optimizationReport().vec.missed, b.optimizationReport().vec.missed);
  ASSERT_EQ(a.optimizationReport().passes.size(), b.optimizationReport().passes.size());
  for (std::size_t i = 0; i < a.optimizationReport().passes.size(); ++i) {
    const auto& pa = a.optimizationReport().passes[i];
    const auto& pb = b.optimizationReport().passes[i];
    EXPECT_EQ(pa.name, pb.name);
    EXPECT_TRUE(pa.before == pb.before) << pa.name;
    EXPECT_TRUE(pa.after == pb.after) << pa.name;
    EXPECT_EQ(pa.idiomRewrites, pb.idiomRewrites) << pa.name;
    EXPECT_EQ(pa.loopsVectorized, pb.loopsVectorized) << pa.name;
  }
  // And a recompile by the *same* instance is also identical.
  auto c = first.compileSource(src, "fir", specs, CompileOptions::proposed());
  EXPECT_EQ(a.cCode(), c.cCode());
}

TEST(Report, TelemetryJsonHasOneRecordPerPass) {
  Compiler compiler;
  auto unit = compiler.compileSource("function y = f(x, h)\ny = 0;\n"
                                     "for k = 1:length(x)\n  y = y + x(k) * h(k);\nend\nend\n",
                                     "f", {ArgSpec::row(64), ArgSpec::row(64)},
                                     CompileOptions::proposed());
  std::string json = report::telemetryJson(unit.optimizationReport(), "f", "dspx");
  EXPECT_NE(json.find("\"entry\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"isa\": \"dspx\""), std::string::npos);
  for (const auto& p : unit.optimizationReport().passes) {
    EXPECT_NE(json.find("\"name\": \"" + p.name + "\""), std::string::npos) << p.name;
  }
  // Structural sanity: brace/bracket balance and key presence per record.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  auto occurrences = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"millis\""), unit.optimizationReport().passes.size());
  EXPECT_EQ(occurrences("\"before\""), unit.optimizationReport().passes.size());
  EXPECT_EQ(occurrences("\"after\""), unit.optimizationReport().passes.size());
  EXPECT_EQ(occurrences("\"counters\""), unit.optimizationReport().passes.size());
}

// ---- Byte-exact telemetry documents -------------------------------------
//
// Hand-made reports (no timing): every counter distinct so the key order is
// pinned, and an empty report for the empty `passes` array.

opt::PipelineReport twoPassReport() {
  opt::PipelineReport r;
  opt::PassRecord fold;
  fold.name = "constfold";
  fold.millis = 0.125;
  fold.before = {10, 2, 3, 4, 1};
  fold.after = {9, 2, 3, 4, 1};
  opt::PassRecord busy;
  busy.name = "vectorize";
  busy.millis = 1.5;
  busy.before = fold.after;
  busy.after = {14, 3, 3, 5, 0};
  busy.checksRemoved = 1;
  busy.idiomRewrites = 2;
  busy.loopsVectorized = 3;
  busy.loopsFused = 4;
  busy.loopsUnrolled = 5;
  busy.exprsHoisted = 6;
  busy.scalarsPromoted = 7;
  busy.cseEliminated = 8;
  busy.storesRemoved = 9;
  r.passes = {fold, busy};
  r.totalMillis = 1.625;
  r.checksRemoved = 1;
  r.idiomRewrites = 2;
  r.vec.loopsVectorized = 3;
  r.loopsFused = 4;
  r.loopsUnrolled = 5;
  r.exprsHoisted = 6;
  r.scalarsPromoted = 7;
  r.cseEliminated = 8;
  r.storesRemoved = 9;
  return r;
}

TEST(ReportGolden, TelemetryJsonTwoPasses) {
  EXPECT_EQ(report::telemetryJson(twoPassReport(), "fir", "dspx"), R"doc({
  "entry": "fir",
  "isa": "dspx",
  "totalMillis": 1.625000,
  "checksRemoved": 1,
  "idiomRewrites": 2,
  "loopsVectorized": 3,
  "loopsFused": 4,
  "loopsUnrolled": 5,
  "exprsHoisted": 6,
  "scalarsPromoted": 7,
  "cseEliminated": 8,
  "storesRemoved": 9,
  "passes": [
    {"name": "constfold", "millis": 0.125000, "before": {"statements": 10, "loops": 2, "decls": 3, "stores": 4, "boundsChecks": 1}, "after": {"statements": 9, "loops": 2, "decls": 3, "stores": 4, "boundsChecks": 1}, "counters": {"checksRemoved": 0, "idiomRewrites": 0, "loopsVectorized": 0, "loopsFused": 0, "loopsUnrolled": 0, "exprsHoisted": 0, "scalarsPromoted": 0, "cseEliminated": 0, "storesRemoved": 0}},
    {"name": "vectorize", "millis": 1.500000, "before": {"statements": 9, "loops": 2, "decls": 3, "stores": 4, "boundsChecks": 1}, "after": {"statements": 14, "loops": 3, "decls": 3, "stores": 5, "boundsChecks": 0}, "counters": {"checksRemoved": 1, "idiomRewrites": 2, "loopsVectorized": 3, "loopsFused": 4, "loopsUnrolled": 5, "exprsHoisted": 6, "scalarsPromoted": 7, "cseEliminated": 8, "storesRemoved": 9}}
  ]
}
)doc");
}

TEST(ReportGolden, TelemetryJsonEmptyReport) {
  EXPECT_EQ(report::telemetryJson({}, "f", "scalar"), R"doc({
  "entry": "f",
  "isa": "scalar",
  "totalMillis": 0.000000,
  "checksRemoved": 0,
  "idiomRewrites": 0,
  "loopsVectorized": 0,
  "loopsFused": 0,
  "loopsUnrolled": 0,
  "exprsHoisted": 0,
  "scalarsPromoted": 0,
  "cseEliminated": 0,
  "storesRemoved": 0,
  "passes": [
  ]
}
)doc");
}

TEST(ReportGolden, PassTableTwoPassesAndEmpty) {
  EXPECT_EQ(report::passTable(twoPassReport()).toString(),
            R"doc(| pass      | ms    | stmts | dstmts | dloops | ddecls | counters                                                                                                                                                |
|-----------|-------|-------|--------|--------|--------|---------------------------------------------------------------------------------------------------------------------------------------------------------|
| constfold | 0.125 | 9     | -1     | 0      | 0      |                                                                                                                                                         |
| vectorize | 1.500 | 14    | 5      | 1      | 0      | checksRemoved=1, idiomRewrites=2, loopsVectorized=3, loopsFused=4, loopsUnrolled=5, exprsHoisted=6, scalarsPromoted=7, cseEliminated=8, storesRemoved=9 |
)doc");
  EXPECT_EQ(report::passTable({}).toString(),
            R"doc(| pass | ms | stmts | dstmts | dloops | ddecls | counters |
|------|----|-------|--------|--------|--------|----------|
)doc");
}

}  // namespace
}  // namespace mat2c
