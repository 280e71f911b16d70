#include "driver/compiler.hpp"

#include <algorithm>

#include "parser/parser.hpp"
#include "support/string_utils.hpp"

namespace mat2c {

std::string CompileOptions::passSignature() const {
  std::string s = "style=";
  s += style == lower::CodeStyle::Proposed ? "proposed" : "coder";
  // Trip rows join the key clamped, so out-of-range trips (0, negatives)
  // share the cache entry of the configuration they actually compile as.
#define MAT2C_PASS_BOOL(field, key, ...) \
  s += ";" key "=";                      \
  s += field ? '1' : '0';
#define MAT2C_PASS_TRI(field, key) \
  s += ";" key "=";                \
  s += field ? (*field ? "1" : "0") : "auto";
#define MAT2C_PASS_TRIP(field, key, ...) \
  s += ";" key "=";                      \
  s += std::to_string(clampTrip(field));
#include "opt/passes.def"
  // limits.maxLirOps gates unroll decisions, so it is output-affecting and
  // joins the cache key too. The observation-only limits (source/AST
  // bounds, wall budget) stay out: they cannot change the result of a
  // compile that succeeds.
  s += ';';
  s += limits.outputSignature();
  return s;
}

namespace {

opt::PipelineOptions makePipelineOptions(const CompileOptions& options) {
  opt::PipelineOptions passOpts;
#define PIPELINE(...) __VA_ARGS__
#define DRIVER(...)
#define MAT2C_PASS_BOOL(field, key, stage, ...) stage(passOpts.field = options.field;)
#define MAT2C_PASS_TRIP(field, ...) passOpts.field = CompileOptions::clampTrip(options.field);
#include "opt/passes.def"
  passOpts.vectorize = options.vectorize && options.style == lower::CodeStyle::Proposed;
  passOpts.verifyEach = options.verifyEach;
  passOpts.maxLirOps = options.limits.maxLirOps;
  passOpts.trace = options.tracePasses;
  return passOpts;
}

/// The degradation ladder's retry without `pass`: switches off the
/// opt/passes.def row that lists it. Returns false for passes the ladder
/// cannot disable.
bool disablePass(CompileOptions& options, const std::string& pass) {
  auto lists = [&](std::string_view passes) {
    for (const std::string& name : split(passes, ' ')) {
      if (name == pass) return true;
    }
    return false;
  };
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, ...) \
  if (lists(passes)) {                                                    \
    options.field = false;                                                \
    return true;                                                          \
  }
#include "opt/passes.def"
  return false;
}

}  // namespace

CompiledUnit Compiler::compileSource(const std::string& matlabSource, const std::string& entry,
                                     const std::vector<sema::ArgSpec>& args,
                                     const CompileOptions& options) {
  diags_.clear();

  if (options.limits.maxSourceBytes > 0 &&
      matlabSource.size() > options.limits.maxSourceBytes) {
    throw StructuredError(ErrorKind::ResourceExhausted,
                          "source is " + std::to_string(matlabSource.size()) +
                              " bytes (limit " +
                              std::to_string(options.limits.maxSourceBytes) + ")");
  }

  // Install the compile's wall-clock budget for this thread; the parser,
  // sema, pass boundaries, and the VM poll it.
  DeadlineGuard guard(options.limits.wallBudgetMillis);
  DeadlineGuard::Scope deadlineScope(guard);

  // Parse once; every ladder rung reuses the same AST.
  ast::ProgramPtr program;
  try {
    program = parseSource(matlabSource, diags_);
    if (diags_.hasErrors()) throw CompileError(diags_.renderAll());
  } catch (const StructuredError&) {
    throw;  // Timeout from the parser's deadline poll
  } catch (const std::bad_alloc&) {
    throw StructuredError(ErrorKind::ResourceExhausted, "out of memory while parsing");
  } catch (const CompileError& e) {
    throw StructuredError(ErrorKind::ParseError, e.what());
  }

  if (options.limits.maxAstNodes > 0 || options.limits.maxAstDepth > 0) {
    ast::TreeStats astStats = ast::collectStats(*program);
    if (options.limits.maxAstNodes > 0 && astStats.nodes > options.limits.maxAstNodes) {
      throw StructuredError(ErrorKind::ResourceExhausted,
                            "program has " + std::to_string(astStats.nodes) +
                                " AST nodes (limit " +
                                std::to_string(options.limits.maxAstNodes) + ")");
    }
    if (options.limits.maxAstDepth > 0 && astStats.depth > options.limits.maxAstDepth) {
      throw StructuredError(ErrorKind::ResourceExhausted,
                            "program nests " + std::to_string(astStats.depth) +
                                " AST levels deep (limit " +
                                std::to_string(options.limits.maxAstDepth) + ")");
    }
  }

  // Degradation ladder: rung 0 compiles as requested; a degradable failure
  // attributed to a pass earns one retry without that pass; any further
  // degradable failure falls back to the CoderLike baseline pipeline. The
  // ladder is recorded in PipelineReport::degraded.
  std::vector<std::string> degraded;
  CompileOptions attempt = options;
  bool triedDisable = false, triedCoderLike = false;
  while (true) {
    try {
      return compileOnce(*program, entry, args, attempt, degraded);
    } catch (const std::bad_alloc&) {
      throw StructuredError(ErrorKind::ResourceExhausted,
                            "out of memory during optimization");
    } catch (const StructuredError& e) {
      if (!options.degrade || !isDegradable(e.kind())) throw;
      if (!triedDisable && !e.pass().empty()) {
        triedDisable = true;
        CompileOptions retry = attempt;
        if (disablePass(retry, e.pass())) {
          degraded.push_back(e.pass());
          attempt = std::move(retry);
          continue;
        }
      }
      if (triedCoderLike || options.style == lower::CodeStyle::CoderLike) throw;
      triedCoderLike = true;
      CompileOptions fallback = CompileOptions::coderLike();
      fallback.isa = options.isa;  // keep the user's target
      fallback.limits = options.limits;
      fallback.verifyEach = options.verifyEach;
      degraded.push_back("coderLike");
      attempt = std::move(fallback);
    }
  }
}

CompiledUnit Compiler::compileOnce(const ast::Program& program, const std::string& entry,
                                   const std::vector<sema::ArgSpec>& args,
                                   const CompileOptions& options,
                                   const std::vector<std::string>& degraded) {
  diags_.clear();
  lir::Function fn = [&] {
    try {
      lir::Function lowered = lower::lowerProgram(program, entry, args, [&] {
        lower::LowerOptions lowerOpts;
        lowerOpts.style = options.style;
#define MAT2C_PASS_TRI(field, key) lowerOpts.field = options.field;
#include "opt/passes.def"
        return lowerOpts;
      }(), diags_);
      if (diags_.hasErrors()) throw CompileError(diags_.renderAll());
      return lowered;
    } catch (const StructuredError&) {
      throw;  // Timeout from sema's deadline poll
    } catch (const std::bad_alloc&) {
      throw StructuredError(ErrorKind::ResourceExhausted, "out of memory during lowering");
    } catch (const CompileError& e) {
      throw StructuredError(ErrorKind::SemaError, e.what());
    }
  }();

  // CoderLike code models MathWorks-generated C: complex arithmetic arrives
  // at the ASIP compiler as expanded re/im expressions and plain a*b+c, so
  // the custom-instruction units are unreachable for it. Cost it (and emit
  // its C) against the ISA with those features stripped; the datapath-
  // independent features (SIMD width, hardware loops, AGUs) remain — the
  // ASIP's C compiler applies those to any C code.
  isa::IsaDescription unitIsa = options.isa;
  if (options.style == lower::CodeStyle::CoderLike) {
    unitIsa.setFeature("fma", false);
    unitIsa.setFeature("cmul", false);
    unitIsa.setFeature("cmac", false);
  }

  opt::PipelineOptions passOpts = makePipelineOptions(options);
  opt::PipelineReport report = opt::runPipeline(fn, unitIsa, passOpts);

  auto problems = lir::verify(fn);
  if (!problems.empty()) {
    // Attribute the corruption to a pass so the ladder can retry without it:
    // re-lower and re-run the same pipeline with per-pass verification on.
    if (!passOpts.verifyEach) {
      CompileOptions attributed = options;
      attributed.verifyEach = true;
      return compileOnce(program, entry, args, attributed, degraded);
    }
    throw StructuredError(ErrorKind::VerifyError,
                          "internal error after optimization: " +
                              std::to_string(problems.size()) +
                              " verifier problem(s):\n  - " + join(problems, "\n  - "));
  }
  report.degraded = degraded;
  return CompiledUnit(std::make_shared<lir::Function>(std::move(fn)), unitIsa, report);
}

std::vector<Matrix> interpretReference(const std::string& matlabSource, const std::string& entry,
                                       const std::vector<Matrix>& args, std::size_t nOut) {
  DiagnosticEngine diags;
  ast::ProgramPtr program = parseSource(matlabSource, diags);
  if (diags.hasErrors()) throw CompileError(diags.renderAll());
  Interpreter interp(*program);
  return interp.callFunction(entry, args, std::max<std::size_t>(nOut, 1));
}

double compareToReference(const std::vector<Matrix>& reference,
                          const std::vector<Matrix>& outputs) {
  if (outputs.size() != reference.size()) {
    throw RuntimeError("validate: output count mismatch (" + std::to_string(outputs.size()) +
                       " vs " + std::to_string(reference.size()) + ")");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    worst = std::max(worst, maxAbsDiff(reference[i], outputs[i]));
  }
  return worst;
}

double validateAgainstInterpreter(const std::string& matlabSource, const std::string& entry,
                                  const CompiledUnit& unit, const std::vector<Matrix>& args) {
  std::vector<Matrix> reference =
      interpretReference(matlabSource, entry, args, unit.fn().outs.size());
  return compareToReference(reference, unit.run(args).outputs);
}

}  // namespace mat2c
