// Instrumented pass pipeline.
//
// Every pass — standard or injected — runs through the same harness: wall
// time and LIR size statistics are recorded around the pass body, optional
// inter-pass verification (PipelineOptions::verifyEach) attributes invalid
// LIR to the pass that produced it, and an optional trace hook observes the
// function between passes. The standard pass order lives in
// standardPipeline(); runPipeline() keeps the one-call interface the driver
// uses.
#include <chrono>

#include "opt/passes.hpp"
#include "support/diagnostics.hpp"
#include "support/errors.hpp"
#include "support/fault_injection.hpp"
#include "support/limits.hpp"
#include "support/string_utils.hpp"

namespace mat2c::opt {

PassPipeline& PassPipeline::addPass(std::string name, PassFn fn) {
  passes_.push_back({std::move(name), std::move(fn)});
  return *this;
}

std::vector<std::string> PassPipeline::names() const {
  std::vector<std::string> out;
  out.reserve(passes_.size());
  for (const auto& p : passes_) out.push_back(p.name);
  return out;
}

PipelineReport PassPipeline::run(lir::Function& fn, const isa::IsaDescription& isa,
                                 const PipelineOptions& options) const {
  using Clock = std::chrono::steady_clock;
  PipelineReport report;
  report.passes.reserve(passes_.size());
  // Nothing touches the function between passes, so each pass starts from
  // the statistics the previous one ended with.
  lir::FunctionStats stats = lir::collectStats(fn);
  for (const auto& pass : passes_) {
    // Pass boundaries are the pipeline's cooperative guard points: compile
    // deadlines expire here, the fault injector targets them by pass name,
    // and the alloc budget counts them.
    DeadlineGuard::poll("pipeline");
    fault::onAllocPoint();

    PassRecord rec;
    rec.name = pass.name;
    rec.before = stats;
    auto start = Clock::now();
    try {
      fault::atPassBoundary(pass.name);
      pass.fn(fn, isa, rec, report);
    } catch (const StructuredError&) {
      throw;  // already classified (Timeout / ResourceExhausted / ...)
    } catch (const std::exception& e) {
      // Attribute the failure to the pass so the degradation ladder can
      // retry without it. Unknown non-std exceptions (panics) fall through
      // to the service's containment layer unclassified.
      throw StructuredError(ErrorKind::PassError,
                            "pass '" + pass.name + "' failed: " + e.what(), pass.name);
    }
    rec.millis = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    rec.after = stats = lir::collectStats(fn);
    report.totalMillis += rec.millis;
#define MAT2C_ADD_COUNTER(field, total) report.total += rec.field;
    MAT2C_PASS_COUNTERS(MAT2C_ADD_COUNTER)
#undef MAT2C_ADD_COUNTER

    if (options.maxLirOps > 0 && rec.after.statements > rec.before.statements &&
        static_cast<std::size_t>(rec.after.statements) > options.maxLirOps) {
      throw StructuredError(ErrorKind::ResourceExhausted,
                            "pass '" + pass.name + "' grew the function to " +
                                std::to_string(rec.after.statements) +
                                " LIR statements (limit " +
                                std::to_string(options.maxLirOps) + ")",
                            pass.name);
    }

    if (options.verifyEach) {
      auto problems = lir::verify(fn);
      if (!problems.empty()) {
        throw StructuredError(ErrorKind::VerifyError,
                              "pass '" + pass.name + "' produced invalid LIR (" +
                                  std::to_string(problems.size()) + " problem(s)):\n  - " +
                                  join(problems, "\n  - "),
                              pass.name);
      }
    }
    if (options.trace) options.trace(rec, fn);
    report.passes.push_back(std::move(rec));
  }
  return report;
}

PassPipeline standardPipeline(const PipelineOptions& options) {
  PassPipeline p;
  auto fold = [](lir::Function& fn, const isa::IsaDescription&, PassRecord&,
                 PipelineReport&) { constFold(fn); };
  // Dead-code cleanup; with deadStores enabled it also drops dead array
  // stores and empty/zero-trip loops (then re-sweeps scalars the removal
  // orphaned).
  bool deadStores = options.deadStores;
  auto dce = [deadStores](lir::Function& fn, const isa::IsaDescription&, PassRecord& rec,
                          PipelineReport&) {
    eliminateDeadScalars(fn);
    if (deadStores) {
      rec.storesRemoved = eliminateDeadStores(fn);
      if (rec.storesRemoved > 0) eliminateDeadScalars(fn);
    }
  };

  if (options.constFold) p.addPass("constfold", fold);
  if (options.deadCode) p.addPass("dce", dce);
  if (options.checkElim) {
    p.addPass("checkelim", [](lir::Function& fn, const isa::IsaDescription&,
                              PassRecord& rec, PipelineReport&) {
      rec.checksRemoved = eliminateProvableChecks(fn);
    });
  }
  if (options.sinkDecls) {
    p.addPass("sinkdecls", [](lir::Function& fn, const isa::IsaDescription&, PassRecord&,
                              PipelineReport&) { sinkDecls(fn); });
  }
  if (options.unrollRecurrences) {
    int maxTrip = options.unrollMaxTrip;
    std::size_t budget = options.maxLirOps;
    p.addPass("unroll", [maxTrip, budget](lir::Function& fn, const isa::IsaDescription&,
                                          PassRecord& rec, PipelineReport&) {
      rec.loopsUnrolled = unrollRecurrences(fn, maxTrip, budget);
    });
  }
  if (options.idioms) {
    bool reassoc = options.reassoc;
    p.addPass("idioms", [reassoc](lir::Function& fn, const isa::IsaDescription& isa,
                                  PassRecord& rec, PipelineReport&) {
      rec.idiomRewrites = recognizeIdioms(fn, isa, reassoc);
    });
  }
  if (options.vectorize) {
    p.addPass("vectorize", [](lir::Function& fn, const isa::IsaDescription& isa,
                              PassRecord& rec, PipelineReport& report) {
      VectorizeStats vs = vectorize(fn, isa);
      rec.loopsVectorized = vs.loopsVectorized;
      report.vec.loopsConsidered += vs.loopsConsidered;
      report.vec.reductionsVectorized += vs.reductionsVectorized;
      for (auto& note : vs.missed) report.vec.missed.push_back(std::move(note));
    });
  }
  // Vectorization introduces fresh index arithmetic; fold once more so the
  // strip-mine bounds become the literals fusion and the loop cleanups need.
  if (options.constFold) p.addPass("constfold.post", fold);
  if (options.deadCode) p.addPass("dce.post", dce);
  if (options.fuseLoops) {
    p.addPass("fuse", [](lir::Function& fn, const isa::IsaDescription&, PassRecord& rec,
                         PipelineReport&) { rec.loopsFused = opt::fuseLoops(fn); });
  }
  if (options.licm) {
    p.addPass("licm", [](lir::Function& fn, const isa::IsaDescription&, PassRecord& rec,
                         PipelineReport&) {
      LicmStats ls = hoistLoopInvariants(fn);
      rec.exprsHoisted = ls.exprsHoisted;
      rec.scalarsPromoted = ls.scalarsPromoted;
    });
  }
  if (options.cse) {
    p.addPass("cse", [](lir::Function& fn, const isa::IsaDescription&, PassRecord& rec,
                        PipelineReport&) { rec.cseEliminated = eliminateCommonSubexprs(fn); });
  }
  // The loop layer can leave dead preloads and emptied loops behind.
  if (options.deadCode &&
      (options.fuseLoops || options.licm || options.cse || options.unrollRecurrences)) {
    p.addPass("dce.final", dce);
  }
  return p;
}

PipelineReport runPipeline(lir::Function& fn, const isa::IsaDescription& isa,
                           const PipelineOptions& options) {
  return standardPipeline(options).run(fn, isa, options);
}

}  // namespace mat2c::opt
