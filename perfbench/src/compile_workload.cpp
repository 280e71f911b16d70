// Workload `compile`: a single-threaded closed loop of
// Compiler::compileSource + CompiledUnit::cCode over seeded draws from the
// request space (kernel x size x style x ISA). Only the lexer-to-codegen
// stages work here; the VM, the interpreter and the service stay idle.
//
// The traced run additionally replays the stage functions one by one on the
// same inputs (parse, sema, lower, optimize, verify, emit), so each stage
// gets its own self time, and reports what compileSource spends beyond them.
#include <optional>
#include <unordered_map>

#include "ast/ast.hpp"
#include "lir/lir.hpp"
#include "parser/parser.hpp"
#include "sema/sema.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mat2c;

constexpr double kDoseSeconds = 8.0;  // measuring time when not the focus
constexpr double kWindowSeconds = 1.0;  // between host reference samples
/// Opt counters and C sizes of this many leading requests form the
/// deterministic count set compared between traced and untraced runs.
constexpr std::size_t kCountedPrefix = 200;
/// Traced run: the replayed stages must account for at least this share of
/// the compileSource + cCode time, so that no VM or interpreter run can hide
/// inside the driver (they take milliseconds, the driver's own work ~50 us).
constexpr double kMinStageShare = 0.5;

/// Mirrors Compiler::compileOnce's option mapping for the stage replay.
opt::PipelineOptions pipelineOptions(const CompileOptions& o) {
  opt::PipelineOptions p;
  p.constFold = o.constFold;
  p.idioms = o.idioms;
  p.vectorize = o.vectorize && o.style == lower::CodeStyle::Proposed;
  p.sinkDecls = o.sinkDecls;
  p.checkElim = o.checkElim;
  p.fuseLoops = o.fuseLoops;
  p.unrollRecurrences = o.unrollRecurrences;
  p.unrollMaxTrip = o.effectiveUnrollMaxTrip();
  p.licm = o.licm;
  p.cse = o.cse;
  p.deadStores = o.deadStores;
  p.deadCode = o.deadCode;
  p.reassoc = o.reassoc;
  p.maxLirOps = o.limits.maxLirOps;
  return p;
}

struct StageTimes {
  double parseUs = 0, semaUs = 0, lowerUs = 0, optUs = 0, verifyUs = 0, emitUs = 0;
  double astNodes = 0, loweredStmts = 0;
  bool sameC = false;
};

double microsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// The stage-by-stage replay of one compile (traced run only).
StageTimes replayStages(const kernels::KernelSpec& spec, const CompileOptions& opts,
                        const std::string& expectedC) {
  StageTimes t;
  DiagnosticEngine diags;
  auto t0 = Clock::now();
  ast::ProgramPtr program;
  {
    trace::Scope s("parser", "parseSource");
    program = parseSource(spec.source, diags);
  }
  t.parseUs = microsSince(t0);
  t.astNodes = static_cast<double>(ast::collectStats(*program).nodes);
  t0 = Clock::now();
  {
    trace::Scope s("sema", "checkProgram");
    sema::checkProgram(*program, spec.entry, spec.argSpecs, diags);
  }
  t.semaUs = microsSince(t0);
  lower::LowerOptions lowerOpts;
  lowerOpts.style = opts.style;
  lowerOpts.fuseElementwise = opts.fuseElementwise;
  lowerOpts.boundsChecks = opts.boundsChecks;
  t0 = Clock::now();
  lir::Function fn = [&] {
    trace::Scope s("lower", "lowerProgram");
    return lower::lowerProgram(*program, spec.entry, spec.argSpecs, lowerOpts, diags);
  }();
  t.lowerUs = microsSince(t0);
  t.loweredStmts = static_cast<double>(lir::collectStats(fn).statements);
  isa::IsaDescription unitIsa = opts.isa;
  if (opts.style == lower::CodeStyle::CoderLike) {
    unitIsa.setFeature("fma", false);
    unitIsa.setFeature("cmul", false);
    unitIsa.setFeature("cmac", false);
  }
  t0 = Clock::now();
  {
    trace::Scope s("opt", "runPipeline");
    opt::runPipeline(fn, unitIsa, pipelineOptions(opts));
  }
  t.optUs = microsSince(t0);
  t0 = Clock::now();
  {
    trace::Scope s("lir", "verify");
    lir::verify(fn);
  }
  t.verifyUs = microsSince(t0);
  t0 = Clock::now();
  std::string c;
  {
    trace::Scope s("codegen", "emitC");
    c = codegen::emitC(fn, unitIsa, {});
  }
  t.emitUs = microsSince(t0);
  t.sameC = c == expectedC;
  return t;
}

/// One request: compileSource + cCode into `unit` and `c`.
void compileOnce(const Inputs& in, std::size_t index, std::optional<CompiledUnit>& unit,
                 std::string& c) {
  RequestPoint p = in.point(index);
  const kernels::KernelSpec& spec = in.cases[p.kernelCase].spec;
  Compiler compiler;
  {
    trace::Scope s("driver", "compileSource");
    unit.emplace(compiler.compileSource(spec.source, spec.entry, spec.argSpecs,
                                        optionsFor(p, in.isas)));
  }
  trace::Scope s("codegen", "cCode");
  c = unit->cCode();
}

}  // namespace

WorkloadResult runCompile(const Inputs& in, const PhaseConfig& cfg) {
  WorkloadResult r;
  Rng rng(in.seed * 0x100000001b3ull + 0xC0);
  const std::size_t space = in.requestSpace();

  // Traced run only: the same requests alternately untraced and traced, so
  // the recorder's own cost shows as a ratio.
  double overheadRatio = 1.0;
  if (cfg.traced) {
    double plain = 0.0, traced = 0.0;
    Rng orng(in.seed + 77);
    std::optional<CompiledUnit> unit;
    std::string c;
    for (int block = 0; block < 6; ++block) {
      std::vector<std::size_t> draws;
      for (int i = 0; i < 20; ++i) draws.push_back(orng.below(space));
      for (bool on : {false, true}) {
        trace::setEnabled(on);
        auto t0 = Clock::now();
        for (std::size_t idx : draws) compileOnce(in, idx, unit, c);
        (on ? traced : plain) += secondsSince(t0);
      }
    }
    trace::setEnabled(true);
    overheadRatio = traced / plain;
  }

  std::unordered_map<std::size_t, std::uint64_t> hashes;
  std::vector<double> latMs;
  // Per-pass times for the passes of the default pipeline (a superset of the
  // CoderLike one); the metric names stay fixed whatever a request runs.
  std::map<std::string, double> passMs;
  for (const std::string& name : opt::standardPipeline({}).names()) passMs[name] = 0.0;
  double optUsTotal = 0, optStmts = 0, cBytes = 0, degraded = 0;
  double vec = 0, idioms = 0, fused = 0, unrolled = 0, hoisted = 0, cse = 0;
  StageTimes stageSum;
  double replayed = 0, replayMatches = 0, compileUsReplayed = 0;
  // Requests run in windows of about a second, each closed by a host
  // reference sample that scales its latencies and its wall time.
  std::vector<double> window;
  std::size_t done = 0;
  ScaledClock clock(*cfg.host);
  auto closeWindow = [&] {
    double scale = clock.tick();
    for (double ms : window) latMs.push_back(ms * scale);
    window.clear();
  };
  const double limit = cfg.focus ? cfg.seconds : kDoseSeconds;
  while (done < kCountedPrefix || clock.rawSeconds() + clock.openSeconds() < limit) {
    if (clock.openSeconds() >= kWindowSeconds) closeWindow();
    std::size_t idx = rng.below(space);
    ++r.attempted;
    std::optional<CompiledUnit> unit;
    std::string c;
    auto t0 = Clock::now();
    try {
      compileOnce(in, idx, unit, c);
    } catch (const std::exception& e) {
      r.fail("compile " + in.cases[in.point(idx).kernelCase].label + ": " + e.what());
      continue;
    }
    window.push_back(millisBetween(t0, Clock::now()));
    ++done;
    std::uint64_t h = fnv1a(c);
    auto [it, fresh] = hashes.emplace(idx, h);
    if (c.empty() || (!fresh && it->second != h)) {
      r.fail("compile " + in.cases[in.point(idx).kernelCase].label +
             (c.empty() ? ": empty C" : ": C text changed between recurrences"));
    }
    const opt::PipelineReport& rep = unit->optimizationReport();
    for (const auto& pr : rep.passes) {
      if (auto it = passMs.find(pr.name); it != passMs.end()) it->second += pr.millis;
    }
    optUsTotal += rep.totalMillis * 1000.0;
    double stmts = static_cast<double>(lir::collectStats(unit->fn()).statements);
    optStmts += stmts;
    cBytes += static_cast<double>(c.size());
    degraded += rep.degraded.empty() ? 0.0 : 1.0;
    vec += rep.vec.loopsVectorized;
    idioms += rep.idiomRewrites;
    fused += rep.loopsFused;
    unrolled += rep.loopsUnrolled;
    hoisted += rep.exprsHoisted;
    cse += rep.cseEliminated;
    if (done == kCountedPrefix) {
      r.counts["compile.c_bytes"] = cBytes;
      r.counts["compile.opt.lir_stmts"] = optStmts;
      r.counts["compile.opt.loops_vectorized"] = vec;
      r.counts["compile.opt.idiom_rewrites"] = idioms;
      r.counts["compile.opt.loops_fused"] = fused;
      r.counts["compile.opt.loops_unrolled"] = unrolled;
      r.counts["compile.opt.exprs_hoisted"] = hoisted;
      r.counts["compile.opt.cse_eliminated"] = cse;
    }
    if (cfg.traced) {
      RequestPoint p = in.point(idx);
      StageTimes t = replayStages(in.cases[p.kernelCase].spec, optionsFor(p, in.isas), c);
      stageSum.parseUs += t.parseUs;
      stageSum.semaUs += t.semaUs;
      stageSum.lowerUs += t.lowerUs;
      stageSum.optUs += t.optUs;
      stageSum.verifyUs += t.verifyUs;
      stageSum.emitUs += t.emitUs;
      stageSum.astNodes += t.astNodes;
      stageSum.loweredStmts += t.loweredStmts;
      replayMatches += t.sameC ? 1.0 : 0.0;
      compileUsReplayed += window.back() * 1000.0;
      ++replayed;
    }
  }
  closeWindow();
  double n = static_cast<double>(latMs.size());

  r.endToEnd["compile_per_s"] = {n / clock.seconds(), "1/s"};
  r.endToEnd["compile_p50_ms"] = {quantile(latMs, 0.5), "ms"};
  r.endToEnd["compile_p99_ms"] = {quantile(latMs, 0.99), "ms"};

  auto mean = [&](double total) { return n > 0 ? total / n : 0.0; };
  r.perLayer["opt.us"] = {mean(optUsTotal), "us"};
  for (const auto& [name, total] : passMs) r.perLayer["opt." + name + ".ms"] = {mean(total), "ms"};
  r.perLayer["opt.lir_stmts"] = {mean(optStmts), "count"};
  r.perLayer["opt.loops_vectorized"] = {mean(vec), "count"};
  r.perLayer["opt.idiom_rewrites"] = {mean(idioms), "count"};
  r.perLayer["opt.loops_fused"] = {mean(fused), "count"};
  r.perLayer["opt.loops_unrolled"] = {mean(unrolled), "count"};
  r.perLayer["opt.exprs_hoisted"] = {mean(hoisted), "count"};
  r.perLayer["opt.cse_eliminated"] = {mean(cse), "count"};
  r.perLayer["codegen.c_bytes"] = {mean(cBytes), "bytes"};
  r.perLayer["driver.degraded"] = {degraded, "count"};
  r.perLayer["bench.trace_overhead_ratio"] = {overheadRatio, "ratio"};
  if (replayed > 0) {
    auto per = [&](double total) { return total / replayed; };
    r.perLayer["parser.us"] = {per(stageSum.parseUs), "us"};
    r.perLayer["parser.ast_nodes"] = {per(stageSum.astNodes), "count"};
    r.perLayer["sema.us"] = {per(stageSum.semaUs), "us"};
    r.perLayer["lower.us"] = {per(stageSum.lowerUs), "us"};
    r.perLayer["lower.lir_stmts"] = {per(stageSum.loweredStmts), "count"};
    r.perLayer["lir.verify.us"] = {per(stageSum.verifyUs), "us"};
    r.perLayer["codegen.us"] = {per(stageSum.emitUs), "us"};
    // compileSource + cCode beyond the stages it runs (sema runs inside
    // lowerProgram, so the separate checkProgram replay is not subtracted).
    r.perLayer["driver.overhead_us"] = {
        per(compileUsReplayed - stageSum.parseUs - stageSum.lowerUs - stageSum.optUs -
            stageSum.verifyUs - stageSum.emitUs),
        "us"};
    r.perLayer["bench.replay_match_ratio"] = {per(replayMatches), "ratio"};
    const double stagesUs = stageSum.parseUs + stageSum.lowerUs + stageSum.optUs +
                            stageSum.verifyUs + stageSum.emitUs;
    ++r.attempted;
    if (stagesUs < kMinStageShare * compileUsReplayed)
      r.fail("compile: the stages account for only " +
             std::to_string(stagesUs / compileUsReplayed) + " of compileSource time");
    ++r.attempted;
    if (replayMatches != replayed) r.fail("compile: the stage replay emitted different C");
  }
  return r;
}

}  // namespace perfbench
