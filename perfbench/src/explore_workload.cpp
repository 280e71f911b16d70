// Workload `explore`: the ISA designer's loop, single-threaded, on seeded
// input data. One pass is one dse::explore over the DSE corpus, one
// tune::autotune per tune-corpus kernel, and a table-1 pass (each paper
// kernel compiled in both styles, run on the VM and checked against the
// interpreter). The VM and the interpreter oracle do most of the work.
//
// dse::explore and tune::autotune call the VM and the interpreter
// internally, where the benchmark cannot put spans. The traced run therefore
// replays the VM and interpreter calls they make (from their public
// results) under spans of their own, and reports how much of the black-box
// time the replay covers.
#include <ostream>
#include <sstream>
#include <streambuf>

#include "dse/dse.hpp"
#include "parser/parser.hpp"
#include "trace.hpp"
#include "tune/tune.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mat2c;

constexpr double kOracleBound = 1e-9;
constexpr double kTickSeconds = 0.25;  // shortest stretch between host samples

double maxErr(const std::vector<Matrix>& expected, const std::vector<Matrix>& actual) {
  if (expected.size() != actual.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i)
    worst = std::max(worst, maxAbsDiff(expected[i], actual[i]));
  return worst;
}

std::vector<Matrix> interpret(const kernels::KernelSpec& spec, std::size_t nOut) {
  DiagnosticEngine diags;
  ast::ProgramPtr program = parseSource(spec.source, diags);
  if (diags.hasErrors()) throw CompileError(diags.renderAll());
  Interpreter interp(*program);
  trace::Scope s("interp", "callFunction");
  return interp.callFunction(spec.entry, spec.args, std::max<std::size_t>(nOut, 1));
}

CompiledUnit compile(const kernels::KernelSpec& spec, const CompileOptions& opts) {
  Compiler compiler;
  trace::Scope s("driver", "compileSource");
  return compiler.compileSource(spec.source, spec.entry, spec.argSpecs, opts);
}

vm::RunResult runVm(const CompiledUnit& unit, const std::vector<Matrix>& args,
                    vm::StmtProfile* profile = nullptr) {
  vm::Machine machine(unit.isa());
  if (profile) machine.setProfile(profile);
  trace::Scope s("vm", "run");
  return machine.run(unit.fn(), args);
}

/// Rebuilds the CompileOptions a tuner candidate ran with from its
/// passSignature(); nullopt when a field is not understood.
std::optional<CompileOptions> optionsFromSignature(const std::string& sig,
                                                   const CompileOptions& base) {
  CompileOptions o = base;
  std::istringstream in(sig);
  std::string field;
  while (std::getline(in, field, ';')) {
    auto eq = field.find('=');
    if (eq == std::string::npos) continue;
    std::string k = field.substr(0, eq), v = field.substr(eq + 1);
    auto flag = [&](bool& dst) { dst = v == "1"; };
    auto tri = [&](std::optional<bool>& dst) {
      dst = v == "auto" ? std::nullopt : std::optional<bool>(v == "1");
    };
    if (k == "style") o.style = v == "coder" ? lower::CodeStyle::CoderLike
                                             : lower::CodeStyle::Proposed;
    else if (k == "constFold") flag(o.constFold);
    else if (k == "idioms") flag(o.idioms);
    else if (k == "vectorize") flag(o.vectorize);
    else if (k == "sinkDecls") flag(o.sinkDecls);
    else if (k == "fuseElementwise") tri(o.fuseElementwise);
    else if (k == "boundsChecks") tri(o.boundsChecks);
    else if (k == "checkElim") flag(o.checkElim);
    else if (k == "fuseLoops") flag(o.fuseLoops);
    else if (k == "unroll") flag(o.unrollRecurrences);
    else if (k == "unrollMaxTrip") o.unrollMaxTrip = std::stoi(v);
    else if (k == "licm") flag(o.licm);
    else if (k == "cse") flag(o.cse);
    else if (k == "deadStores") flag(o.deadStores);
    else if (k == "deadCode") flag(o.deadCode);
    else if (k == "reassoc") flag(o.reassoc);
    else if (k == "degrade") flag(o.degrade);
  }
  if (o.passSignature() != sig) return std::nullopt;
  return o;
}

/// Discards dse::explore's progress text, but ticks `clock` at a line end
/// once kTickSeconds have passed, so the progress lines become host sampling
/// points on the exploring thread.
class TickBuf : public std::streambuf {
 public:
  explicit TickBuf(ScaledClock& clock) : clock_(clock) {}

 protected:
  int overflow(int c) override {
    if (c == '\n' && clock_.openSeconds() >= kTickSeconds) {
      trace::Scope s("bench", "host_sample");
      clock_.tick();
    }
    return traits_type::not_eof(c);
  }

 private:
  ScaledClock& clock_;
};

struct ReplayStats {
  int measuredPoints = 0;
  int unmatched = 0;  // tuner candidates whose options could not be rebuilt
};

/// Replays the compile + VM (+ mining) + oracle calls dse::explore makes.
void replayExplore(const std::vector<kernels::KernelSpec>& corpus,
                   const dse::ExploreResult& res, ReplayStats& st) {
  dse::ExploreOptions defaults;
  for (const char* preset : {"scalar", "dspx"}) {
    CompileOptions o;
    o.isa = isa::IsaDescription::preset(preset);
    for (const auto& spec : corpus) runVm(compile(spec, o), spec.args);
    ++st.measuredPoints;
  }
  const bool featureSets[][3] = {{false, false, false}, {true, false, false},
                                 {false, true, false},  {true, true, false},
                                 {false, true, true},   {true, true, true}};
  for (int w : defaults.laneWidths) {
    for (const auto& fs : featureSets) {
      dse::DesignPoint p{w, std::max(1, w / 2), 8, fs[0], fs[1], fs[2], true, true, {}};
      CompileOptions o;
      o.isa = dse::toIsa(p, "dse_probe");
      for (const auto& spec : corpus) {
        CompiledUnit unit = compile(spec, o);
        vm::StmtProfile profile;
        runVm(unit, spec.args, &profile);
        trace::Scope s("dse", "mineFunction");
        dse::mineFunction(unit.fn(), profile);
      }
      ++st.measuredPoints;
    }
  }
  CompileOptions o;
  o.isa = res.bestIsa;
  for (const auto& spec : corpus) {
    CompiledUnit unit = compile(spec, o);
    runVm(unit, spec.args);
    interpret(spec, unit.fn().outs.size());
    runVm(unit, spec.args);  // validateAgainstInterpreter runs the VM again
  }
  ++st.measuredPoints;
}

/// Replays the compile + VM + oracle calls one tune::autotune made.
void replayTune(const kernels::KernelSpec& spec, const tune::TuneReport& rep,
                ReplayStats& st) {
  bool interpreted = false;
  for (const tune::TuneCandidate& cand : rep.candidates) {
    if (!cand.compiled) continue;
    auto opts = optionsFromSignature(cand.signature, CompileOptions::proposed());
    if (!opts) {
      ++st.unmatched;
      continue;
    }
    CompiledUnit unit = compile(spec, *opts);
    runVm(unit, spec.args);
    if (!interpreted) interpret(spec, unit.fn().outs.size());
    interpreted = true;
  }
}

}  // namespace

Table1Row measureTable1Kernel(const kernels::KernelSpec& spec) {
  Table1Row row;
  CompiledUnit proposed = compile(spec, CompileOptions::proposed());
  CompiledUnit coder = compile(spec, CompileOptions::coderLike());
  auto t0 = Clock::now();
  std::vector<Matrix> expected = interpret(spec, proposed.fn().outs.size());
  row.interpMillis = millisBetween(t0, Clock::now());
  for (const CompiledUnit* unit : {&proposed, &coder}) {
    t0 = Clock::now();
    vm::RunResult run = runVm(*unit, spec.args);
    row.vmMillis += millisBetween(t0, Clock::now());
    row.vmOps += static_cast<double>(run.cycles.opsExecuted);
    (unit == &proposed ? row.proposedCycles : row.baselineCycles) = run.cycles.total;
    row.maxAbsErr = std::max(row.maxAbsErr, maxErr(expected, run.outputs));
  }
  return row;
}

WorkloadResult runExplore(const Inputs& in, const PhaseConfig& cfg) {
  WorkloadResult r;
  std::vector<double> exploreS, tuneS;  // host-normalized, one per pass
  double asipGeomean = 0, dseBest = 0, points = 0;
  double tried = 0, pruned = 0, accepted = 0;
  double vmOps = 0, vmMs = 0, cycles = 0, interpMs = 0, vmRuns = 0, interpRuns = 0;
  ReplayStats replay;
  double replayS = 0, blackBoxS = 0, lastTuneRaw = 0;
  int replayRoot = -1;

  auto start = Clock::now();
  do {
    // -- dse::explore --------------------------------------------------------
    ScaledClock exploreClock(*cfg.host);
    TickBuf ticks(exploreClock);
    std::ostream progress(&ticks);
    dse::ExploreOptions eo;
    eo.corpus = in.dseCorpus;
    eo.progress = &progress;
    dse::ExploreResult res = [&] {
      trace::Scope s("dse", "explore");
      return dse::explore(eo);
    }();
    exploreClock.tick();
    double exploreRaw = exploreClock.rawSeconds();
    exploreS.push_back(exploreClock.seconds());
    ++r.attempted;
    std::string wrong;
    for (const auto& [kernel, err] : res.bestMaxAbsErr) {
      if (!(err <= kOracleBound)) wrong += " " + kernel;
    }
    if (res.bestMaxAbsErr.size() != in.dseCorpus.size()) wrong += " (oracle check skipped)";
    if (dseBest != 0 && res.best.geomean != dseBest) wrong += " (geomean not repeatable)";
    if (!wrong.empty()) r.fail("dse best point:" + wrong);
    dseBest = res.best.geomean;
    points = res.pointsEvaluated;

    // -- tune::autotune per kernel -------------------------------------------
    std::vector<tune::TuneReport> reports;
    ScaledClock tuneClock(*cfg.host);
    for (const auto& spec : in.tuneCorpus) {
      tune::TuneInput ti;
      ti.source = spec.source;
      ti.entry = spec.entry;
      ti.argSpecs = spec.argSpecs;
      ti.args = spec.args;
      ++r.attempted;
      try {
        trace::Scope s("tune", "autotune");
        reports.push_back(tune::autotune(ti).report);
      } catch (const std::exception& e) {
        r.fail("tune " + spec.name + ": " + e.what());
        continue;
      }
      tuneClock.tick();
      const tune::TuneReport& rep = reports.back();
      if (!(rep.bestMaxAbsErr <= kOracleBound) || !(rep.tunedCycles <= rep.defaultCycles))
        r.fail("tune " + spec.name + ": winner fails the oracle or is slower");
    }
    double tuneRaw = lastTuneRaw = tuneClock.rawSeconds();
    tuneS.push_back(tuneClock.seconds());
    tried = pruned = accepted = 0;
    for (const auto& rep : reports) {
      tried += rep.candidatesTried;
      pruned += rep.candidatesPruned;
      for (const auto& c : rep.candidates) accepted += c.accepted ? 1 : 0;
    }

    // -- table-1 pass ----------------------------------------------------------
    std::vector<double> speedups;
    vmOps = vmMs = cycles = interpMs = vmRuns = interpRuns = 0;
    for (const auto& spec : in.table1) {
      ++r.attempted;
      Table1Row row;
      try {
        row = measureTable1Kernel(spec);
      } catch (const std::exception& e) {
        r.fail("table1 " + spec.name + ": " + e.what());
        continue;
      }
      if (!(row.maxAbsErr <= kOracleBound)) r.fail("table1 " + spec.name + ": oracle error");
      speedups.push_back(row.baselineCycles / row.proposedCycles);
      vmOps += row.vmOps;
      vmMs += row.vmMillis;
      interpMs += row.interpMillis;
      cycles += row.baselineCycles + row.proposedCycles;
      vmRuns += 2;
      interpRuns += 1;
    }
    double g = geomean(speedups);
    if (asipGeomean != 0) {
      ++r.attempted;
      if (g != asipGeomean) r.fail("table1: geomean not repeatable");
    }
    asipGeomean = g;

    // -- traced run: replay what explore and autotune ran inside -------------
    if (cfg.traced && replayRoot < 0) {
      auto tr = Clock::now();
      trace::Scope s("bench", "replay");
      replayRoot = s.index();
      replayExplore(in.dseCorpus, res, replay);
      for (std::size_t i = 0; i < reports.size(); ++i)
        replayTune(in.tuneCorpus[i], reports[i], replay);
      replayS = secondsSince(tr);
      blackBoxS = exploreRaw + tuneRaw;
    }
  } while (cfg.focus && secondsSince(start) < cfg.seconds);

  r.endToEnd["explore_s"] = {median(exploreS), "s"};
  r.endToEnd["tune_s"] = {median(tuneS), "s"};
  r.endToEnd["asip_speedup_geomean"] = {asipGeomean, "x"};
  r.endToEnd["dse_best_geomean"] = {dseBest, "x"};

  r.counts["explore.vm.ops"] = vmOps;
  r.counts["explore.vm.asip_cycles"] = cycles;
  r.counts["explore.dse.points_evaluated"] = points;
  r.counts["explore.tune.candidates_tried"] = tried;
  r.counts["explore.tune.candidates_pruned"] = pruned;

  r.perLayer["vm.ops"] = {vmOps, "count"};
  r.perLayer["vm.asip_cycles"] = {cycles, "cycles"};
  r.perLayer["vm.ms"] = {vmMs, "ms"};
  r.perLayer["vm.ns_per_op"] = {vmMs * 1e6 / vmOps, "ns"};
  r.perLayer["interp.ms"] = {interpMs, "ms"};
  r.perLayer["interp.vm_ratio"] = {(interpMs / interpRuns) / (vmMs / vmRuns), "ratio"};
  r.perLayer["dse.points_evaluated"] = {points, "count"};
  r.perLayer["tune.candidates_tried"] = {tried, "count"};
  r.perLayer["tune.candidates_pruned"] = {pruned, "count"};
  r.perLayer["tune.accept_ratio"] = {tried > 0 ? accepted / tried : 0.0, "ratio"};
  r.perLayer["tune.ms_per_candidate"] = {tried > 0 ? lastTuneRaw * 1000.0 / tried : 0.0,
                                         "ms"};
  if (cfg.traced) {
    r.perLayer["dse.measured_points"] = {static_cast<double>(replay.measuredPoints), "count"};
    r.perLayer["bench.replay_coverage"] = {replayS / blackBoxS, "ratio"};
    r.perLayer["bench.replay_unmatched"] = {static_cast<double>(replay.unmatched), "count"};
    auto self = trace::selfTimeByModule(trace::spans(), replayRoot);
    double total = 0;
    for (const auto& [m, ms] : self) total += ms;
    r.perLayer["bench.explore_vm_interp_share"] = {(self["vm"] + self["interp"]) / total,
                                                   "ratio"};
  }
  return r;
}

}  // namespace perfbench
