// Layer 3 — design-space exploration and emission.
//
// Structural dimensions (SIMD width, fma/cmul/cmac) change what the compiler
// emits, so each structural configuration compiles every kernel. Many of
// those compiles come out the same (a real-only kernel ignores cmul/cmac),
// and the VM's counts and statement profile depend on the LIR alone (the
// ISA only prices the ops), so the VM (with the statement profile feeding
// the idiom miner) runs once per distinct compiled function. Cost-only
// dimensions (zol/agu, memory-port width, fused-op subsets) are rescored
// analytically from the measured per-op issue counts; that reconstruction is
// exact because the VM total is exactly sum(count[op] * cost[op]) and zeroed
// ops still record their counts.
//
// No measurement reads another's result, so the compiles, the distinct VM
// runs (+ mining) and the winner's oracle checks fan out over forEachIndex
// (support/parallel.hpp); grouping and every aggregation stay on the calling
// thread in corpus order, so results are bit-identical to a sequential run.
#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "driver/compiler.hpp"
#include "driver/report.hpp"
#include "dse/dse.hpp"
#include "support/parallel.hpp"
#include "support/string_utils.hpp"

namespace mat2c::dse {
namespace {

/// Mined idioms kept in ExploreResult::idioms (the idiom report).
constexpr std::size_t kReportedIdioms = 16;

/// Memory-port widths (in lanes) each structural configuration is rescored at.
constexpr int kMemLaneChoices[] = {4, 8, 16};

constexpr auto num = report::Table::num;  // %.<precision>f

struct StructuralEval {
  DesignPoint base;  // lanes + features; zol/agu/mem fixed at the run config
  isa::IsaDescription isa;  // base as compiled and measured ("dse_probe")
  const KernelEval* kernels = nullptr;  // its jobs, one per kernel in corpus order
};

/// Compiles with a Compiler of its own: Compiler keeps per-compile
/// diagnostics, so one instance must not be shared across threads.
CompiledUnit compileKernel(const kernels::KernelSpec& spec, const isa::IsaDescription& isa) {
  CompileOptions opts;
  opts.isa = isa;
  return Compiler().compileSource(spec.source, spec.entry, spec.argSpecs, opts);
}

vm::RunResult runKernel(const CompiledUnit& unit, const kernels::KernelSpec& spec,
                        vm::StmtProfile* profile = nullptr) {
  vm::Machine machine(unit.isa());
  if (profile) machine.setProfile(profile);
  return machine.run(unit.fn(), spec.args);
}

/// The VM total under `variant`'s costs: sum(count[op] * cost[op]) over the
/// ops issued (an op never issued may have no cost on `variant`).
double rescore(const vm::CycleStats::PerOp& countByOp, const isa::IsaDescription& variant) {
  double total = 0.0;
  for (std::size_t i = 0; i < countByOp.size(); ++i)
    if (countByOp[i] > 0) total += variant.cost(static_cast<isa::Op>(i)) * countByOp[i];
  return total;
}

double geomeanOf(const std::vector<double>& xs) {
  double logSum = 0.0;
  for (double x : xs) logSum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(logSum / static_cast<double>(xs.size()));
}

/// Incremental hardware cost of one fused candidate at a design point: the
/// per-lane unit sum scaled by the SIMD width it is replicated across.
double fusedHwCost(const CandidateInstr& c, const DesignPoint& p) {
  bool vec = false, cplx = false;
  for (isa::Op op : c.ops) {
    vec = vec || isa::isVectorOp(op);
    cplx = cplx || isa::isComplexOp(op);
  }
  int lanes = vec ? (cplx ? p.lanesC64 : p.lanesF64) : 1;
  return c.hwUnits * lanes;
}

void progressLine(const ExploreOptions& opts, const std::string& line) {
  if (opts.progress) *opts.progress << line << "\n";
}

/// Runs `job`'s unit on the VM with a statement profile and mines it.
void measure(KernelEval& job) {
  try {
    vm::StmtProfile profile;
    job.countByOp = runKernel(*job.unit, *job.spec, &profile).cycles.countByOp;
    job.instances = mineFunction(job.unit->fn(), profile);
  } catch (...) {
    job.error = std::current_exception();
  }
}

}  // namespace

int measureDistinct(std::vector<KernelEval>& jobs) {
  // Class representatives (the first job of each (spec, LIR) in job order),
  // and each job's representative; `none` marks a job that holds an error.
  const std::size_t none = static_cast<std::size_t>(-1);
  std::vector<std::size_t> runs, repOf(jobs.size(), none);
  std::map<std::pair<const kernels::KernelSpec*, std::string>, std::size_t> firstByKey;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].error) continue;
    auto [it, fresh] = firstByKey.try_emplace({jobs[j].spec, lir::print(jobs[j].unit->fn())}, j);
    repOf[j] = it->second;
    if (fresh) runs.push_back(j);
  }
  forEachIndex(runs.size(), [&](std::size_t i) { measure(jobs[runs[i]]); });

  // A duplicate of a failed representative is left alone: the
  // representative comes first, so its error is the one rethrown.
  std::vector<std::size_t> ownRuns;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (repOf[j] == none || repOf[j] == j || jobs[repOf[j]].error) continue;
    const KernelEval& rep = jobs[repOf[j]];
    bool costable = true;
    for (std::size_t op = 0; op < rep.countByOp.size(); ++op)
      costable = costable && (rep.countByOp[op] == 0 ||
                              jobs[j].unit->isa().costable(static_cast<isa::Op>(op)));
    if (!costable) {
      ownRuns.push_back(j);
      continue;
    }
    jobs[j].countByOp = rep.countByOp;
    jobs[j].instances = rep.instances;
    jobs[j].unit = rep.unit;
  }
  forEachIndex(ownRuns.size(), [&](std::size_t i) { measure(jobs[ownRuns[i]]); });

  for (const KernelEval& job : jobs)
    if (job.error) std::rethrow_exception(job.error);
  return static_cast<int>(runs.size() + ownRuns.size());
}

ExploreResult explore(const ExploreOptions& opts) {
  ExploreResult r;
  std::vector<kernels::KernelSpec> corpus =
      opts.corpus.empty() ? kernels::dseCorpus() : opts.corpus;
  if (corpus.empty()) throw std::invalid_argument("dse: empty corpus");

  // -- measured references (scalar baseline, hand-written dspx) and the
  //    structural sweep (compile, then measure + mine each distinct
  //    function), one job per ISA x kernel
  progressLine(opts, "dse: measuring scalar and dspx references over " +
                         std::to_string(corpus.size()) + " kernels");
  isa::IsaDescription scalarIsa = isa::IsaDescription::preset("scalar");
  isa::IsaDescription dspxIsa = isa::IsaDescription::preset("dspx");
  PointScore scalarRef, dspxRef;
  scalarRef.point = DesignPoint{};  // w1 plain m8
  scalarRef.point.memLanes = scalarIsa.memLanes();
  dspxRef.point = DesignPoint{dspxIsa.lanesF64(), dspxIsa.lanesC64(), dspxIsa.memLanes(),
                              true, true, true, true, true, {}};
  scalarRef.measured = dspxRef.measured = true;
  scalarRef.hwCost = hwCostEstimate(scalarIsa);
  dspxRef.hwCost = hwCostEstimate(dspxIsa);

  struct FeatureSet { bool fma, cmul, cmac; };
  const FeatureSet featureSets[] = {{false, false, false}, {true, false, false},
                                    {false, true, false},  {true, true, false},
                                    {false, true, true},   {true, true, true}};
  std::vector<StructuralEval> structurals;
  for (int w : opts.laneWidths) {
    for (const FeatureSet& fs : featureSets) {
      StructuralEval se;
      se.base = DesignPoint{w, std::max(1, w / 2), 8, fs.fma, fs.cmul, fs.cmac,
                            true, true, {}};
      se.isa = toIsa(se.base, "dse_probe");
      structurals.push_back(std::move(se));
    }
  }

  // Job order is the sequential loop's: (scalar, dspx) per kernel, then the
  // structural points in (width, feature set) order, kernel by kernel. A
  // reference job compiles and runs; a structural job only compiles, and
  // keeps its error for measureDistinct to order against the VM's.
  const std::size_t nk = corpus.size();
  std::vector<double> refCycles(2 * nk);  // [2k] scalar, [2k + 1] dspx
  std::vector<KernelEval> jobs(structurals.size() * nk);
  forEachIndex(2 * nk + jobs.size(), [&](std::size_t job) {
    if (job < 2 * nk) {
      const kernels::KernelSpec& spec = corpus[job / 2];
      auto unit = compileKernel(spec, job % 2 == 0 ? scalarIsa : dspxIsa);
      refCycles[job] = runKernel(unit, spec).cycles.total;
      return;
    }
    KernelEval& ke = jobs[job - 2 * nk];
    ke.spec = &corpus[(job - 2 * nk) % nk];
    try {
      ke.unit = std::make_shared<const CompiledUnit>(
          compileKernel(*ke.spec, structurals[(job - 2 * nk) / nk].isa));
    } catch (...) {
      ke.error = std::current_exception();
    }
  });
  r.structuralVmRuns = measureDistinct(jobs);
  for (std::size_t s = 0; s < structurals.size(); ++s) structurals[s].kernels = &jobs[s * nk];

  std::vector<double> dspxSpeedups;
  for (std::size_t k = 0; k < nk; ++k) {
    double scalarCycles = refCycles[2 * k], dspxCycles = refCycles[2 * k + 1];
    r.scalarCycles[corpus[k].name] = scalarCycles;
    scalarRef.kernelCycles[corpus[k].name] = scalarCycles;
    dspxRef.kernelCycles[corpus[k].name] = dspxCycles;
    dspxSpeedups.push_back(scalarCycles / dspxCycles);
  }
  scalarRef.geomean = 1.0;
  dspxRef.geomean = geomeanOf(dspxSpeedups);
  r.dspxRef = dspxRef;
  for (std::size_t s = 0; s < structurals.size(); ++s) {
    progressLine(opts, "dse: measured structural point " + structurals[s].base.label() +
                           " (" + std::to_string(s + 1) + "/" +
                           std::to_string(structurals.size()) + ")");
  }

  // -- idiom aggregation + candidate synthesis -------------------------------
  // Mine on the widest featureless configuration: with no fma/cmul/cmac the
  // idiom pass leaves mul->add and conj->mul chains unfused in the LIR, so
  // the miner rediscovers exactly the patterns the hand-written ASIP turned
  // into custom instructions.
  const StructuralEval* miningConfig = nullptr;
  for (const auto& se : structurals) {
    if (se.base.fma || se.base.cmul || se.base.cmac) continue;
    if (!miningConfig || se.base.lanesF64 > miningConfig->base.lanesF64)
      miningConfig = &se;
  }
  if (!miningConfig) throw std::logic_error("dse: no featureless structural config");
  std::vector<std::vector<IdiomInstance>> perKernel;
  for (std::size_t k = 0; k < nk; ++k) perKernel.push_back(miningConfig->kernels[k].instances);
  std::vector<MinedIdiom> allIdioms = aggregateIdioms(perKernel);
  isa::IsaDescription costRef = toIsa(miningConfig->base, "dse_costref");
  r.candidates = synthesizeCandidates(allIdioms, costRef, opts.topCandidates);
  r.idioms = allIdioms;
  if (r.idioms.size() > kReportedIdioms) r.idioms.resize(kReportedIdioms);
  progressLine(opts, "dse: mined " + std::to_string(allIdioms.size()) + " idioms, kept " +
                         std::to_string(r.candidates.size()) + " fused candidates");

  // -- point enumeration: analytic rescoring over cost-only dimensions ------
  std::vector<PointScore> pool = {scalarRef, dspxRef};
  for (const auto& se : structurals) {
    for (bool zolAgu : {true, false}) {
      for (int mem : kMemLaneChoices) {
        DesignPoint p = se.base;
        p.memLanes = mem;
        p.zol = p.agu = zolAgu;
        isa::IsaDescription variant = toIsa(p, "dse_variant");
        PointScore ps;
        ps.point = p;
        ps.hwCost = hwCostEstimate(variant);
        std::vector<double> speedups;
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          double cycles = rescore(se.kernels[i].countByOp, variant);
          ps.kernelCycles[corpus[i].name] = cycles;
          speedups.push_back(r.scalarCycles[corpus[i].name] / cycles);
        }
        ps.geomean = geomeanOf(speedups);
        ++r.pointsEvaluated;
        pool.push_back(ps);

        if (!opts.exploreFused) continue;
        // Fused-op inclusion: grow the candidate set most-profitable-first.
        std::vector<int> selection;
        for (int ci = 0; ci < static_cast<int>(r.candidates.size()); ++ci) {
          selection.push_back(ci);
          PointScore fs = ps;
          fs.point.fused = selection;
          fs.expressible = false;
          std::vector<double> fSpeedups;
          for (std::size_t i = 0; i < corpus.size(); ++i) {
            double saved =
                tileFused(se.kernels[i].instances, r.candidates, selection, variant);
            double cycles = ps.kernelCycles[corpus[i].name] - saved;
            fs.kernelCycles[corpus[i].name] = cycles;
            fSpeedups.push_back(r.scalarCycles[corpus[i].name] / cycles);
          }
          fs.geomean = geomeanOf(fSpeedups);
          fs.hwCost = ps.hwCost;
          for (int ci2 : selection) fs.hwCost += fusedHwCost(r.candidates[ci2], p);
          ++r.pointsEvaluated;
          pool.push_back(fs);
        }
      }
    }
  }
  progressLine(opts, "dse: scored " + std::to_string(r.pointsEvaluated) +
                         " design points");

  // -- Pareto frontier (max geomean, min hwCost) -----------------------------
  std::sort(pool.begin(), pool.end(), [](const PointScore& a, const PointScore& b) {
    if (a.hwCost != b.hwCost) return a.hwCost < b.hwCost;
    return a.geomean > b.geomean;
  });
  double bestSoFar = 0.0;
  for (const auto& ps : pool) {
    if (ps.geomean > bestSoFar + 1e-12) {
      r.pareto.push_back(ps);
      bestSoFar = ps.geomean;
    }
  }

  // -- pick the emitted winner: best expressible point at <= dspx hw cost ----
  const PointScore* winner = nullptr;
  for (const auto& ps : pool) {
    if (!ps.expressible || ps.hwCost > dspxRef.hwCost + 1e-9) continue;
    if (!winner || ps.geomean > winner->geomean + 1e-12 ||
        (std::abs(ps.geomean - winner->geomean) <= 1e-12 && ps.hwCost < winner->hwCost))
      winner = &ps;
  }
  if (!winner) throw std::logic_error("dse: no expressible point at <= dspx hw cost");
  r.best = *winner;
  r.bestIsa = toIsa(r.best.point, "auto_dse");

  // -- confirm the winner end-to-end: emitted text -> parse -> compile -> VM,
  //    oracle-checked against the reference interpreter ----------------------
  DiagnosticEngine diags;
  isa::IsaDescription reloaded = isa::IsaDescription::parse(r.bestIsa.serialize(), diags);
  if (diags.hasErrors() || reloaded.fingerprint() != r.bestIsa.fingerprint())
    throw std::logic_error("dse: emitted ISA does not round-trip through parse()");
  std::vector<double> bestCycles(nk), bestErr(nk);
  forEachIndex(nk, [&](std::size_t k) {
    const kernels::KernelSpec& spec = corpus[k];
    auto unit = compileKernel(spec, reloaded);
    vm::RunResult run = runKernel(unit, spec);
    auto reference = interpretReference(spec.source, spec.entry, spec.args, unit.fn().outs.size());
    bestCycles[k] = run.cycles.total;
    bestErr[k] = compareToReference(reference, run.outputs);
  });
  std::vector<double> bestSpeedups;
  for (std::size_t k = 0; k < nk; ++k) {
    r.best.kernelCycles[corpus[k].name] = bestCycles[k];
    bestSpeedups.push_back(r.scalarCycles[corpus[k].name] / bestCycles[k]);
    r.bestMaxAbsErr[corpus[k].name] = bestErr[k];
  }
  r.best.geomean = geomeanOf(bestSpeedups);
  r.best.measured = true;
  progressLine(opts, "dse: winner " + r.best.point.label() + " geomean " +
                         num(r.best.geomean, 2) + "x at hw " + num(r.best.hwCost, 0) +
                         " (dspx " + num(dspxRef.geomean, 2) + "x at " +
                         num(dspxRef.hwCost, 0) + ")");
  return r;
}

// ---------------------------------------------------------------------------
// Reporting / emission
// ---------------------------------------------------------------------------

std::string idiomTable(const ExploreResult& r) {
  report::Table t({"idiom (dataflow pattern)", "ops", "kernels", "dyn count"});
  for (const auto& idiom : r.idioms) {
    t.addRow({idiom.signature, std::to_string(idiom.ops.size()),
              std::to_string(idiom.kernels), report::Table::cycles(idiom.dynCount)});
  }
  return t.toString();
}

std::string candidateTable(const ExploreResult& r) {
  report::Table t({"candidate", "pattern", "cycles", "latency", "hw/lane",
                   "est. saved cycles"});
  for (const auto& c : r.candidates) {
    t.addRow({c.name, c.signature, num(c.cycles, 0), num(c.latency, 0), num(c.hwUnits, 1),
              report::Table::cycles(c.estSavedCycles)});
  }
  return t.toString();
}

std::string paretoTable(const ExploreResult& r) {
  report::Table t({"design point", "hw cost", "geomean speedup", "emittable", ""});
  std::string dspxLabel = r.dspxRef.point.label();
  std::string bestLabel = r.best.point.label();
  for (const auto& ps : r.pareto) {
    std::string label = ps.point.label();
    std::string note;
    if (label == dspxLabel) note = "= hand-written dspx";
    if (label == bestLabel && ps.expressible) note = "<- emitted auto_dse";
    t.addRow({label, num(ps.hwCost, 0), num(ps.geomean, 2) + "x",
              ps.expressible ? "yes" : "no", note});
  }
  return t.toString();
}

std::string isaFileText(const ExploreResult& r) {
  std::ostringstream os;
  os << "# Auto-generated by `mat2c explore` (src/dse): ISA design-space\n"
     << "# exploration over the " << r.scalarCycles.size()
     << "-kernel corpus. Do not edit; regenerate with\n"
     << "#   mat2c explore --emit-isa <this file>\n"
     << "# point:   " << r.best.point.label() << "\n"
     << "# scored:  geomean " << num(r.best.geomean, 2) << "x vs scalar at hw cost "
     << num(r.best.hwCost, 0) << " units\n"
     << "# dspx:    geomean " << num(r.dspxRef.geomean, 2) << "x at hw cost "
     << num(r.dspxRef.hwCost, 0) << " units (hand-written reference)\n";
  if (!r.candidates.empty()) {
    os << "# fused candidates mined but not expressible in this format\n"
       << "# (costed via the VM fused-instruction hook; see docs/dse.md):\n";
    for (const auto& c : r.candidates) {
      os << "#   " << c.name << "  cycles=" << num(c.cycles, 0)
         << "  est. saved cycles=" << num(c.estSavedCycles, 0) << "\n";
    }
  }
  os << r.bestIsa.serialize();
  return os.str();
}

std::string benchJson(const ExploreResult& r) {
  std::vector<report::SpeedupRow> rows;
  for (const auto& [name, cycles] : r.best.kernelCycles) {
    double baseline = r.scalarCycles.at(name);
    auto err = r.bestMaxAbsErr.find(name);
    rows.push_back({name, baseline, cycles, baseline / cycles,
                    err == r.bestMaxAbsErr.end() ? 0.0 : err->second, {}});
  }
  return report::speedupJson(
      "dse", {report::textField("isa", r.bestIsa.name()),
              report::textField("point", r.best.point.label())},
      rows,
      {report::numField("hw_cost", r.best.hwCost, 1),
       report::numField("points_evaluated", r.pointsEvaluated, 0),
       report::objectField("reference",
                           {report::textField("name", "dspx"),
                            report::numField("geomean_speedup", r.dspxRef.geomean, 4),
                            report::numField("hw_cost", r.dspxRef.hwCost, 1)})});
}

}  // namespace mat2c::dse
