// DSE subsystem tests (src/dse): idiom mining, candidate synthesis, the
// fused-costing exactness contract with the VM, and a small end-to-end
// exploration with oracle-checked emission. Labeled `dse` (ctest -L dse).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "dse/dse.hpp"

namespace mat2c::dse {
namespace {

CompiledUnit compileKernel(const kernels::KernelSpec& spec, const isa::IsaDescription& isa) {
  CompileOptions opts;
  opts.isa = isa;
  return Compiler().compileSource(spec.source, spec.entry, spec.argSpecs, opts);
}

/// Compiles `spec` for `point`, runs it once with a statement profile, and
/// returns (unit, run result, mined instances). The unit must outlive the
/// instances — their node pointers refer into its LIR.
struct MinedKernel {
  CompiledUnit unit;
  vm::RunResult run;
  std::vector<IdiomInstance> instances;
};

MinedKernel mineKernel(const kernels::KernelSpec& spec, const DesignPoint& point) {
  MinedKernel mk{compileKernel(spec, toIsa(point, "dse_test")), {}, {}};
  vm::StmtProfile profile;
  vm::Machine machine(mk.unit.isa());
  machine.setProfile(&profile);
  mk.run = machine.run(mk.unit.fn(), spec.args);
  mk.instances = mineFunction(mk.unit.fn(), profile);
  return mk;
}

/// Widest featureless point — the configuration explore() mines on, where
/// mul->add and conj->mul chains are still unfused in the LIR.
DesignPoint featurelessW8() {
  DesignPoint p;
  p.lanesF64 = 8;
  p.lanesC64 = 4;
  p.zol = p.agu = true;
  return p;
}

TEST(DseMine, FirYieldsMulAddChains) {
  auto spec = kernels::makeFir(256, 16, 1);
  auto mk = mineKernel(spec, featurelessW8());
  ASSERT_FALSE(mk.instances.empty());
  bool sawMulAdd = false;
  for (const auto& inst : mk.instances) {
    EXPECT_GE(inst.ops.size(), 2u);
    EXPECT_LE(inst.ops.size(), 4u);
    EXPECT_GT(inst.dynCount, 0.0);
    EXPECT_EQ(inst.nodes.size() + (inst.store ? 1u : 0u), inst.ops.size());
    if (inst.signature.find("mul") != std::string::npos &&
        inst.signature.find("add") != std::string::npos)
      sawMulAdd = true;
  }
  // The FIR inner product is a mul->add reduction; with no fma feature the
  // chain is unfused in the LIR and the miner must surface it.
  EXPECT_TRUE(sawMulAdd);
}

TEST(DseMine, AggregationDedupsByHashAndSumsDynCounts) {
  auto fir = mineKernel(kernels::makeFir(256, 16, 1), featurelessW8());
  auto cdot = mineKernel(kernels::makeCdot(512, 4), featurelessW8());
  auto idioms = aggregateIdioms({fir.instances, cdot.instances});
  ASSERT_FALSE(idioms.empty());
  // Sorted by descending dynamic count, unique hashes.
  for (std::size_t i = 1; i < idioms.size(); ++i) {
    EXPECT_GE(idioms[i - 1].dynCount, idioms[i].dynCount);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(idioms[i].hash, idioms[j].hash);
  }
  // Aggregate dynCount conservation: per-idiom sums equal instance sums.
  double instanceTotal = 0.0;
  for (const auto& inst : fir.instances) instanceTotal += inst.dynCount;
  for (const auto& inst : cdot.instances) instanceTotal += inst.dynCount;
  double idiomTotal = 0.0;
  for (const auto& idiom : idioms) {
    idiomTotal += idiom.dynCount;
    EXPECT_GE(idiom.kernels, 1);
    EXPECT_LE(idiom.kernels, 2);
  }
  EXPECT_DOUBLE_EQ(idiomTotal, instanceTotal);
}

TEST(DseCandidates, CostModelSanity) {
  auto fir = mineKernel(kernels::makeFir(256, 16, 1), featurelessW8());
  auto idioms = aggregateIdioms({fir.instances});
  auto costRef = toIsa(featurelessW8(), "dse_costref");
  auto candidates = synthesizeCandidates(idioms, costRef, 4);
  ASSERT_FALSE(candidates.empty());
  EXPECT_LE(candidates.size(), 4u);
  for (const auto& c : candidates) {
    double sum = 0.0, maxMember = 0.0;
    for (isa::Op op : c.ops) {
      sum += costRef.cost(op);
      maxMember = std::max(maxMember, costRef.cost(op));
    }
    // Dual-issue fusion: never faster than the slowest member or half the
    // serial cost, and strictly profitable (else it would not be a candidate).
    EXPECT_GE(c.cycles, maxMember);
    EXPECT_GE(c.cycles, std::ceil(sum / 2.0) - 1e-9);
    EXPECT_LT(c.cycles, sum);
    EXPECT_DOUBLE_EQ(c.latency, sum);
    EXPECT_GT(c.hwUnits, 0.0);
    EXPECT_GT(c.estSavedCycles, 0.0);
  }
  // Ranked most-profitable-first.
  for (std::size_t i = 1; i < candidates.size(); ++i)
    EXPECT_GE(candidates[i - 1].estSavedCycles, candidates[i].estSavedCycles);
}

TEST(DseCandidates, HwCostCalibration) {
  // The scale is calibrated so the paper's hand-written dspx lands at 70 and
  // scalar is an order of magnitude cheaper; exploration compares against
  // these anchors.
  EXPECT_DOUBLE_EQ(hwCostEstimate(isa::IsaDescription::preset("dspx")), 70.0);
  EXPECT_LT(hwCostEstimate(isa::IsaDescription::preset("scalar")), 20.0);
  EXPECT_GT(hwCostEstimate(isa::IsaDescription::preset("dspx_w16")),
            hwCostEstimate(isa::IsaDescription::preset("dspx")));
}

TEST(DseTile, AnalyticSavingMatchesVmMeasurement) {
  // The exactness contract behind analytic rescoring: on every corpus
  // kernel, the saving tileFused() predicts from the kernel's own best
  // candidates equals what the VM measures when the same tiling is
  // installed via the FusedCosting hook.
  auto variant = toIsa(featurelessW8(), "dse_variant");
  for (const auto& spec : kernels::dseCorpus()) {
    SCOPED_TRACE(spec.name);
    auto mk = mineKernel(spec, featurelessW8());
    auto candidates = synthesizeCandidates(aggregateIdioms({mk.instances}), variant, 2);
    ASSERT_FALSE(candidates.empty());
    std::vector<int> selection;
    for (int i = 0; i < static_cast<int>(candidates.size()); ++i) selection.push_back(i);

    vm::FusedCosting costing;
    double analytic = tileFused(mk.instances, candidates, selection, variant, &costing);
    ASSERT_GT(analytic, 0.0);
    ASSERT_FALSE(costing.roots.empty());

    vm::Machine machine(mk.unit.isa());
    machine.setFusedCosting(&costing);
    auto fusedRun = machine.run(mk.unit.fn(), spec.args);
    EXPECT_DOUBLE_EQ(fusedRun.cycles.fusedSavedCycles, analytic);
    EXPECT_DOUBLE_EQ(fusedRun.cycles.total, mk.run.cycles.total - analytic);
    EXPECT_GT(fusedRun.cycles.fusedOpsExecuted, 0u);
    // Costing is observational only — outputs must be bit-identical.
    ASSERT_EQ(fusedRun.outputs.size(), mk.run.outputs.size());
    for (std::size_t i = 0; i < fusedRun.outputs.size(); ++i) {
      ASSERT_EQ(fusedRun.outputs[i].numel(), mk.run.outputs[i].numel());
      for (std::size_t j = 0; j < fusedRun.outputs[i].numel(); ++j)
        EXPECT_EQ(fusedRun.outputs[i].at(j), mk.run.outputs[i].at(j));
    }
  }
}

TEST(DseTile, EmptySelectionSavesNothing) {
  auto mk = mineKernel(kernels::makeFir(256, 16, 1), featurelessW8());
  auto variant = toIsa(featurelessW8(), "dse_variant");
  EXPECT_DOUBLE_EQ(tileFused(mk.instances, {}, {}, variant), 0.0);
}

/// A two-kernel, two-width exploration that runs in well under a second.
ExploreOptions smallCorpusOptions() {
  ExploreOptions opts;
  opts.corpus = {kernels::makeFir(256, 16, 1), kernels::makeCdot(512, 4)};
  opts.laneWidths = {2, 8};
  opts.topCandidates = 2;
  return opts;
}

TEST(DseExplore, SmallCorpusEndToEnd) {
  ExploreOptions opts = smallCorpusOptions();
  auto r = explore(opts);

  EXPECT_FALSE(r.idioms.empty());
  EXPECT_GT(r.pointsEvaluated, 0);

  // Pareto frontier: ascending hardware cost, strictly increasing geomean.
  ASSERT_GE(r.pareto.size(), 2u);
  for (std::size_t i = 1; i < r.pareto.size(); ++i) {
    EXPECT_GE(r.pareto[i].hwCost, r.pareto[i - 1].hwCost);
    EXPECT_GT(r.pareto[i].geomean, r.pareto[i - 1].geomean);
  }

  // The emitted winner: expressible, within dspx's hardware budget, at least
  // as fast (the dspx-equivalent point is in the enumeration, so this is
  // guaranteed, not luck), and VM-confirmed.
  EXPECT_TRUE(r.best.expressible);
  EXPECT_TRUE(r.best.measured);
  EXPECT_LE(r.best.hwCost, r.dspxRef.hwCost + 1e-9);
  EXPECT_GE(r.best.geomean, r.dspxRef.geomean - 1e-9);
  for (const auto& [name, err] : r.bestMaxAbsErr) EXPECT_LE(err, 1e-9) << name;

  // Emission: the .isa file text (comment header included) parses back to a
  // description with the winner's fingerprint.
  DiagnosticEngine diags;
  auto reloaded = isa::IsaDescription::parse(isaFileText(r), diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderAll();
  EXPECT_EQ(reloaded.fingerprint(), r.bestIsa.fingerprint());

  // The reloaded description drives a fresh compile whose cycle counts match
  // the recorded winner.
  for (const auto& spec : opts.corpus) {
    auto unit = compileKernel(spec, reloaded);
    vm::Machine machine(unit.isa());
    auto run = machine.run(unit.fn(), spec.args);
    EXPECT_DOUBLE_EQ(run.cycles.total, r.best.kernelCycles.at(spec.name)) << spec.name;
  }

  // The bench document carries the gate's quality bar.
  std::string json = benchJson(r);
  EXPECT_NE(json.find("\"reference\""), std::string::npos);
  EXPECT_NE(json.find("\"dspx\""), std::string::npos);
  EXPECT_NE(json.find("\"geomean_speedup\""), std::string::npos);
}

TEST(DseExplore, FirstFailingJobInCorpusOrderIsRethrown) {
  // A valid kernel, then two that fail in sema with different messages. The
  // measurements run in parallel, but the error must be the first failing
  // kernel's, as in a sequential loop. bad_a fails only after a long prefix
  // of statements and bad_b at once, so on a multi-core host bad_b's jobs
  // fail first in time.
  auto failing = [](const std::string& name, const std::string& callee, int prefix) {
    kernels::KernelSpec spec = kernels::makeFir(64, 4, 1);
    spec.name = name;
    spec.source = "function y = fir(x, h)\n";
    for (int i = 0; i < prefix; ++i) spec.source += "y = x + " + std::to_string(i) + ";\n";
    spec.source += "y = " + callee + "(x, h);\nend\n";
    return spec;
  };
  ExploreOptions opts = smallCorpusOptions();
  opts.corpus = {kernels::makeFir(64, 4, 1), failing("bad_a", "no_such_builtin_a", 5000),
                 failing("bad_b", "no_such_builtin_b", 0)};
  std::string expected;
  try {
    compileKernel(opts.corpus[1], isa::IsaDescription::preset("scalar"));
  } catch (const std::exception& e) {
    expected = e.what();
  }
  ASSERT_NE(expected.find("no_such_builtin_a"), std::string::npos) << expected;
  for (int i = 0; i < 20; ++i) {
    try {
      explore(opts);
      ADD_FAILURE() << "explore accepted a corpus that does not compile";
    } catch (const std::exception& e) {
      EXPECT_EQ(e.what(), expected) << "run " << i;
    }
  }
}

/// The fir kernel with its body replaced by `prefix` dead statements and
/// then `tail`.
kernels::KernelSpec firWithBody(const std::string& name, int prefix, const std::string& tail) {
  kernels::KernelSpec spec = kernels::makeFir(64, 4, 1);
  spec.name = name;
  spec.source = "function y = fir(x, h)\n";
  for (int i = 0; i < prefix; ++i) spec.source += "t = x + " + std::to_string(i) + ";\n";
  spec.source += tail + "\nend\n";
  return spec;
}

/// Loads x(100) of a 64-element x: compiles, then fails in the VM.
kernels::KernelSpec vmFailing(int prefix) {
  return firWithBody("bad_vm", prefix, "y = x(100 + 0 * x(1));");
}

/// Calls an unknown function: fails to compile.
kernels::KernelSpec compileFailing() {
  return firWithBody("bad_compile", 0, "y = no_such_builtin(x, h);");
}

/// What `f` throws, as text.
template <class F>
std::string errorOf(const F& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(DseExplore, EarlierVmFailureBeatsLaterCompileFailure) {
  // The VM-failing kernel's jobs come first, and a long prefix of dead
  // statements makes them slow to compile; the later kernel fails to
  // compile at once.
  ExploreOptions opts = smallCorpusOptions();
  opts.corpus = {kernels::makeFir(64, 4, 1), vmFailing(2000), compileFailing()};
  std::string expected = errorOf([&] {
    auto unit = compileKernel(opts.corpus[1], isa::IsaDescription::preset("scalar"));
    unit.run(opts.corpus[1].args);
  });
  ASSERT_NE(expected.find("out of bounds"), std::string::npos) << expected;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(errorOf([&] { explore(opts); }), expected) << "run " << i;
}

TEST(DseExplore, VmRunsOncePerDistinctFunction) {
  // 4 widths x 6 feature sets x 9 kernels = 216 structural compiles, which
  // come out as 67 distinct functions: e.g. a real-only kernel compiles
  // the same with cmul/cmac on or off.
  ExploreResult r = explore();
  EXPECT_EQ(r.structuralVmRuns, 67);
}

/// A copy of `fn`: units of different ISAs over the same LIR.
std::shared_ptr<lir::Function> copyOf(const lir::Function& fn) {
  auto out = std::make_shared<lir::Function>();
  out->name = fn.name;
  out->params = fn.params;
  out->outs = fn.outs;
  out->arrays = fn.arrays;
  for (const auto& s : fn.body) out->body.push_back(s->clone());
  return out;
}

KernelEval jobOf(const kernels::KernelSpec& spec, CompiledUnit unit) {
  KernelEval job;
  job.spec = &spec;
  job.unit = std::make_shared<const CompiledUnit>(std::move(unit));
  return job;
}

TEST(DseMeasure, DuplicatesShareTheFirstRun) {
  kernels::KernelSpec spec = kernels::makeCdot(512, 4);
  CompiledUnit unit = compileKernel(spec, isa::IsaDescription::preset("dspx"));
  isa::IsaDescription renamed = unit.isa();
  renamed.setName("dspx_copy");
  std::vector<KernelEval> jobs;
  jobs.push_back(jobOf(spec, unit));
  jobs.push_back(jobOf(spec, CompiledUnit(copyOf(unit.fn()), renamed, {})));
  EXPECT_EQ(measureDistinct(jobs), 1);
  EXPECT_EQ(jobs[1].unit, jobs[0].unit);
  EXPECT_EQ(jobs[1].countByOp, jobs[0].countByOp);
  EXPECT_EQ(jobs[1].instances.size(), jobs[0].instances.size());
  EXPECT_EQ(jobs[0].countByOp, unit.run(spec.args).cycles.countByOp);
}

TEST(DseMeasure, DuplicateWhoseIsaCannotCostAnIssuedOpStillThrows) {
  // The same LIR on the scalar preset, which has no vector ops: reusing
  // the dspx run would hide the error its own VM run raises.
  kernels::KernelSpec spec = kernels::makeCdot(512, 4);
  CompiledUnit unit = compileKernel(spec, isa::IsaDescription::preset("dspx"));
  CompiledUnit scalar(copyOf(unit.fn()), isa::IsaDescription::preset("scalar"), {});
  std::string expected = errorOf([&] { scalar.run(spec.args); });
  ASSERT_NE(expected.find("unsupported op"), std::string::npos) << expected;
  std::vector<KernelEval> jobs;
  jobs.push_back(jobOf(spec, unit));
  jobs.push_back(jobOf(spec, scalar));
  EXPECT_EQ(errorOf([&] { measureDistinct(jobs); }), expected);
  EXPECT_FALSE(jobs[0].error);
  EXPECT_TRUE(jobs[1].error);
}

TEST(DseMeasure, EarlierVmFailureBeatsLaterCompileFailure) {
  kernels::KernelSpec bad = vmFailing(0), unknown = compileFailing();
  const auto scalar = isa::IsaDescription::preset("scalar");
  std::string vmError = errorOf([&] { compileKernel(bad, scalar).run(bad.args); });
  std::string compileError = errorOf([&] { compileKernel(unknown, scalar); });
  ASSERT_NE(vmError.find("out of bounds"), std::string::npos) << vmError;
  ASSERT_NE(compileError.find("no_such_builtin"), std::string::npos) << compileError;
  auto failedCompile = [&] {
    KernelEval job;
    job.spec = &unknown;
    try {
      compileKernel(unknown, scalar);
    } catch (...) {
      job.error = std::current_exception();
    }
    return job;
  };
  std::vector<KernelEval> jobs;
  jobs.push_back(jobOf(bad, compileKernel(bad, scalar)));
  jobs.push_back(failedCompile());
  EXPECT_EQ(errorOf([&] { measureDistinct(jobs); }), vmError);
  std::swap(jobs[0], jobs[1]);
  jobs[1].error = nullptr;
  EXPECT_EQ(errorOf([&] { measureDistinct(jobs); }), compileError);
}

TEST(DseExplore, RepeatedRunsAreIdentical) {
  auto first = explore(smallCorpusOptions());
  auto second = explore(smallCorpusOptions());
  ASSERT_EQ(first.pareto.size(), second.pareto.size());
  for (std::size_t i = 0; i < first.pareto.size(); ++i) {
    EXPECT_EQ(first.pareto[i].point.label(), second.pareto[i].point.label()) << i;
    EXPECT_EQ(first.pareto[i].hwCost, second.pareto[i].hwCost) << i;
    EXPECT_EQ(first.pareto[i].geomean, second.pareto[i].geomean) << i;
  }
  EXPECT_EQ(first.best.kernelCycles, second.best.kernelCycles);
  ASSERT_EQ(first.idioms.size(), second.idioms.size());
  for (std::size_t i = 0; i < first.idioms.size(); ++i) {
    EXPECT_EQ(first.idioms[i].signature, second.idioms[i].signature) << i;
    EXPECT_EQ(first.idioms[i].dynCount, second.idioms[i].dynCount) << i;
  }
  ASSERT_EQ(first.candidates.size(), second.candidates.size());
  for (std::size_t i = 0; i < first.candidates.size(); ++i) {
    EXPECT_EQ(first.candidates[i].name, second.candidates[i].name) << i;
    EXPECT_EQ(first.candidates[i].signature, second.candidates[i].signature) << i;
    EXPECT_EQ(first.candidates[i].estSavedCycles, second.candidates[i].estSavedCycles) << i;
  }
}

TEST(DseExplore, DefaultCorpusIsNineKernels) {
  // An empty ExploreOptions::corpus means "use the default"; the fallback
  // must exist and carry the nine oracle-checked kernels.
  auto corpus = kernels::dseCorpus();
  EXPECT_EQ(corpus.size(), 9u);
  for (const auto& spec : corpus) EXPECT_FALSE(spec.source.empty());
}

TEST(DseDesignPoint, LabelAndIsaMaterialization) {
  DesignPoint p;
  p.lanesF64 = 8;
  p.lanesC64 = 4;
  p.memLanes = 16;
  p.fma = p.cmul = p.cmac = true;
  p.zol = p.agu = true;
  EXPECT_EQ(p.label(), "w8 fma+cmul+cmac zol+agu m16");
  auto d = toIsa(p, "auto_x");
  EXPECT_EQ(d.name(), "auto_x");
  EXPECT_EQ(d.lanesF64(), 8);
  EXPECT_EQ(d.lanesC64(), 4);
  EXPECT_EQ(d.memLanes(), 16);
  EXPECT_TRUE(d.hasFma());
  EXPECT_TRUE(d.hasCmac());
  EXPECT_TRUE(d.hasZol());
  EXPECT_TRUE(d.hasAgu());
}

}  // namespace
}  // namespace mat2c::dse
