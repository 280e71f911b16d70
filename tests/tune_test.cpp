// Pass-parameter autotuner (src/tune): the search must find the known wins
// on the recurrence kernels, stay inside its candidate/deadline budgets, and
// never accept a winner outside the interpreter-oracle error bound.
//
// Kernel sizes here are reduced from the benchmark corpus — the wins under
// test are structural (unroll-then-promote, fma reassociation), so they do
// not depend on the outer trip count and the suite stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "support/errors.hpp"
#include "tune/tune.hpp"

namespace mat2c {
namespace {

using tune::TuneInput;
using tune::TuneOptions;
using tune::TuneResult;

TuneInput inputFor(const kernels::KernelSpec& spec) {
  TuneInput input;
  input.source = spec.source;
  input.entry = spec.entry;
  input.argSpecs = spec.argSpecs;
  input.args = spec.args;
  return input;
}

const char* kSquareSource =
    "function y = sq(x)\n"
    "y = x .* x;\n"
    "end\n";

TuneInput squareInput() {
  TuneInput input;
  input.source = kSquareSource;
  input.entry = "sq";
  input.argSpecs = {sema::ArgSpec::row(32)};
  return input;
}

// ---- The wins the tuner exists to find -----------------------------------

TEST(Autotune, DeepIirWantsTripSixteen) {
  // 16 biquad sections sit past the default unrollMaxTrip of 8, so the stock
  // pipeline leaves the section loop rolled; raising the trip cap unrolls it
  // and lets LICM promote the state arrays. The tuner must find this within
  // the smoke budget via coordinate descent (the full grid does not fit).
  TuneOptions topt;
  topt.budget = 24;
  TuneResult r = tune::autotune(inputFor(kernels::makeIir16(512)), topt);

  EXPECT_FALSE(r.report.exhaustive);
  EXPECT_LT(r.report.tunedCycles, r.report.defaultCycles);
  EXPECT_GT(r.report.speedup, 1.5);
  EXPECT_EQ(r.report.best.effectiveUnrollMaxTrip(), 16);
  EXPECT_LE(r.report.bestMaxAbsErr, topt.maxAbsErr);
  // The cached artifact is the winner's compile, not the default's.
  EXPECT_LT(r.unit.run(inputFor(kernels::makeIir16(512)).args).cycles.total,
            r.report.defaultCycles);
}

TEST(Autotune, IirWinsViaReassociation) {
  // The 8-section cascade is already fully unrolled by the default pipeline;
  // the remaining headroom is the reassociating fma rewrite, which is opt-in
  // precisely because it changes rounding — the tuner admits it only under
  // the oracle bound.
  TuneResult r = tune::autotune(inputFor(kernels::makeIir(512)));

  EXPECT_LT(r.report.tunedCycles, r.report.defaultCycles);
  EXPECT_TRUE(r.report.best.reassoc);
  EXPECT_LE(r.report.bestMaxAbsErr, TuneOptions{}.maxAbsErr);
  EXPECT_GT(r.report.bestMaxAbsErr, 0.0) << "reassoc changes rounding";
}

TEST(Autotune, ZeroReassocBoundRejectsReassocWinners) {
  // Tightening the oracle bound to exactly zero disqualifies every
  // candidate whose rounding differs from the interpreter, so the reassoc
  // win on iir must vanish rather than slip through the gate.
  TuneOptions topt;
  topt.maxAbsErr = 0.0;
  TuneResult r = tune::autotune(inputFor(kernels::makeIir(512)), topt);

  EXPECT_FALSE(r.report.best.reassoc);
  EXPECT_EQ(r.report.bestMaxAbsErr, 0.0);
  for (const tune::TuneCandidate& c : r.report.candidates) {
    if (c.accepted) {
      EXPECT_TRUE(c.oracleOk) << c.signature;
    }
  }
}

TEST(Autotune, DefaultOptimalKernelKeepsTheDefaultConfiguration) {
  // Acceptance is strictly-better: on a kernel with no tuning headroom the
  // incumbent survives every sweep and the report says so (speedup 1.0,
  // winner == base), rather than drifting to an arbitrary tied candidate.
  TuneInput input = squareInput();
  TuneResult r = tune::autotune(input);

  EXPECT_EQ(r.report.tunedCycles, r.report.defaultCycles);
  EXPECT_EQ(r.report.speedup, 1.0);
  EXPECT_EQ(r.report.best.passSignature(), input.base.passSignature());
}

// ---- Speculative batches commit in search order ---------------------------

/// Every field of a committed candidate, one line (doubles as hex floats).
std::string describe(const tune::TuneCandidate& c) {
  char nums[96];
  std::snprintf(nums, sizeof nums, " cycles=%a err=%a", c.cycles, c.maxAbsErr);
  return c.signature + nums + " compiled=" + std::to_string(c.compiled) +
         " oracleOk=" + std::to_string(c.oracleOk) +
         " accepted=" + std::to_string(c.accepted) + " note=" + c.note;
}

std::vector<std::string> describeAll(const tune::TuneReport& r) {
  std::vector<std::string> out;
  for (const tune::TuneCandidate& c : r.candidates) out.push_back(describe(c));
  return out;
}

/// The passSignature() keys of the tuner's coordinates (the TUNE rows of
/// opt/passes.def).
std::set<std::string> tuneKeys() {
  std::set<std::string> keys;
#define TUNE(rank) [&](const char* key) { keys.insert(key); }
#define NO_TUNE(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, flag, wire, tune) tune(key);
#define MAT2C_PASS_TRIP(field, key, proposed, coder, flag, tune) tune(key);
#include "opt/passes.def"
  return keys;
}

/// passSignature() as key -> value ("style=proposed;licm=1;...").
std::map<std::string, std::string> signatureFields(const std::string& signature) {
  std::map<std::string, std::string> fields;
  std::istringstream in(signature);
  for (std::string item; std::getline(in, item, ';');) {
    auto eq = item.find('=');
    fields[item.substr(0, eq)] = eq == std::string::npos ? "" : item.substr(eq + 1);
  }
  return fields;
}

TEST(Autotune, CoordinateDescentCommitsOneCoordinateMovesInOrder) {
  // Candidates are scored ahead of their commit, each derived from the
  // incumbent of the moment the batch was formed. Committing one whose
  // incumbent was replaced in the meantime (an acceptance earlier in the
  // batch) would show as a candidate two coordinates away from the
  // incumbent, and a smaller budget would no longer see a prefix of the
  // same search.
  TuneInput input = inputFor(kernels::makeIir16(128));
  TuneOptions topt;
  topt.budget = 48;
  tune::TuneReport full = tune::autotune(input, topt).report;
  ASSERT_FALSE(full.exhaustive);

  const std::set<std::string> keys = tuneKeys();
  ASSERT_FALSE(full.candidates.empty());
  EXPECT_TRUE(full.candidates.front().accepted) << "the base is the first incumbent";
  std::string incumbent = full.candidates.front().signature;
  int acceptances = 0;
  for (std::size_t i = 1; i < full.candidates.size(); ++i) {
    const tune::TuneCandidate& c = full.candidates[i];
    auto was = signatureFields(incumbent), now = signatureFields(c.signature);
    std::vector<std::string> moved;
    for (const auto& [key, value] : now)
      if (was[key] != value) moved.push_back(key);
    ASSERT_EQ(moved.size(), 1u) << "candidate " << i << ": " << c.signature
                                << "\nincumbent: " << incumbent;
    EXPECT_TRUE(keys.count(moved[0])) << moved[0] << " is not a tuned coordinate";
    if (c.accepted) {
      incumbent = c.signature;
      ++acceptances;
    }
  }
  EXPECT_GE(acceptances, 1) << "no acceptance: nothing was speculated past";

  std::vector<std::string> expect = describeAll(full);
  for (int budget = 1; budget <= 22; ++budget) {
    topt.budget = budget;
    std::vector<std::string> got = describeAll(tune::autotune(input, topt).report);
    ASSERT_EQ(got.size(), std::min<std::size_t>(budget, expect.size())) << "budget " << budget;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], expect[i]) << "budget " << budget << ", candidate " << i;
  }
}

TEST(Autotune, RepeatedSearchesCommitTheSameCandidates) {
  // The batch's scores finish in any order; the commits must not.
  TuneInput input = inputFor(kernels::makeIir16(128));
  std::vector<std::string> first = describeAll(tune::autotune(input).report);
  ASSERT_FALSE(first.empty());
  for (int run = 1; run < 10; ++run)
    EXPECT_EQ(describeAll(tune::autotune(input).report), first) << "run " << run;
}

TEST(Autotune, VmRunsOncePerDistinctFunction) {
  // Of fir's 12 committed candidates, most compile to a function an
  // earlier candidate (or a speculative score) already ran.
  int tuned = 0;
  for (const auto& spec : kernels::tuneCorpus()) {
    if (spec.name != "fir") continue;
    tune::TuneReport r = tune::autotune(inputFor(spec)).report;
    EXPECT_EQ(r.candidatesTried, 12);
    EXPECT_EQ(r.vmRuns, 4);
    ++tuned;
  }
  EXPECT_EQ(tuned, 1);
}

// ---- Budgets and deadlines -----------------------------------------------

TEST(Autotune, SearchSpaceSizeCountsTheGrid) {
  // 5 trips x 2^7 toggles (vectorize, fuseLoops, licm, cse, deadStores,
  // checkElim, reassoc) — the documented grid.
  EXPECT_EQ(tune::searchSpaceSize(), 640);
}

TEST(Autotune, ClampedTripsCollapseToOneChoice) {
  // All out-of-range trips normalize through effectiveUnrollMaxTrip() — the
  // single clamp point shared with the pipeline and the cache key — so 0,
  // 1 and -5 are one "never unroll" configuration with one signature.
  CompileOptions zero, one, negative, huge;
  zero.unrollMaxTrip = 0;
  one.unrollMaxTrip = 1;
  negative.unrollMaxTrip = -5;
  huge.unrollMaxTrip = CompileOptions::kUnrollTripCap + 7;
  EXPECT_EQ(zero.effectiveUnrollMaxTrip(), 1);
  EXPECT_EQ(negative.effectiveUnrollMaxTrip(), 1);
  EXPECT_EQ(huge.effectiveUnrollMaxTrip(), CompileOptions::kUnrollTripCap);
  EXPECT_EQ(zero.passSignature(), one.passSignature());
  EXPECT_EQ(negative.passSignature(), one.passSignature());
}

TEST(Autotune, ExhaustiveFallbackWhenTheGridFitsTheBudget) {
  // A budget that covers the whole grid: the search enumerates it instead of
  // descending, and the base configuration is memo-pruned rather than
  // compiled twice.
  TuneOptions topt;
  topt.budget = tune::searchSpaceSize();

  TuneResult r = tune::autotune(squareInput(), topt);
  EXPECT_TRUE(r.report.exhaustive);
  EXPECT_FALSE(r.report.budgetExhausted);
  EXPECT_EQ(r.report.candidatesTried, 640);  // base + the 639 other grid points
  EXPECT_EQ(r.report.candidatesPruned, 1);   // the grid's revisit of the base
}

TEST(Autotune, CandidateBudgetIsAHardCap) {
  TuneOptions topt;
  topt.budget = 3;
  TuneResult r = tune::autotune(squareInput(), topt);

  EXPECT_FALSE(r.report.exhaustive) << "640-point grid cannot fit a budget of 3";
  EXPECT_LE(r.report.candidatesTried, 3);
  EXPECT_TRUE(r.report.budgetExhausted);
}

TEST(Autotune, TinyDeadlineKeepsBestSoFarOrTimesOut) {
  // Deadline semantics: expiry after the base was scored keeps the best
  // configuration found so far (here: the base itself); expiry before
  // anything was scored surfaces as a Timeout error — never a partial
  // result with no incumbent.
  TuneOptions topt;
  topt.wallBudgetMillis = 0.01;
  TuneInput input = squareInput();
  try {
    TuneResult r = tune::autotune(input, topt);
    EXPECT_TRUE(r.report.deadlineExpired);
    EXPECT_LE(r.report.candidatesTried, 2);
    EXPECT_EQ(r.report.best.passSignature(), input.base.passSignature());
  } catch (const StructuredError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::Timeout);
  }
}

TEST(Autotune, BrokenBaseConfigurationIsTheCallersError) {
  // A base that cannot compile leaves nothing to cache: structured error,
  // not a silent fall-through to some other configuration.
  TuneInput input = squareInput();
  input.entry = "nosuchfunction";
  EXPECT_THROW(tune::autotune(input), StructuredError);
}

// ---- Report plumbing ------------------------------------------------------

TEST(Autotune, ReportTableAndBenchJsonCarryTheWinners) {
  TuneOptions topt;
  topt.budget = 24;
  TuneResult r = tune::autotune(inputFor(kernels::makeIir16(512)), topt);
  r.report.kernel = "iir16";

  std::string table = tune::reportTable({r.report});
  EXPECT_NE(table.find("iir16"), std::string::npos);
  EXPECT_NE(table.find("unrollMaxTrip=16"), std::string::npos);
  EXPECT_NE(table.find("coord-descent"), std::string::npos);

  std::string json = tune::benchJson({r.report}, "dspx");
  EXPECT_NE(json.find("\"iir16\""), std::string::npos);
  EXPECT_NE(json.find("\"baseline_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"proposed_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"geomean_speedup\""), std::string::npos);
  EXPECT_NE(json.find("\"tuned\": \"unrollMaxTrip=16"), std::string::npos);
  // ISA names are user text (an .isa file's `name` line): quoted, not pasted.
  EXPECT_NE(tune::benchJson({r.report}, "q\"dsp").find("\"isa\": \"q\\\"dsp\""),
            std::string::npos);
}

TEST(Autotune, TuneCorpusContainsTheDeepIir) {
  // The tune corpus is the DSE corpus plus the deep IIR; kernelByName must
  // resolve the new kernel so `mat2c tune --kernels iir16` works.
  bool found = false;
  for (const auto& spec : kernels::tuneCorpus()) {
    if (spec.name == "iir16") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(kernels::kernelByName("iir16").entry, kernels::makeIir16().entry);
}

}  // namespace
}  // namespace mat2c
