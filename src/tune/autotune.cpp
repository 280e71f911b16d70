#include "tune/tune.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <type_traits>
#include <unordered_map>

#include "driver/report.hpp"
#include "lir/lir.hpp"
#include "support/limits.hpp"
#include "support/parallel.hpp"

namespace mat2c::tune {

namespace {

/// One searchable knob, an opt/passes.def row with a tune rank: its key,
/// the values it may take (each a mutation of a candidate CompileOptions),
/// and its value as optionsDelta() prints it.
struct Coordinate {
  int rank = 0;
  std::string name;
  std::vector<std::function<void(CompileOptions&)>> choices;
  std::function<int(const CompileOptions&)> value;
};

/// The unroll trip counts the tuner tries, ascending.
constexpr int kUnrollTrips[] = {1, 2, 4, 8, 16};

/// Every row of opt/passes.def with a tune rank, in rank order: a bool row
/// tries on then off, the trip row each of kUnrollTrips.
std::vector<Coordinate> makeCoordinates() {
  std::vector<Coordinate> coords;
  auto add = [&](int rank, const char* key, auto field) {
    Coordinate c{rank, key, {}, {}};
    if constexpr (std::is_same_v<decltype(field), bool CompileOptions::*>) {
      for (bool v : {true, false})
        c.choices.push_back([field, v](CompileOptions& o) { o.*field = v; });
      c.value = [field](const CompileOptions& o) { return o.*field ? 1 : 0; };
    } else {
      for (int t : kUnrollTrips)
        c.choices.push_back([field, t](CompileOptions& o) { o.*field = t; });
      c.value = [field](const CompileOptions& o) { return CompileOptions::clampTrip(o.*field); };
    }
    coords.push_back(std::move(c));
  };
#define TUNE(rank) [&](const char* key, auto field) { add(rank, key, field); }
#define NO_TUNE(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, flag, wire, tune) \
  tune(key, &CompileOptions::field);
#define MAT2C_PASS_TRIP(field, key, proposed, coder, flag, tune) \
  tune(key, &CompileOptions::field);
#include "opt/passes.def"
  std::stable_sort(coords.begin(), coords.end(),
                   [](const Coordinate& a, const Coordinate& b) { return a.rank < b.rank; });
  return coords;
}

/// Differences between the default and the tuned configuration over every
/// tuned row, e.g. "unrollMaxTrip=16 licm=0" ("(default)" when identical).
std::string optionsDelta(const CompileOptions& base, const CompileOptions& best) {
  std::string out;
  for (const Coordinate& c : makeCoordinates()) {
    if (c.value(base) == c.value(best)) continue;
    if (!out.empty()) out += ' ';
    out += c.name + "=" + std::to_string(c.value(best));
  }
  return out.empty() ? "(default)" : out;
}

/// Most positions one speculative batch scores: bounds the compiled units
/// alive at once on the exhaustive path (a coordinate sweep is smaller).
constexpr std::size_t kMaxBatch = 64;

/// What compiling and running one configuration produced, before the
/// oracle. Failures are kept as exceptions so that commit() classifies them
/// exactly where a sequential search would have thrown them. Without a
/// unit, the run of one distinct function (Search::runs_).
struct Score {
  std::optional<CompiledUnit> unit;
  std::exception_ptr compileError;
  std::exception_ptr runError;
  double cycles = std::numeric_limits<double>::infinity();
  std::vector<Matrix> outputs;
};

/// One search: the oracle reference, the signature memo, the incumbent, the
/// budget/deadline counters, and the batch of scores computed ahead of
/// their commit.
///
/// The search order is sequential; the work is not. Before the first
/// position whose score is missing, every fresh candidate from there to the
/// end of the coordinate sweep (or the next kMaxBatch grid points), each
/// derived from the current incumbent, is compiled in one fork-join, and
/// the VM runs in a second one, once per compiled function that no earlier
/// score ran (many configurations compile to the same LIR); the first
/// batch's VM fork-join also interprets the reference. Commits then walk the
/// positions in order. An acceptance changes the incumbent, so the batch's
/// candidates of later coordinates no longer match the positions they were
/// scored for: their signatures miss, and the first miss scores a new
/// batch. The rest of the same coordinate stays valid (its choices replace
/// the one coordinate the acceptance changed).
class Search {
 public:
  Search(const TuneInput& input, const TuneOptions& options)
      : input_(input), options_(options), guard_(options.wallBudgetMillis) {
    args_ = input.args.empty() ? makeTuneInputs(input.argSpecs, options.seed) : input.args;
  }

  TuneResult run() {
    // Score the starting configuration first, alone: it is the incumbent
    // every alternative must strictly beat, its failure is the caller's error
    // (nothing to cache), not a pruning decision, and its output count sizes
    // the reference interpretation the first batch runs.
    const CompileOptions& base = input_.base;
    best_ = base;
    Score baseScore = compile(base);
    runDistinct({&baseScore});
    std::size_t outs =
        baseScore.unit && !baseScore.runError ? baseScore.unit->fn().outs.size() : 0;
    scored_.emplace(base.passSignature(), std::move(baseScore));

    std::vector<Coordinate> coords = makeCoordinates();
    report_.exhaustive = searchSpaceSize() <= options_.budget;
    auto firstBatch = [&] {
      std::vector<CompileOptions> batch =
          report_.exhaustive ? gridFrom(coords, std::vector<std::size_t>(coords.size(), 0))
                             : sweepFrom(coords, 0);
      batch.insert(batch.begin(), base);
      return batch;
    };
    // A base that failed is committed (and thrown) at once; otherwise the
    // reference is interpreted beside the first batch.
    if (outs > 0) speculate(firstBatch(), outs);
    TuneCandidate baseCand = evaluate(base, firstBatch, /*isBase=*/true);
    if (!baseCand.compiled) {
      throw StructuredError(ErrorKind::PassError,
                            "autotune: default configuration failed to compile: " +
                                baseCand.note);
    }
    if (!baseCand.oracleOk) {
      throw StructuredError(ErrorKind::VerifyError,
                            "autotune: default configuration misses the oracle bound: " +
                                baseCand.note);
    }
    report_.defaultCycles = baseCand.cycles;

    if (report_.exhaustive) {
      exhaustive(coords);
    } else {
      coordinateDescent(coords);
    }

    report_.kernel = input_.entry;
    report_.isa = input_.base.isa.name();
    report_.tunedCycles = bestCycles_;
    report_.speedup = bestCycles_ > 0 ? report_.defaultCycles / bestCycles_ : 1.0;
    report_.best = best_;
    return TuneResult{std::move(report_), std::move(*bestUnit_)};
  }

 private:
  /// True when the search must stop (budget or deadline); records why.
  bool outOfBudget() {
    if (report_.candidatesTried >= options_.budget) {
      report_.budgetExhausted = true;
      return true;
    }
    if (guard_.active() && guard_.expired()) {
      report_.deadlineExpired = true;
      return true;
    }
    return false;
  }

  /// Compiles one configuration on a Compiler of its own. Reads no search
  /// state that a commit writes, so the compiles of one batch run in
  /// parallel.
  Score compile(const CompileOptions& candOptions) const {
    Score s;
    CompileOptions attempt = candOptions;
    // Map the remaining search deadline onto the compile's own wall budget
    // (tighter wins), the same way the serving layer maps request deadlines.
    if (guard_.active()) {
      double remaining = std::max(guard_.remainingMillis(), 1.0);
      if (attempt.limits.wallBudgetMillis <= 0 ||
          attempt.limits.wallBudgetMillis > remaining) {
        attempt.limits.wallBudgetMillis = remaining;
      }
    }
    try {
      s.unit = Compiler().compileSource(input_.source, input_.entry, input_.argSpecs, attempt);
    } catch (...) {
      s.compileError = std::current_exception();
    }
    return s;
  }

  /// What tells two compiled functions' runs apart: the unit's ISA (the
  /// degradation ladder may strip features from the requested one) and the
  /// printed LIR.
  static std::string runKey(const CompiledUnit& unit) {
    return std::to_string(unit.isa().fingerprint()) + "\n" + lir::print(unit.fn());
  }

  /// Runs `unit` on a Machine of its own into `run`.
  void measure(const CompiledUnit& unit, Score& run) const {
    try {
      vm::RunResult result = unit.run(args_);
      run.cycles = result.cycles.total;
      run.outputs = std::move(result.outputs);
    } catch (...) {
      run.runError = std::current_exception();
    }
  }

  /// Gives each compiled score of `scores` the VM run of its function, in
  /// one fork-join that runs each function no earlier score ran, once. With
  /// `referenceOuts` > 0 the reference interpretation is job 0, claimed
  /// first: it is the longest job.
  void runDistinct(const std::vector<Score*>& scores, std::size_t referenceOuts = 0) {
    std::vector<std::pair<Score*, const Score*>> takes;
    std::vector<std::pair<const CompiledUnit*, Score*>> fresh;
    for (Score* s : scores) {
      if (!s->unit) continue;
      auto [it, isNew] = runs_.try_emplace(runKey(*s->unit));
      if (isNew) fresh.emplace_back(&*s->unit, &it->second);
      takes.emplace_back(s, &it->second);
    }
    std::size_t first = referenceOuts > 0 ? 1 : 0;
    forEachIndex(first + fresh.size(), [&](std::size_t i) {
      if (i >= first) {
        measure(*fresh[i - first].first, *fresh[i - first].second);
        return;
      }
      try {
        reference_ = interpretReference(input_.source, input_.entry, args_, referenceOuts);
      } catch (...) {
        referenceError_ = std::current_exception();
      }
    });
    report_.vmRuns += static_cast<int>(fresh.size());
    for (auto [s, run] : takes) {
      s->cycles = run->cycles;
      s->outputs = run->outputs;
      s->runError = run->runError;
    }
  }

  /// Scores each configuration of `batch` that neither the memo nor the
  /// current batch holds, as many positions as the budget has left
  /// (kMaxBatch at most): compiles them in one fork-join, then runs them
  /// with runDistinct(), beside the reference interpretation when
  /// `referenceOuts` > 0. Scores the new batch does not list are stale and
  /// dropped.
  void speculate(const std::vector<CompileOptions>& batch, std::size_t referenceOuts = 0) {
    std::size_t room = std::min<std::size_t>(
        kMaxBatch, std::max(1, options_.budget - report_.candidatesTried));
    std::unordered_map<std::string, Score> next;
    std::vector<const CompileOptions*> options;
    std::vector<Score*> fresh;
    for (const CompileOptions& o : batch) {
      std::string sig = o.passSignature();
      if (memo_.count(sig) || next.count(sig)) continue;
      if (next.size() == room) break;
      auto old = scored_.find(sig);
      bool have = old != scored_.end();
      Score& slot = next.emplace(sig, have ? std::move(old->second) : Score{}).first->second;
      if (have) continue;
      options.push_back(&o);
      fresh.push_back(&slot);
    }
    forEachIndex(fresh.size(), [&](std::size_t i) { *fresh[i] = compile(*options[i]); });
    runDistinct(fresh, referenceOuts);
    scored_ = std::move(next);
  }

  /// The search's next position: memoized signatures are pruned; any other
  /// is committed with its batch score, after scoring `upcoming()` (this
  /// position and the ones after it) when the batch lacks it.
  template <class Upcoming>
  TuneCandidate evaluate(const CompileOptions& candOptions, const Upcoming& upcoming,
                         bool isBase = false) {
    std::string signature = candOptions.passSignature();
    if (auto it = memo_.find(signature); it != memo_.end()) {
      ++report_.candidatesPruned;
      return it->second;
    }
    auto it = scored_.find(signature);
    if (it == scored_.end()) {
      speculate(upcoming());
      it = scored_.find(signature);
    }
    Score s = std::move(it->second);
    scored_.erase(it);
    return commit(candOptions, std::move(signature), std::move(s), isBase);
  }

  /// Judges one score in search order: the oracle against the reference,
  /// then strictly-better acceptance against the incumbent; memoizes and
  /// reports the outcome.
  TuneCandidate commit(const CompileOptions& candOptions, std::string signature, Score s,
                       bool isBase) {
    TuneCandidate cand;
    cand.signature = std::move(signature);
    ++report_.candidatesTried;
    try {
      if (s.compileError) std::rethrow_exception(s.compileError);
      cand.compiled = true;
    } catch (const StructuredError& e) {
      if (isBase && e.kind() == ErrorKind::Timeout) throw;  // nothing scored yet
      cand.note = std::string("compile failed: ") + e.what();
    }
    if (cand.compiled) {
      try {
        if (s.runError) std::rethrow_exception(s.runError);
        cand.cycles = s.cycles;
        if (referenceError_) std::rethrow_exception(referenceError_);
        cand.maxAbsErr = compareToReference(reference_, s.outputs);
        cand.oracleOk = cand.maxAbsErr <= options_.maxAbsErr;
        if (!cand.oracleOk) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "oracle: max |err| %.3e exceeds bound %.1e",
                        cand.maxAbsErr, options_.maxAbsErr);
          cand.note = buf;
        }
      } catch (const StructuredError& e) {
        if (isBase && e.kind() == ErrorKind::Timeout) throw;
        cand.note = std::string("vm run failed: ") + e.what();
      } catch (const RuntimeError& e) {
        cand.note = std::string("vm run failed: ") + e.what();
      }
    }

    // Strictly-better acceptance: ties keep the incumbent (the earlier, more
    // default-like configuration), so the winner is deterministic.
    if (cand.compiled && cand.oracleOk && cand.cycles < bestCycles_) {
      cand.accepted = true;
      bestCycles_ = cand.cycles;
      best_ = candOptions;
      bestUnit_ = std::move(s.unit);
      report_.bestMaxAbsErr = cand.maxAbsErr;
    }
    memo_.emplace(cand.signature, cand);
    report_.candidates.push_back(cand);
    return cand;
  }

  /// Every candidate of the sweep from coordinate `c` on, each derived from
  /// the current incumbent, in commit order.
  std::vector<CompileOptions> sweepFrom(const std::vector<Coordinate>& coords,
                                        std::size_t c) const {
    std::vector<CompileOptions> out;
    for (; c < coords.size(); ++c) {
      for (const auto& apply : coords[c].choices) {
        out.push_back(best_);
        apply(out.back());
      }
    }
    return out;
  }

  void coordinateDescent(const std::vector<Coordinate>& coords) {
    bool improved = true;
    while (improved && !outOfBudget()) {
      improved = false;
      for (std::size_t c = 0; c < coords.size(); ++c) {
        for (const auto& apply : coords[c].choices) {
          if (outOfBudget()) return;
          CompileOptions cand = best_;
          apply(cand);
          double before = bestCycles_;
          evaluate(cand, [&] { return sweepFrom(coords, c); });
          if (bestCycles_ < before) improved = true;
        }
      }
    }
  }

  /// The grid point the odometer `idx` names.
  CompileOptions gridPoint(const std::vector<Coordinate>& coords,
                           const std::vector<std::size_t>& idx) const {
    CompileOptions cand = input_.base;
    for (std::size_t i = 0; i < coords.size(); ++i) coords[i].choices[idx[i]](cand);
    return cand;
  }

  /// Advances the odometer; false once it wraps (the space is fully listed).
  static bool advance(const std::vector<Coordinate>& coords, std::vector<std::size_t>& idx) {
    for (std::size_t i = 0; i < coords.size(); ++i) {
      if (++idx[i] < coords[i].choices.size()) return true;
      idx[i] = 0;
    }
    return false;
  }

  /// The next kMaxBatch grid points in odometer order, from `idx` on.
  std::vector<CompileOptions> gridFrom(const std::vector<Coordinate>& coords,
                                       std::vector<std::size_t> idx) const {
    std::vector<CompileOptions> out;
    do {
      out.push_back(gridPoint(coords, idx));
    } while (out.size() < kMaxBatch && advance(coords, idx));
    return out;
  }

  void exhaustive(const std::vector<Coordinate>& coords) {
    // Odometer over the cross product; the all-defaults combination is
    // memo-pruned (the base already scored it).
    std::vector<std::size_t> idx(coords.size(), 0);
    do {
      if (outOfBudget()) return;
      evaluate(gridPoint(coords, idx), [&] { return gridFrom(coords, idx); });
    } while (advance(coords, idx));
  }

  const TuneInput& input_;
  const TuneOptions& options_;
  DeadlineGuard guard_;
  std::vector<Matrix> args_;
  std::vector<Matrix> reference_;      ///< interpreter outputs, computed in the first batch
  std::exception_ptr referenceError_;  ///< what that interpretation threw instead

  std::unordered_map<std::string, TuneCandidate> memo_;
  std::unordered_map<std::string, Score> scored_;  ///< the current batch, by signature
  std::unordered_map<std::string, Score> runs_;    ///< every VM run, by runKey()
  TuneReport report_;
  CompileOptions best_;
  double bestCycles_ = std::numeric_limits<double>::infinity();
  std::optional<CompiledUnit> bestUnit_;
};

}  // namespace

int searchSpaceSize() {
  int size = 1;
  for (const Coordinate& c : makeCoordinates()) {
    size *= static_cast<int>(c.choices.size());
  }
  return size;
}

std::vector<Matrix> makeTuneInputs(const std::vector<sema::ArgSpec>& specs, unsigned seed) {
  kernels::InputGen gen(seed);
  std::vector<Matrix> out;
  out.reserve(specs.size());
  for (const auto& spec : specs) {
    const sema::Shape& s = spec.type.shape;
    auto rows = s.rows.extent();
    auto cols = s.cols.extent();
    if (spec.type.elem == sema::Elem::Complex) {
      Matrix m = Matrix::zeros(static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols), true);
      for (std::size_t i = 0; i < m.numel(); ++i) m.set(i, Complex{gen.next(), gen.next()});
      out.push_back(std::move(m));
    } else {
      out.push_back(gen.matrix(rows, cols));
    }
  }
  return out;
}

TuneResult autotune(const TuneInput& input, const TuneOptions& options) {
  return Search(input, options).run();
}

std::string reportTable(const std::vector<TuneReport>& reports) {
  report::Table table({"kernel", "default cycles", "tuned cycles", "speedup", "max |err|",
                       "tried", "pruned", "search", "tuned options"});
  for (const TuneReport& r : reports) {
    std::string search = r.exhaustive ? "exhaustive" : "coord-descent";
    if (r.budgetExhausted) search += " (budget)";
    if (r.deadlineExpired) search += " (deadline)";
    table.addRow({r.kernel, report::Table::cycles(r.defaultCycles),
                  report::Table::cycles(r.tunedCycles),
                  report::Table::num(r.speedup, 3) + "x",
                  report::Table::num(r.bestMaxAbsErr, 12),
                  std::to_string(r.candidatesTried), std::to_string(r.candidatesPruned),
                  // The delta compares pass knobs only, so the default-
                  // constructed options work for any ISA (presets may not
                  // exist for custom .isa targets).
                  search, optionsDelta(CompileOptions{}, r.best)});
  }
  return table.toString();
}

std::string benchJson(const std::vector<TuneReport>& reports, const std::string& isaName) {
  // Sorted by kernel for byte-stable diffs against the checked-in baseline.
  std::map<std::string, const TuneReport*> byName;
  for (const TuneReport& r : reports) byName[r.kernel] = &r;

  std::vector<report::SpeedupRow> rows;
  for (const auto& [name, r] : byName) {
    rows.push_back({name, r->defaultCycles, r->tunedCycles, r->speedup, r->bestMaxAbsErr,
                    {report::numField("candidates", r->candidatesTried, 0),
                     report::textField("tuned", optionsDelta(CompileOptions{}, r->best))}});
  }
  return report::speedupJson("tuned", {report::textField("isa", isaName)}, rows);
}

}  // namespace mat2c::tune
