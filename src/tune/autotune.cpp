#include "tune/tune.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <type_traits>
#include <unordered_map>

#include "driver/report.hpp"
#include "support/limits.hpp"

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

/// Shared state of one search: the oracle reference, the signature memo,
/// the incumbent, and the budget/deadline counters.
class Search {
 public:
  Search(const TuneInput& input, const TuneOptions& options)
      : input_(input), options_(options), guard_(options.wallBudgetMillis) {
    args_ = input.args.empty() ? makeTuneInputs(input.argSpecs, options.seed) : input.args;
  }

  TuneResult run() {
    // Score the starting configuration first: it is the incumbent every
    // alternative must strictly beat, and its failure is the caller's error
    // (nothing to cache), not a pruning decision.
    CompileOptions base = input_.base;
    TuneCandidate baseCand = evaluate(base, /*isBase=*/true);
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

    std::vector<Coordinate> coords = makeCoordinates();
    report_.exhaustive = searchSpaceSize() <= options_.budget;
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

  /// Compiles + scores one configuration; memoized by passSignature, so an
  /// incumbent value revisited during a sweep costs nothing.
  TuneCandidate evaluate(const CompileOptions& candOptions, bool isBase = false) {
    TuneCandidate cand;
    cand.signature = candOptions.passSignature();
    if (auto it = memo_.find(cand.signature); it != memo_.end()) {
      ++report_.candidatesPruned;
      return it->second;
    }

    ++report_.candidatesTried;
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
    std::optional<CompiledUnit> unit;
    try {
      Compiler compiler;
      unit = compiler.compileSource(input_.source, input_.entry, input_.argSpecs, attempt);
      cand.compiled = true;
    } catch (const StructuredError& e) {
      if (isBase && e.kind() == ErrorKind::Timeout) throw;  // nothing scored yet
      cand.note = std::string("compile failed: ") + e.what();
    }
    if (unit) {
      try {
        vm::RunResult run = unit->run(args_);
        cand.cycles = run.cycles.total;
        if (reference_.empty())
          reference_ =
              interpretReference(input_.source, input_.entry, args_, unit->fn().outs.size());
        cand.maxAbsErr = compareToReference(reference_, run.outputs);
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
      bestUnit_ = std::move(unit);
      report_.bestMaxAbsErr = cand.maxAbsErr;
    }
    memo_.emplace(cand.signature, cand);
    report_.candidates.push_back(cand);
    return cand;
  }

  void coordinateDescent(const std::vector<Coordinate>& coords) {
    bool improved = true;
    while (improved && !outOfBudget()) {
      improved = false;
      for (const Coordinate& coord : coords) {
        for (const auto& apply : coord.choices) {
          if (outOfBudget()) return;
          CompileOptions cand = best_;
          apply(cand);
          double before = bestCycles_;
          evaluate(cand);
          if (bestCycles_ < before) improved = true;
        }
      }
    }
  }

  void exhaustive(const std::vector<Coordinate>& coords) {
    // Odometer over the cross product; the all-defaults combination is
    // memo-pruned (the base already scored it).
    std::vector<std::size_t> idx(coords.size(), 0);
    while (!outOfBudget()) {
      CompileOptions cand = input_.base;
      for (std::size_t i = 0; i < coords.size(); ++i) coords[i].choices[idx[i]](cand);
      evaluate(cand);
      std::size_t i = 0;
      for (; i < coords.size(); ++i) {
        if (++idx[i] < coords[i].choices.size()) break;
        idx[i] = 0;
      }
      if (i == coords.size()) return;  // odometer wrapped: space fully scored
    }
  }

  const TuneInput& input_;
  const TuneOptions& options_;
  DeadlineGuard guard_;
  std::vector<Matrix> args_;
  std::vector<Matrix> reference_;  ///< interpreter outputs, computed on the first run

  std::unordered_map<std::string, TuneCandidate> memo_;
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
