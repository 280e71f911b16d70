// mat2c — command-line front end: MATLAB source plus MATLAB-Coder-style
// `--args` shape specs in, ANSI C with ASIP intrinsics out.
//
// Subcommands: compile, serve, isa, list-isas, list-kernels, explore, tune.
// Each one declares its flags once, in the flag tables below; one argv loop
// (parseFlags) parses them all, and `mat2c` with no arguments prints them.
//
// `serve` answers JSON-lines (or, with --binary, length-prefixed M2CB frame)
// compile requests from a file or stdin, streaming one response per request
// in input order, then prints cache/throughput stats. --isa-file names the
// server-default target, read once at process start. --shards N puts N
// worker processes behind a restarting supervisor. docs/service.md has the
// wire formats, persistence and the supervisor.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>

#include "driver/report.hpp"

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "dse/dse.hpp"
#include "service/compile_service.hpp"
#include "service/protocol.hpp"
#include "service/supervisor.hpp"
#include "support/diagnostics.hpp"
#include "support/fault_injection.hpp"
#include "support/string_utils.hpp"
#include "tune/tune.hpp"

namespace {

using namespace mat2c;

/// Strict numeric-flag parsing: the whole token must parse and land in
/// [lo, hi]; anything else ("abc", "1e999", trailing junk, overflow) is the
/// same usage error (exit 2) a missing value produces. Bare std::stoi-family
/// calls would instead die with an uncaught std::invalid_argument.
long long parseIntFlag(const char* flag, const char* text, long long lo, long long hi) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "mat2c: %s expects an integer in [%lld, %lld], got '%s'\n", flag,
                 lo, hi, text);
    std::exit(2);
  }
  return v;
}

double parseDoubleFlag(const char* flag, const char* text, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v >= lo) || !(v <= hi)) {
    std::fprintf(stderr, "mat2c: %s expects a number in [%g, %g], got '%s'\n", flag, lo,
                 hi, text);
    std::exit(2);
  }
  return v;
}

// --- flag tables -----------------------------------------------------------

/// What follows a flag on the command line.
enum class Arg {
  None,    ///< nothing: a switch
  Text,    ///< any string
  Choice,  ///< one of the '|'-separated words in Flag::meta
  Int,     ///< an integer in [Flag::lo, Flag::hi]
  Real,    ///< a number in [Flag::lo, Flag::hi]
};

/// A flag's value: the argv text plus its checked numeric reading (every
/// accepted integer is exact in a double).
struct FlagValue {
  const char* text = "";
  double number = 0.0;
};

/// One row of a subcommand's flag table.
template <class Opts>
struct Flag {
  const char* name;
  Arg arg;
  const char* meta;  ///< value placeholder for usage ("<n>"); the words of an Arg::Choice
  const char* help;
  void (*set)(Opts&, const FlagValue&);  ///< where the value goes
  double lo = 0, hi = 0;                 ///< accepted range of an Arg::Int / Arg::Real
  bool forward = false;                  ///< serve: also passed to every shard worker
};
constexpr bool kForward = true;

/// Flag setter storing into one field: `true` for a switch, else the text or
/// the checked number, whichever the field's type holds.
template <auto Field, class Opts>
void store(Opts& opts, const FlagValue& v) {
  auto& dst = opts.*Field;
  using T = std::remove_reference_t<decltype(dst)>;
  if constexpr (std::is_same_v<T, bool>) {
    dst = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    dst = v.text;
  } else {
    dst = static_cast<T>(v.number);
  }
}

struct CompileArgs {
  std::string source;
  std::string entry;
  std::string argsText;
  std::string isaPreset = "dspx";
  std::string isaFile;
  std::string style = "proposed";
  std::string emitPath;
  std::string telemetryPath;
  bool dumpLir = false;
  bool run = false;
  bool validate = false;
  bool timePasses = false;
  bool tracePasses = false;
  unsigned seed = 1;
  /// Pass-option overrides in argv order, applied on top of the base options
  /// --style/--isa/--isa-file pick, wherever they sit in argv.
  std::vector<std::function<void(CompileOptions&)>> overrides;
};

/// Flag setter for a CompileOptions field: a switch stores `Value`, a
/// numeric flag its checked number.
template <auto Field, auto Value = 0>
void setOption(CompileArgs& a, const FlagValue& v) {
  using T = std::remove_reference_t<decltype(std::declval<CompileOptions&>().*Field)>;
  T value = std::is_same_v<T, bool> ? static_cast<T>(Value) : static_cast<T>(v.number);
  a.overrides.push_back([value](CompileOptions& o) { o.*Field = value; });
}

const std::vector<Flag<CompileArgs>> kCompileFlags = [] {
  std::vector<Flag<CompileArgs>> flags = {
    {"-e", Arg::Text, "<source>", "MATLAB source text instead of a file",
     store<&CompileArgs::source>},
    {"--entry", Arg::Text, "<name>", "entry-point function (required)", store<&CompileArgs::entry>},
    {"--args", Arg::Text, "<spec,...>",
     "argument shapes: 1x1 scalar, 1x1024 row, 64x3 matrix, c1x64 complex",
     store<&CompileArgs::argsText>},
    {"--isa", Arg::Text, "<preset>", "target preset (default dspx; see `mat2c list-isas`)",
     store<&CompileArgs::isaPreset>},
    {"--isa-file", Arg::Text, "<file>", "textual ISA description instead of a preset",
     store<&CompileArgs::isaFile>},
    {"--style", Arg::Choice, "proposed|coder",
     "proposed pipeline (default) or MATLAB-Coder-style baseline", store<&CompileArgs::style>},
    {"--emit-c", Arg::Text, "<out.c>", "write the generated translation unit",
     store<&CompileArgs::emitPath>},
    {"--dump-lir", Arg::None, "", "print the optimized LIR", store<&CompileArgs::dumpLir>},
    {"--run", Arg::None, "", "execute on the cycle-model VM with seeded inputs",
     store<&CompileArgs::run>},
    {"--validate", Arg::None, "", "also run the reference interpreter and compare",
     store<&CompileArgs::validate>},
    {"--seed", Arg::Int, "<n>", "input seed for --run/--validate (default 1)",
     store<&CompileArgs::seed>, 0, 4294967295.0},
  };
  // The pass flags of opt/passes.def: a switch to the row's non-default
  // value, or a trip count.
#define FLAG(name, help)                                                           \
  [&](void (*set)(CompileArgs&, const FlagValue&), Arg arg, double hi) {         \
    flags.push_back({name, arg, arg == Arg::None ? "" : "<n>", help, set, 0, hi}); \
  }
#define NO_FLAG(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, flag, ...) \
  flag(setOption<&CompileOptions::field, !(proposed)>, Arg::None, 0);
#define MAT2C_PASS_TRIP(field, key, proposed, coder, flag, tune) \
  flag(setOption<&CompileOptions::field>, Arg::Int, CompileOptions::kUnrollTripCap);
#include "opt/passes.def"
  flags.insert(flags.end(), {
    {"--time-passes", Arg::None, "", "print per-pass wall time and LIR stat deltas",
     store<&CompileArgs::timePasses>},
    {"--verify-each", Arg::None, "", "verify the LIR after every pass (names the culprit)",
     setOption<&CompileOptions::verifyEach, true>},
    {"--trace-passes", Arg::None, "", "dump the LIR after every pass (stderr)",
     store<&CompileArgs::tracePasses>},
    {"--telemetry-json", Arg::Text, "<file>",
     "write per-pass telemetry as JSON (docs/pipeline.md)", store<&CompileArgs::telemetryPath>},
  });
  return flags;
}();

struct ServeOptions {
  std::string inputPath;  ///< "" or "-" = stdin
  bool binary = false;
  service::CompileService::Config config;
  service::ProtocolLimits protocolLimits;
  double defaultDeadlineMillis = 0.0;  // applied to requests without their own
  std::string statsPath;
  std::string metricsPath;
  std::string isaFile;    ///< server-default ISA, read at startup ("" = dspx)
  int shards = 0;         ///< >0: supervisor mode (N worker processes)
  int maxRestarts = 8;
  std::uint64_t seed = 1;
  /// The kForward flags, verbatim, for every shard worker in supervisor mode.
  std::vector<std::string> workerArgs;
};

const Flag<ServeOptions> kServeFlags[] = {
    {"--jobs", Arg::Int, "<n>", "compile worker threads",
     [](ServeOptions& o, const FlagValue& v) { o.config.threads = v.number; }, 1, 4096,
     kForward},
    {"--cache-entries", Arg::Int, "<n>", "memory compile-cache capacity",
     [](ServeOptions& o, const FlagValue& v) { o.config.cacheEntries = v.number; }, 0,
     1 << 30, kForward},
    {"--stats-json", Arg::Text, "<file>", "end-of-run stats JSON here instead of stderr",
     store<&ServeOptions::statsPath>},
    {"--metrics", Arg::Text, "<file>", "write Prometheus text-format metrics",
     store<&ServeOptions::metricsPath>},
    {"--max-request-bytes", Arg::Int, "<n>", "reject longer request lines / frames",
     [](ServeOptions& o, const FlagValue& v) { o.protocolLimits.maxRequestBytes = v.number; },
     1, 1LL << 40, kForward},
    {"--deadline-ms", Arg::Real, "<ms>", "deadline of requests that set none",
     store<&ServeOptions::defaultDeadlineMillis>, 0, 1e9, kForward},
    {"--store-dir", Arg::Text, "<dir>", "persist compiled artifacts across restarts",
     [](ServeOptions& o, const FlagValue& v) { o.config.storeDir = v.text; }, 0, 0, kForward},
    {"--max-store-bytes", Arg::Int, "<n>", "artifact-store byte cap (0 = none)",
     [](ServeOptions& o, const FlagValue& v) { o.config.maxStoreBytes = v.number; }, 0,
     1LL << 50, kForward},
    {"--binary", Arg::None, "", "M2CB frames instead of JSON lines, both ways",
     store<&ServeOptions::binary>},
    {"--isa-file", Arg::Text, "<file>", "default target of requests without isa, read at start",
     store<&ServeOptions::isaFile>, 0, 0, kForward},
    {"--shards", Arg::Int, "<n>", "n worker processes behind a supervisor",
     store<&ServeOptions::shards>, 1, 256},
    {"--max-restarts", Arg::Int, "<n>", "restarts per shard before ejection (default 8)",
     store<&ServeOptions::maxRestarts>, 0, 1 << 20},
    {"--seed", Arg::Int, "<n>", "supervisor restart-jitter seed",
     store<&ServeOptions::seed>, 0, 4294967295.0},
};

struct IsaArgs {
  std::string preset = "dspx";
  std::string file;
};

const Flag<IsaArgs> kIsaFlags[] = {
    {"--preset", Arg::Text, "<name>", "print this preset (default dspx)", store<&IsaArgs::preset>},
    {"--isa-file", Arg::Text, "<file>", "parse and print this description instead",
     store<&IsaArgs::file>},
};

struct ExploreArgs {
  std::string kernels;
  std::string jsonPath;
  std::string emitPath;
  bool quiet = false;
  dse::ExploreOptions opts;
};

const Flag<ExploreArgs> kExploreFlags[] = {
    {"--kernels", Arg::Text, "<name,...>", "corpus subset (default: all nine)",
     store<&ExploreArgs::kernels>},
    {"--top", Arg::Int, "<n>", "fused-instruction candidates admitted (default 4)",
     [](ExploreArgs& a, const FlagValue& v) { a.opts.topCandidates = v.number; }, 0, 64},
    {"--no-fused", Arg::None, "", "leave fused instructions out of the space",
     [](ExploreArgs& a, const FlagValue&) { a.opts.exploreFused = false; }},
    {"--json", Arg::Text, "<file>", "write the results as JSON", store<&ExploreArgs::jsonPath>},
    {"--emit-isa", Arg::Text, "<file>", "write the winning design as an ISA file",
     store<&ExploreArgs::emitPath>},
    {"--quiet", Arg::None, "", "no progress lines", store<&ExploreArgs::quiet>},
};

struct TuneArgs {
  std::string kernels;
  std::string jsonPath;
  std::string isaPreset = "dspx";
  std::string isaFile;
  bool quiet = false;
  tune::TuneOptions topt;
};

const Flag<TuneArgs> kTuneFlags[] = {
    {"--kernels", Arg::Text, "<name,...>", "kernels to tune (default: the tune corpus)",
     store<&TuneArgs::kernels>},
    {"--budget", Arg::Int, "<n>", "candidates compiled per kernel (default 48)",
     [](TuneArgs& a, const FlagValue& v) { a.topt.budget = v.number; }, 1, 100000},
    {"--json", Arg::Text, "<file>", "write the results as JSON", store<&TuneArgs::jsonPath>},
    {"--isa", Arg::Text, "<preset>", "target preset (default dspx)", store<&TuneArgs::isaPreset>},
    {"--isa-file", Arg::Text, "<file>", "textual ISA description instead of a preset",
     store<&TuneArgs::isaFile>},
    {"--seed", Arg::Int, "<n>", "input seed (default 1)",
     [](TuneArgs& a, const FlagValue& v) { a.topt.seed = v.number; }, 0, 4294967295.0},
    {"--quiet", Arg::None, "", "no progress lines", store<&TuneArgs::quiet>},
};

/// The one argv loop: parses argv[2..] against `flags` into `opts`. An
/// argument that is no flag goes to `positional`, which may refuse it. A
/// missing value, an unknown option, a bad choice or a malformed number is a
/// usage error (exit 2). Returns the kForward flags and their values.
template <class Opts, class Flags>
std::vector<std::string> parseFlags(int argc, char** argv, const Flags& flags, Opts& opts,
                                    bool (*positional)(Opts&, const std::string&) = nullptr) {
  std::vector<std::string> forwarded;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto f = std::find_if(std::begin(flags), std::end(flags),
                          [&](const Flag<Opts>& row) { return a == row.name; });
    if (f == std::end(flags)) {
      if (positional && positional(opts, a)) continue;
      std::fprintf(stderr, "mat2c: unknown option '%s'\n", a.c_str());
      std::exit(2);
    }
    FlagValue v;
    if (f->arg != Arg::None) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mat2c: %s expects a value\n", f->name);
        std::exit(2);
      }
      v.text = argv[++i];
    }
    if (f->arg == Arg::Int) {
      v.number = static_cast<double>(parseIntFlag(
          f->name, v.text, static_cast<long long>(f->lo), static_cast<long long>(f->hi)));
    } else if (f->arg == Arg::Real) {
      v.number = parseDoubleFlag(f->name, v.text, f->lo, f->hi);
    } else if (f->arg == Arg::Choice) {
      std::vector<std::string> words = split(f->meta, '|');
      if (std::find(words.begin(), words.end(), v.text) == words.end()) {
        std::fprintf(stderr, "mat2c: %s expects one of %s, got '%s'\n", f->name, f->meta,
                     v.text);
        std::exit(2);
      }
    }
    if (f->forward) forwarded.insert(forwarded.end(), {a, v.text});
    f->set(opts, v);
  }
  return forwarded;
}

template <class Flags>
void printFlags(const char* synopsis, const Flags& flags) {
  std::fprintf(stderr, "  mat2c %s\n", synopsis);
  for (const auto& f : flags) {
    std::string spelled = f.name;
    if (f.arg != Arg::None) spelled += std::string(" ") + f.meta;
    std::fprintf(stderr, "      %-27s %s", spelled.c_str(), f.help);
    if (f.arg == Arg::Int || f.arg == Arg::Real) {
      std::fprintf(stderr, " [%.0f, %.0f]", f.lo, f.hi);
    }
    std::fprintf(stderr, "\n");
  }
}

int usage() {
  std::fprintf(stderr, "usage:\n");
  printFlags("compile (<file.m> | -e '<matlab source>') --entry <name> --args <spec,...>",
             kCompileFlags);
  printFlags("serve [<requests.jsonl> | -]", kServeFlags);
  printFlags("isa", kIsaFlags);
  std::fprintf(stderr, "  mat2c list-isas\n  mat2c list-kernels\n");
  printFlags("explore", kExploreFlags);
  printFlags("tune", kTuneFlags);
  return 2;
}

// --- shared helpers --------------------------------------------------------

/// Writes `text` to `path`, announcing it on stderr when `announce`; prints
/// "cannot write" and returns false when the file does not open.
bool writeFile(const std::string& path, const std::string& text, bool announce = true) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "mat2c: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << text;
  if (announce) std::fprintf(stderr, "mat2c: wrote %s\n", path.c_str());
  return true;
}

/// The target ISA of `isa`, `compile` and `tune`: the --isa-file description
/// when one is given (nullopt, with the reason printed, when it does not
/// load), else the named preset. An unknown preset is a usage error (exit 2)
/// that lists the presets.
std::optional<isa::IsaDescription> resolveIsa(const std::string& preset,
                                              const std::string& file) {
  if (!file.empty()) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "mat2c: cannot open ISA file '%s'\n", file.c_str());
      return std::nullopt;
    }
    std::stringstream text;
    text << in.rdbuf();
    DiagnosticEngine diags;
    isa::IsaDescription parsed = isa::IsaDescription::parse(text.str(), diags);
    if (diags.hasErrors()) {
      std::fprintf(stderr, "mat2c: bad ISA file '%s': %s", file.c_str(),
                   diags.renderAll().c_str());
      return std::nullopt;
    }
    return parsed;
  }
  try {
    return isa::IsaDescription::preset(preset);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mat2c: %s\navailable presets (see `mat2c list-isas`):", e.what());
    for (const auto& n : isa::IsaDescription::presetNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

/// The --kernels selection of `explore` and `tune`: each comma-separated name
/// from `pool`, else (when `anyKernel`) from the full kernel suite. An
/// unknown name is a usage error (exit 2) naming it as `what`, pointing at
/// `see`.
std::vector<kernels::KernelSpec> selectKernels(const std::string& csv,
                                               const std::vector<kernels::KernelSpec>& pool,
                                               bool anyKernel, const char* what,
                                               const char* see) {
  std::vector<kernels::KernelSpec> picked;
  for (const auto& name : split(csv, ',')) {
    std::string trimmed(trim(name));
    if (trimmed.empty()) continue;
    auto it = std::find_if(pool.begin(), pool.end(),
                           [&](const kernels::KernelSpec& k) { return k.name == trimmed; });
    if (it != pool.end()) {
      picked.push_back(*it);
      continue;
    }
    if (anyKernel) {
      try {
        picked.push_back(kernels::kernelByName(trimmed));
        continue;
      } catch (const std::exception&) {
      }
    }
    std::fprintf(stderr, "mat2c: unknown %s '%s' (see %s)\n", what, trimmed.c_str(), see);
    std::exit(2);
  }
  return picked;
}

double millisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- subcommands -----------------------------------------------------------

int cmdIsa(int argc, char** argv) {
  IsaArgs a;
  parseFlags(argc, argv, kIsaFlags, a);
  auto d = resolveIsa(a.preset, a.file);
  if (!d) return 1;
  std::printf("%s", d->serialize().c_str());
  return 0;
}

int cmdListIsas() {
  for (const auto& name : isa::IsaDescription::presetNames()) {
    isa::IsaDescription d = isa::IsaDescription::preset(name);
    std::string units;
    if (d.hasFma()) units += " fma";
    if (d.hasCmul()) units += " cmul";
    if (d.hasCmac()) units += " cmac";
    if (d.hasZol()) units += " zol";
    if (d.hasAgu()) units += " agu";
    if (units.empty()) units = " (no custom units)";
    std::printf("%-15s f64x%-2d c64x%-2d mem%-2d%s\n", name.c_str(), d.lanesF64(),
                d.lanesC64(), d.memLanes(), units.c_str());
  }
  return 0;
}

int cmdExplore(int argc, char** argv) {
  ExploreArgs a;
  parseFlags(argc, argv, kExploreFlags, a);
  if (!a.kernels.empty()) {
    a.opts.corpus = selectKernels(a.kernels, kernels::dseCorpus(), false, "corpus kernel",
                                  "the first nine of `mat2c list-kernels`");
  }
  if (!a.quiet) a.opts.progress = &std::cerr;

  try {
    dse::ExploreResult result = dse::explore(a.opts);
    std::printf("Mined idioms (top %zu by dynamic count):\n%s\n", result.idioms.size(),
                dse::idiomTable(result).c_str());
    if (!result.candidates.empty()) {
      std::printf("Synthesized fused-instruction candidates:\n%s\n",
                  dse::candidateTable(result).c_str());
    }
    std::printf("Pareto frontier (%d design points scored):\n%s\n",
                result.pointsEvaluated, dse::paretoTable(result).c_str());
    std::printf("winner: %s — geomean %.2fx vs scalar at hw cost %.0f units "
                "(dspx: %.2fx at %.0f)\n",
                result.best.point.label().c_str(), result.best.geomean,
                result.best.hwCost, result.dspxRef.geomean, result.dspxRef.hwCost);
    double worstErr = 0.0;
    for (const auto& [name, err] : result.bestMaxAbsErr) worstErr = std::max(worstErr, err);
    std::printf("oracle check at winner: max |error| vs interpreter = %g\n", worstErr);
    if (!a.emitPath.empty() && !writeFile(a.emitPath, dse::isaFileText(result))) return 1;
    if (!a.jsonPath.empty() && !writeFile(a.jsonPath, dse::benchJson(result))) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mat2c: explore failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmdTune(int argc, char** argv) {
  TuneArgs a;
  parseFlags(argc, argv, kTuneFlags, a);
  CompileOptions base;
  auto target = resolveIsa(a.isaPreset, a.isaFile);
  if (!target) return 1;
  base.isa = std::move(*target);

  // Kernel selection: the tune corpus (reduced sizes) by name when possible,
  // any full-size corpus kernel otherwise, so `--kernels fft` still works.
  std::vector<kernels::KernelSpec> corpus =
      a.kernels.empty() ? kernels::tuneCorpus()
                        : selectKernels(a.kernels, kernels::tuneCorpus(), true, "kernel",
                                        "`mat2c list-kernels`");
  if (corpus.empty()) {
    std::fprintf(stderr, "mat2c: no kernels selected\n");
    return 2;
  }

  std::vector<tune::TuneReport> reports;
  int improved = 0;
  for (const auto& spec : corpus) {
    if (!a.quiet) std::fprintf(stderr, "mat2c: tuning %s...\n", spec.name.c_str());
    tune::TuneInput input;
    input.source = spec.source;
    input.entry = spec.entry;
    input.argSpecs = spec.argSpecs;
    input.args = spec.args;
    input.base = base;
    try {
      tune::TuneResult result = tune::autotune(input, a.topt);
      result.report.kernel = spec.name;  // corpus id, not just the entry name
      if (result.report.tunedCycles < result.report.defaultCycles) ++improved;
      reports.push_back(std::move(result.report));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mat2c: tune failed for '%s': %s\n", spec.name.c_str(),
                   e.what());
      return 1;
    }
  }

  std::printf("Autotune results (budget %d, search space %d):\n%s\n", a.topt.budget,
              tune::searchSpaceSize(), tune::reportTable(reports).c_str());
  std::printf("%d of %zu kernel(s) beat the default pipeline\n", improved,
              reports.size());
  if (!a.jsonPath.empty() && !writeFile(a.jsonPath, tune::benchJson(reports, base.isa.name()))) {
    return 1;
  }
  return 0;
}

int cmdListKernels() {
  for (const auto& k : kernels::dspBenchmarkSuite()) {
    std::printf("%-10s %s\n", k.name.c_str(), k.title.c_str());
  }
  for (const auto& k : kernels::extendedKernelSuite()) {
    std::printf("%-10s %s (extended)\n", k.name.c_str(), k.title.c_str());
  }
  return 0;
}

/// `compile`'s positional argument: the first non-flag names the .m file.
bool readSourceFile(CompileArgs& a, const std::string& path) {
  if (path.empty() || path[0] == '-' || !a.source.empty()) return false;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "mat2c: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  a.source = ss.str();
  return true;
}

int cmdCompile(int argc, char** argv) {
  CompileArgs a;
  parseFlags(argc, argv, kCompileFlags, a, readSourceFile);
  if (a.source.empty() || a.entry.empty()) return usage();

  std::vector<sema::ArgSpec> specs;
  std::string badSpec;
  if (!service::parseArgSpecList(a.argsText, specs, badSpec)) {
    std::fprintf(stderr,
                 "mat2c: bad arg spec '%s' (dims must be positive integers with no "
                 "trailing characters; want e.g. 1x1024 or c1x64)\n",
                 badSpec.c_str());
    return 2;
  }

  CompileOptions options =
      a.style == "coder" ? CompileOptions::coderLike() : CompileOptions::proposed();
  auto target = resolveIsa(a.isaPreset, a.isaFile);
  if (!target) return 1;
  options.isa = std::move(*target);
  for (const auto& apply : a.overrides) apply(options);
  if (a.tracePasses) {
    options.tracePasses = [](const opt::PassRecord& rec, const lir::Function& fn) {
      std::fprintf(stderr, "mat2c: --- LIR after pass '%s' (%.3f ms) ---\n%s\n",
                   rec.name.c_str(), rec.millis, lir::print(fn).c_str());
    };
  }

  Compiler compiler;
  try {
    auto unit = compiler.compileSource(a.source, a.entry, specs, options);
    const opt::PipelineReport& report = unit.optimizationReport();

    std::fprintf(stderr, "mat2c: compiled '%s' for target '%s' (%d loop(s) vectorized, "
                         "%d MAC rewrite(s))\n",
                 a.entry.c_str(), options.isa.name().c_str(), report.vec.loopsVectorized,
                 report.idiomRewrites);
    for (const auto& note : report.vec.missed) {
      std::fprintf(stderr, "mat2c: note: %s\n", note.c_str());
    }
    if (a.timePasses) {
      std::fprintf(stderr, "mat2c: per-pass telemetry (%.3f ms total):\n%s",
                   report.totalMillis, report::passTable(report).toString().c_str());
    }
    if (!a.telemetryPath.empty() &&
        !writeFile(a.telemetryPath,
                   report::telemetryJson(report, a.entry, options.isa.name()))) {
      return 1;
    }

    if (a.dumpLir) std::printf("%s\n", unit.lirDump().c_str());
    if (!a.emitPath.empty() && !writeFile(a.emitPath, unit.cCode())) return 1;
    if (a.emitPath.empty() && !a.dumpLir && !a.run && !a.validate) {
      std::printf("%s", unit.cCode().c_str());
    }

    if (a.run || a.validate) {
      std::vector<Matrix> inputs = tune::makeTuneInputs(specs, a.seed);
      auto result = unit.run(inputs);
      std::printf("cycles: %.0f\n", result.cycles.total);
      for (const auto& [cat, v] : result.cycles.byCategory()) {
        std::printf("  %-8s %.0f\n", cat.c_str(), v);
      }
      for (std::size_t i = 0; i < result.outputs.size(); ++i) {
        std::printf("out%zu = %s\n", i, result.outputs[i].toString().c_str());
      }
      if (a.validate) {
        double err = compareToReference(
            interpretReference(a.source, a.entry, inputs, unit.fn().outs.size()),
            result.outputs);
        std::printf("max |error| vs interpreter: %g\n", err);
        if (err > kOracleMaxAbsErr) {
          std::fprintf(stderr, "mat2c: VALIDATION FAILED\n");
          return 1;
        }
      }
    }
  } catch (const CompileError& e) {
    std::fprintf(stderr, "mat2c: compile error:\n%s\n", e.what());
    return 1;
  } catch (const RuntimeError& e) {
    std::fprintf(stderr, "mat2c: runtime error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// --- serve -----------------------------------------------------------------

/// Input-order response stream, shared by both serve modes. Ingest opens one
/// slot per request; answers land in any order (an in-band error at once, a
/// CompileService future, a shard's callback), and the writer thread emits
/// them strictly in input order as they complete. Streaming instead of
/// batching at EOF is what lets a worker run under the shard supervisor,
/// whose readmission probe would otherwise deadlock.
class ResponseWriter {
 public:
  struct Slot {
    bool ready = false;
    service::BinaryResponse response;
    std::string payload;  ///< a shard's raw response payload ("" = encode `response`)
    std::future<service::CompileResponse> future;  ///< a local compile in flight
  };
  using SlotPtr = std::shared_ptr<Slot>;

  /// `faultPoint` arms the frame.write chaos point (shard workers only).
  ResponseWriter(bool binary, bool faultPoint)
      : binary_(binary), faultPoint_(faultPoint), thread_([this] { run(); }) {}

  /// Appends an unanswered slot; answer() or await() fills it.
  SlotPtr open() {
    auto slot = std::make_shared<Slot>();
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(slot);
      ++requests_;
    }
    return slot;
  }
  void answer(const SlotPtr& slot, service::BinaryResponse response, std::string payload = {}) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      slot->response = std::move(response);
      slot->payload = std::move(payload);
      slot->ready = true;
    }
    cv_.notify_all();
  }
  void await(const SlotPtr& slot, std::future<service::CompileResponse> future) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      slot->future = std::move(future);
    }
    cv_.notify_all();
  }

  /// Emits every remaining slot, then stops the writer thread.
  void finish() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  std::size_t requests() const { return requests_; }
  std::size_t failures() const { return failures_; }
  /// Per-request failures are reported in-band (the "ok" field); only a
  /// completely failed batch is an error exit.
  int exitCode() const { return requests_ > 0 && failures_ == requests_ ? 1 : 0; }

 private:
  void run() {
    while (true) {
      SlotPtr slot;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] {
          return queue_.empty() ? done_ : queue_.front()->ready || queue_.front()->future.valid();
        });
        if (queue_.empty()) return;
        slot = std::move(queue_.front());
        queue_.pop_front();
      }
      if (!slot->ready) slot->response = slot->future.get();
      if (!slot->response.ok) ++failures_;
      if (binary_) {
        std::string frame = service::encodeFrame(
            service::FrameType::Response,
            slot->payload.empty() ? service::encodeBinaryResponse(slot->response)
                                  : slot->payload);
        // Chaos point: a worker dying mid-write leaves the client a torn
        // frame (Torn: half the bytes) or nothing (Fail). Either way the
        // process must die — continuing after a skipped frame would shift
        // every later response onto the wrong request.
        fault::PointAction chaos =
            faultPoint_ ? fault::atPoint("frame.write") : fault::PointAction::None;
        if (chaos != fault::PointAction::None) {
          if (chaos == fault::PointAction::Torn) {
            std::fwrite(frame.data(), 1, frame.size() / 2, stdout);
          }
          std::fflush(stdout);
          std::_Exit(9);
        }
        std::fwrite(frame.data(), 1, frame.size(), stdout);
      } else {
        std::printf("%s\n", service::responseJson(slot->response).c_str());
      }
      // Flush per response: downstream (supervisor, live clients) blocks on
      // answers, and stdout is fully buffered on a pipe.
      std::fflush(stdout);
    }
  }

  const bool binary_;
  const bool faultPoint_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<SlotPtr> queue_;
  bool done_ = false;
  std::size_t requests_ = 0;  ///< opened slots (admin + compile + errors)
  std::size_t failures_ = 0;  ///< written by the writer thread only
  std::thread thread_;        ///< last: starts once the members above exist
};

service::BinaryResponse errorResponse(std::string id, std::string error, ErrorKind kind) {
  service::BinaryResponse r;
  r.id = std::move(id);
  r.error = std::move(error);
  r.errorKind = kind;
  return r;
}

service::BinaryResponse adminResponse(std::string id, std::string info) {
  service::BinaryResponse r;
  r.id = std::move(id);
  r.ok = true;
  r.adminInfo = std::move(info);
  return r;
}

/// What tells the two serve modes apart: who answers admin requests and
/// where compile requests go. ingest() and ResponseWriter do the rest.
struct ServeBackend {
  /// healthz / stats, answered synchronously with ingest.
  std::function<service::BinaryResponse(const service::WireRequest&)> admin;
  /// Routes one compile request; its answer must land in `slot`.
  std::function<void(const service::WireRequest&, const ResponseWriter::SlotPtr&)> submit;
};

/// The one serve ingest loop: reads M2CB request frames (--binary) or JSON
/// lines until EOF and gives every request one slot in `out`. Blank and '#'
/// lines are skipped; a request without an id is named after its position
/// (line<n> / frame<n>); malformed input gets an in-band error. A framing
/// error is not resynchronizable (the stream position is unknown), so it
/// ends ingest; a per-request decode error does not.
void ingest(std::istream& in, const ServeOptions& opt, const ServeBackend& backend,
            ResponseWriter& out) {
  auto reject = [&](std::string id, std::string error, ErrorKind kind) {
    out.answer(out.open(), errorResponse(std::move(id), std::move(error), kind));
  };
  std::string line, payload, error;
  for (std::size_t n = 1;; ++n) {
    service::FrameType type{};
    int rc = 1;
    if (opt.binary) {
      rc = service::readFrame(in, type, payload, error, opt.protocolLimits);
    } else if (!std::getline(in, line)) {
      rc = 0;
    }
    if (rc == 0) break;
    service::WireRequest wire;
    std::string position = (opt.binary ? "frame" : "line") + std::to_string(n);
    if (opt.binary) {
      if (rc < 0) {
        reject(position, "bad frame: " + error,
               startsWith(error, "frame payload is") ? ErrorKind::ResourceExhausted
                                                     : ErrorKind::ParseError);
        break;
      }
      if (type != service::FrameType::Request) {
        reject(position, "bad frame: expected a request frame", ErrorKind::ParseError);
        continue;
      }
      if (!service::decodeBinaryRequest(payload, wire, error)) {
        reject(wire.id.empty() ? position : wire.id, "bad request: " + error,
               ErrorKind::ParseError);
        continue;
      }
    } else {
      std::string_view stripped = trim(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      ErrorKind kind = ErrorKind::None;
      if (!service::parseWireRequest(stripped, wire, error, &kind, opt.protocolLimits)) {
        reject(position, "bad request: " + error, kind);
        continue;
      }
    }
    if (wire.id.empty()) wire.id = position;
    if (wire.admin.empty()) {
      backend.submit(wire, out.open());
    } else if (wire.admin == "healthz" || wire.admin == "stats") {
      out.answer(out.open(), backend.admin(wire));
    } else {
      reject(wire.id, "unknown admin command '" + wire.admin + "'", ErrorKind::ParseError);
    }
  }
}

/// End-of-run reports: the stats JSON (--stats-json, else stderr) and the
/// --metrics text. False after a "cannot write" message.
bool writeServeReports(const ServeOptions& opt, const std::string& stats,
                       const std::string& metrics) {
  if (opt.statsPath.empty()) {
    std::fprintf(stderr, "%s", stats.c_str());
  } else if (!writeFile(opt.statsPath, stats, false)) {
    return false;
  }
  return opt.metricsPath.empty() || writeFile(opt.metricsPath, metrics, false);
}

/// Single-process serve: compiles on this process's CompileService.
/// `defaultIsa` is the target of requests that name none.
int runServeSingle(const ServeOptions& opt, std::istream& in,
                   const isa::IsaDescription& defaultIsa) {
  service::CompileService serviceInstance(opt.config);
  if (!opt.config.storeDir.empty() && serviceInstance.artifactStore() &&
      !serviceInstance.artifactStore()->ok()) {
    // Degraded, not fatal: the service keeps compiling from memory, every
    // write-behind counts a putFailure, and healthz reports degraded.
    std::fprintf(stderr, "mat2c: warning: %s; serving without persistence\n",
                 serviceInstance.artifactStore()->error().c_str());
  }

  auto t0 = std::chrono::steady_clock::now();
  ResponseWriter out(opt.binary, /*faultPoint=*/true);
  ServeBackend backend;
  backend.admin = [&](const service::WireRequest& wire) {
    if (wire.admin == "healthz") {
      return adminResponse(wire.id, service::healthzText(serviceInstance.stats()));
    }
    return adminResponse(wire.id, service::statsJson(serviceInstance.stats(), millisSince(t0)));
  };
  backend.submit = [&](const service::WireRequest& wire, const ResponseWriter::SlotPtr& slot) {
    service::CompileRequest request;
    std::string error;
    if (!wire.resolve(request, error)) {
      out.answer(slot, errorResponse(wire.id, "bad request: " + error, ErrorKind::ParseError));
      return;
    }
    if (wire.isa.empty() && wire.isaText.empty()) request.options.isa = defaultIsa;
    if (request.deadlineMillis <= 0) request.deadlineMillis = opt.defaultDeadlineMillis;
    out.await(slot, serviceInstance.submit(std::move(request)));
  };
  ingest(in, opt, backend, out);
  out.finish();
  double wallMillis = millisSince(t0);

  service::ServiceStats stats = serviceInstance.stats();
  if (!writeServeReports(opt, service::statsJson(stats, wallMillis),
                         service::metricsText(stats, wallMillis))) {
    return 1;
  }
  std::fprintf(stderr,
               "mat2c: served %llu request(s) on %zu thread(s): %llu compile(s), "
               "%llu cache hit(s) (%llu from store), %llu dedup join(s), "
               "%zu failure(s), %.1f ms, healthz: %s\n",
               static_cast<unsigned long long>(stats.requests), serviceInstance.threadCount(),
               static_cast<unsigned long long>(stats.compiles),
               static_cast<unsigned long long>(stats.cacheHits),
               static_cast<unsigned long long>(stats.storeHits),
               static_cast<unsigned long long>(stats.dedupJoins), out.failures(), wallMillis,
               service::healthzText(stats).c_str());
  return out.exitCode();
}

/// Supervisor serve: N worker processes behind consistent-hash routing,
/// crash restart with backoff, and re-dispatch. The supervisor itself never
/// compiles; it forwards wire requests and relays the workers' binary
/// responses (re-rendered as JSON lines when the client side is JSON).
int runServeSupervisor(const ServeOptions& opt, std::istream& in) {
  service::ShardSupervisor::Config sc;
  sc.shards = opt.shards;
  sc.workerArgs = opt.workerArgs;
  sc.maxRestarts = opt.maxRestarts;
  sc.seed = opt.seed;
  service::ShardSupervisor supervisor(sc);
  std::string error;
  if (!supervisor.start(error)) {
    std::fprintf(stderr, "mat2c: cannot start shard fleet: %s\n", error.c_str());
    return 1;
  }

  auto t0 = std::chrono::steady_clock::now();
  ResponseWriter out(opt.binary, /*faultPoint=*/false);
  ServeBackend backend;
  backend.admin = [&](const service::WireRequest& wire) {
    service::ShardSupervisor::Stats s = supervisor.stats();
    if (wire.admin == "stats") {
      return adminResponse(wire.id, service::statsJson(s, millisSince(t0)));
    }
    std::string shards = std::to_string(s.shardsAlive) + "/" + std::to_string(s.pids.size());
    if (s.shardsAlive == static_cast<int>(s.pids.size())) {
      return adminResponse(wire.id, "ok (" + shards + " shards alive)");
    }
    return adminResponse(wire.id, "degraded (" + shards + " shards alive, " +
                                      std::to_string(s.shardsEjected) + " ejected)");
  };
  backend.submit = [&](const service::WireRequest& wire, const ResponseWriter::SlotPtr& slot) {
    supervisor.submit(wire, [&out, slot](const std::string& raw,
                                         const service::BinaryResponse& decoded) {
      out.answer(slot, decoded, raw);
    });
  };
  ingest(in, opt, backend, out);
  out.finish();
  supervisor.shutdown();
  double wallMillis = millisSince(t0);

  service::ShardSupervisor::Stats ss = supervisor.stats();
  if (!writeServeReports(opt, service::statsJson(ss, wallMillis), service::metricsText(ss))) {
    return 1;
  }
  std::fprintf(stderr,
               "mat2c: supervised %d shard(s): %llu request(s), %llu restart(s), "
               "%llu redispatch(es), %zu failure(s), %.1f ms\n",
               opt.shards, static_cast<unsigned long long>(ss.submitted),
               static_cast<unsigned long long>(ss.restarts),
               static_cast<unsigned long long>(ss.redispatched), out.failures(), wallMillis);
  return out.exitCode();
}

/// `serve`'s positional argument: the request file ("-" = stdin).
bool serveInput(ServeOptions& o, const std::string& path) {
  if (!o.inputPath.empty() || (path.size() > 1 && path[0] == '-')) return false;
  o.inputPath = path;
  return true;
}

int cmdServe(int argc, char** argv) {
  ServeOptions opt;
  opt.workerArgs = parseFlags(argc, argv, kServeFlags, opt, serveInput);

  // Path validation is a usage error (exit 2), consistent with the strict
  // numeric flags: pointing the store at a file would silently disable
  // persistence otherwise.
  if (!opt.config.storeDir.empty()) {
    std::error_code ec;
    if (std::filesystem::exists(opt.config.storeDir, ec) &&
        !std::filesystem::is_directory(opt.config.storeDir, ec)) {
      std::fprintf(stderr, "mat2c: --store-dir '%s' exists and is not a directory\n",
                   opt.config.storeDir.c_str());
      return 2;
    }
  }

  bool fromStdin = opt.inputPath.empty() || opt.inputPath == "-";
  std::ifstream file;
  if (!fromStdin) {
    file.open(opt.inputPath, opt.binary ? std::ios::in | std::ios::binary : std::ios::in);
    if (!file) {
      std::fprintf(stderr, "mat2c: cannot open '%s'\n", opt.inputPath.c_str());
      return 1;
    }
  }
  std::istream& in = fromStdin ? std::cin : file;

  // Parsed once here, also in supervisor mode, so a bad --isa-file fails at
  // startup rather than in every shard; each shard re-reads it when it starts.
  std::optional<isa::IsaDescription> defaultIsa = resolveIsa("dspx", opt.isaFile);
  if (!defaultIsa) return 1;
  if (opt.shards > 0) return runServeSupervisor(opt, in);
  return runServeSingle(opt, in, *defaultIsa);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "compile") return cmdCompile(argc, argv);
  if (cmd == "serve") return cmdServe(argc, argv);
  if (cmd == "isa") return cmdIsa(argc, argv);
  if (cmd == "list-isas" || cmd == "--list-isas") return cmdListIsas();
  if (cmd == "list-kernels") return cmdListKernels();
  if (cmd == "explore") return cmdExplore(argc, argv);
  if (cmd == "tune") return cmdTune(argc, argv);
  return usage();
}
