// Bit-exact digests of the compiler's output text.
//
// Every corpus kernel (Table-1, extended, DSE and tune suites) is compiled
// on every ISA preset in both code styles, and the FNV-1a 64 of its emitted
// C and its LIR dump is compared with tests/fixtures/c_digests.txt. The
// fixture was written by the lowerer that re-ran type inference per
// statement, before the frame pass became the only statement-level
// inference; a change to the lowerer's bookkeeping must leave every line
// as it is. A missing or different entry prints "c-digest <case> <digest>",
// the line to put in the fixture. Regenerate only for a change meant to
// move the generated code: empty the fixture, then run
// `./build/tests/test_c_digest | grep '^c-digest' | cut -d' ' -f2- | sort`.
//
// The C digest sees only the end of the pass pipeline, so two passes whose
// changes cancel out would still pass it. Corpus/PassDigest.* hashes the
// LIR dump after every pass of the same cases against
// tests/fixtures/pass_digests.txt, one "<case> <pass>=<digest> ..." line
// per case, and names the first pass whose output moved. A missing or
// different entry prints "pass-digest <case> <pass>=<digest> ...";
// regenerate the same way with
// `./build/tests/test_c_digest --gtest_filter='Corpus/PassDigest*' |
// grep '^pass-digest' | cut -d' ' -f2- | sort`.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"

namespace mat2c {
namespace {

using SuiteFn = std::vector<kernels::KernelSpec> (*)();
constexpr std::pair<const char*, SuiteFn> kSuites[] = {{"dsp", kernels::dspBenchmarkSuite},
                                                       {"ext", kernels::extendedKernelSuite},
                                                       {"dse", kernels::dseCorpus},
                                                       {"tune", kernels::tuneCorpus}};

/// One kernel of one suite in kSuites, on one preset in one style.
struct DigestCase {
  std::size_t suite;
  std::size_t kernel;
  std::string preset;
  bool coder;
  std::string name;
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

std::vector<DigestCase> digestCases() {
  std::vector<DigestCase> out;
  for (std::size_t s = 0; s < std::size(kSuites); ++s) {
    auto suite = kSuites[s].second();
    for (std::size_t k = 0; k < suite.size(); ++k)
      for (const auto& preset : isa::IsaDescription::presetNames())
        for (bool coder : {false, true})
          out.push_back({s, k, preset, coder,
                         std::string(kSuites[s].first) + "_" + suite[k].name + "_" + preset +
                             (coder ? "_coder" : "_proposed")});
  }
  return out;
}

std::string digestOf(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

/// tests/fixtures/c_digests.txt: one "<case> <digest>" line per case.
const std::map<std::string, std::string>& cFixture() {
  static const std::map<std::string, std::string> digests = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(MAT2C_C_DIGESTS);
    std::string name, digest;
    while (in >> name >> digest) out[name] = digest;
    return out;
  }();
  return digests;
}

class CDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(CDigest, CCodeAndLirDumpAreUnchanged) {
  const DigestCase& c = GetParam();
  kernels::KernelSpec spec = kSuites[c.suite].second()[c.kernel];
  Compiler compiler;
  auto unit = compiler.compileSource(
      spec.source, spec.entry, spec.argSpecs,
      c.coder ? CompileOptions::coderLike(c.preset) : CompileOptions::proposed(c.preset));
  std::string digest = digestOf(unit.cCode() + "\n-- lir --\n" + unit.lirDump());
  const auto& want = cFixture();
  auto it = want.find(c.name);
  EXPECT_TRUE(it != want.end() && it->second == digest)
      << "c-digest " << c.name << " " << digest;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CDigest, ::testing::ValuesIn(digestCases()),
                         [](const auto& info) { return info.param.name; });

/// A case's per-pass digests, "<pass>=<digest>" in pipeline order.
using PassDigests = std::vector<std::string>;

/// tests/fixtures/pass_digests.txt: one "<case> <pass>=<digest> ..." line
/// per case.
const std::map<std::string, PassDigests>& passFixture() {
  static const std::map<std::string, PassDigests> digests = [] {
    std::map<std::string, PassDigests> out;
    std::ifstream in(MAT2C_PASS_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string name, pass;
      if (!(fields >> name)) continue;
      PassDigests& passes = out[name];
      while (fields >> pass) passes.push_back(pass);
    }
    return out;
  }();
  return digests;
}

class PassDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(PassDigest, LirAfterEachPassIsUnchanged) {
  const DigestCase& c = GetParam();
  kernels::KernelSpec spec = kSuites[c.suite].second()[c.kernel];
  CompileOptions options =
      c.coder ? CompileOptions::coderLike(c.preset) : CompileOptions::proposed(c.preset);
  PassDigests got;
  options.tracePasses = [&](const opt::PassRecord& rec, const lir::Function& fn) {
    got.push_back(rec.name + "=" + digestOf(lir::print(fn)));
  };
  Compiler compiler;
  compiler.compileSource(spec.source, spec.entry, spec.argSpecs, options);

  std::string line;
  for (const auto& pass : got) line += " " + pass;
  const auto& fixture = passFixture();
  auto it = fixture.find(c.name);
  if (it != fixture.end() && it->second == got) return;
  std::string moved = "(no fixture line)";
  if (it != fixture.end()) {
    const PassDigests& want = it->second;
    std::size_t k = 0;
    while (k < want.size() && k < got.size() && want[k] == got[k]) ++k;
    moved = k < got.size() ? got[k].substr(0, got[k].find('=')) : "(pass list shrank)";
  }
  ADD_FAILURE() << "first pass that moved: " << moved << "\npass-digest " << c.name << line;
}

INSTANTIATE_TEST_SUITE_P(Corpus, PassDigest, ::testing::ValuesIn(digestCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mat2c
