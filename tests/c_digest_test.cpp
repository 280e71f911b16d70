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
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>

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
const std::map<std::string, std::string>& fixtureDigests() {
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
  const auto& want = fixtureDigests();
  auto it = want.find(c.name);
  EXPECT_TRUE(it != want.end() && it->second == digest)
      << "c-digest " << c.name << " " << digest;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CDigest, ::testing::ValuesIn(digestCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mat2c
