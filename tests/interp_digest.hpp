// Bit-exact digests of reference-interpreter results.
//
// A digest is FNV-1a 64 over every value as text: shape, the complex,
// logical and string flags, then each element's real and imaginary parts
// as hex floats, NaN unsigned. tests/fixtures/interp_digests.txt holds one
// "<case> <digest>" line per case, written by the interpreter before its
// inline-scalar rewrite; a missing or different entry fails the check and
// prints "interp-digest <case> <digest>", the line to put in the fixture.
// A case that raises a RuntimeError digests the error message instead.
#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "interp/interpreter.hpp"

namespace mat2c::testing_digest {

/// Every NaN is spelled "nan": when both operands of an IEEE add are NaN,
/// which one the result carries (and so its sign) depends on the operand
/// order the compiler picks.
inline std::string hexFloat(double x) {
  if (std::isnan(x)) return "nan ";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a ", x);
  return buf;
}

/// One value as digest text: "<rows>x<cols><c|r><l?><s?> re [im] ...".
inline std::string valueText(const Matrix& m) {
  std::string text = std::to_string(m.rows()) + "x" + std::to_string(m.cols()) +
                     (m.isComplex() ? "c" : "r") + (m.isLogical() ? "l" : "") +
                     (m.isString() ? "s" : "") + " ";
  for (std::size_t i = 0; i < m.numel(); ++i)
    text += hexFloat(m.real(i)) + (m.isComplex() ? hexFloat(m.imag(i)) : "");
  return text + "| ";
}

inline std::string digestOf(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

inline std::string digestValues(const std::vector<Matrix>& values) {
  std::string text;
  for (const Matrix& m : values) text += valueText(m);
  return digestOf(text);
}

/// A script workspace: every variable by name, in name order.
inline std::string digestWorkspace(const std::map<std::string, Matrix>& vars) {
  std::string text;
  for (const auto& [name, m] : vars) text += name + "=" + valueText(m);
  return digestOf(text);
}

inline std::string digestError(const std::string& message) {
  return digestOf("error: " + message);
}

inline const std::map<std::string, std::string>& fixture() {
  static const std::map<std::string, std::string> digests = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(MAT2C_INTERP_DIGESTS);
    std::string name, digest;
    while (in >> name >> digest) out[name] = digest;
    return out;
  }();
  return digests;
}

inline void expectDigest(const std::string& caseName, const std::string& digest) {
  auto it = fixture().find(caseName);
  EXPECT_TRUE(it != fixture().end() && it->second == digest)
      << "interp-digest " << caseName << " " << digest;
}

/// "<Suite>.<Test>.<k>" for the k-th digest the running test checks.
inline std::string nextCaseName() {
  static std::map<std::string, int> counts;
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  return test + "." + std::to_string(counts[test]++);
}

/// Runs the script and checks the digest of its workspace, or of the
/// RuntimeError it raises (then rethrown), as case nextCaseName().
inline std::map<std::string, Matrix> runScriptDigested(Interpreter& interp) {
  const std::string caseName = nextCaseName();
  try {
    auto vars = interp.runScript();
    expectDigest(caseName, digestWorkspace(vars));
    return vars;
  } catch (const RuntimeError& e) {
    expectDigest(caseName, digestError(e.what()));
    throw;
  }
}

}  // namespace mat2c::testing_digest
