// Generates the runtime support header embedded in emitted C.
//
// Contains the complex value type, portable complex helpers, and a portable
// fallback definition for every custom instruction the active ISA
// description advertises (spelled with the description's intrinsic names).
// An ASIP C compiler recognizes the intrinsic names; any other C compiler
// just inlines the fallbacks — generated code runs everywhere.
#include <sstream>

#include "codegen/cemit.hpp"

namespace mat2c::codegen {

namespace {

void emitVectorTypes(std::ostringstream& os, int wF, int wC) {
  os << "typedef struct { double v[" << wF << "]; } mat2c_v" << wF << "f64;\n";
  if (wC > 1) {
    os << "typedef struct { mat2c_c64 v[" << wC << "]; } mat2c_v" << wC << "c64;\n";
    if (wC != wF) {
      os << "typedef struct { double v[" << wC << "]; } mat2c_v" << wC << "f64;\n";
    }
  }
}

std::string vf(int w) { return "mat2c_v" + std::to_string(w) + "f64"; }
std::string vc(int w) { return "mat2c_v" + std::to_string(w) + "c64"; }

/// Portable C definition of `op` named `name`, generated from its op-table
/// row. Vector rows loop over `w` lanes of vector type `V`; scalar rows take
/// elements.
void emitFallback(std::ostringstream& os, isa::Op op, const std::string& name, int w,
                  const std::string& V) {
  const isa::OpInfo& m = isa::opInfo(op);
  const std::string E = m.elem == isa::Elem::C64 ? "mat2c_c64" : "double";
  const std::string P = m.vector ? V : E;  // operand type
  std::string params;
  switch (m.shape) {
    case isa::Shape::Load: params = "const " + E + "* p"; break;
    case isa::Shape::Store: params = E + "* p, " + V + " a"; break;
    case isa::Shape::Splat: params = E + " s"; break;
    case isa::Shape::Map3: params = P + " a, " + P + " b, " + P + " c"; break;
    case isa::Shape::Map2: params = P + " a, " + P + " b"; break;
    default: params = P + " a"; break;
  }
  const bool reduce = m.shape == isa::Shape::Sum || m.shape == isa::Shape::Fold;
  const bool store = m.shape == isa::Shape::Store;
  const std::string ret = store ? "void" : reduce || !m.vector ? E : V;
  os << "static inline " << ret << " " << name << "(" << params << ") {";
  if (!m.vector) {
    os << m.fallback << "}\n";
    return;
  }
  const bool fold = m.shape == isa::Shape::Fold;
  const std::string loop =
      std::string("  for (i = ") + (fold ? "1" : "0") + "; i < " + std::to_string(w) + "; ++i) ";
  if (store) {
    os << "\n  int i;\n" << loop << m.fallback << ";\n}\n";
  } else if (reduce) {
    os << "\n  " << E << " s = " << (fold ? "a.v[0]" : "0.0") << "; int i;\n"
       << loop << m.fallback << ";\n  return s;\n}\n";
  } else {
    os << "\n  " << V << " r; int i;\n" << loop << "r.v[i] = " << m.fallback
       << ";\n  return r;\n}\n";
  }
}

/// Fallbacks for every supported vector op of element kind `elem`, at `w`
/// lanes. Names carry a _w<N> suffix below the ISA's full width (the f64 ops
/// used inside complex loops).
void emitVectorSet(std::ostringstream& os, const isa::IsaDescription& isa, isa::Elem elem,
                   int w) {
  const bool cplx = elem == isa::Elem::C64;
  const int fullW = cplx ? isa.lanesC64() : isa.lanesF64();
  for (int i = 0; i < isa::kNumOps; ++i) {
    const auto op = static_cast<isa::Op>(i);
    const isa::OpInfo& m = isa::opInfo(op);
    if (!m.vector || m.elem != elem || !isa.supports(op)) continue;
    std::string name = isa.intrinsicName(op);
    if (w != fullW) name += "_w" + std::to_string(w);
    emitFallback(os, op, name, w, cplx ? vc(w) : vf(w));
  }
}

}  // namespace

std::string runtimeHeader(const isa::IsaDescription& isa) {
  std::ostringstream os;
  os << "/* mat2c runtime support — target: " << isa.name() << "\n"
     << " * f64 SIMD lanes: " << isa.lanesF64() << ", c64 SIMD lanes: " << isa.lanesC64()
     << ", fma: " << (isa.hasFma() ? "yes" : "no")
     << ", cmul: " << (isa.hasCmul() ? "yes" : "no")
     << ", cmac: " << (isa.hasCmac() ? "yes" : "no") << "\n"
     << " * Intrinsics below are portable fallbacks; an ASIP toolchain maps the\n"
     << " * same names onto custom instructions. */\n"
     << "#include <math.h>\n"
     << "#include <stdint.h>\n"
     << "#include <stdio.h>\n"
     << "#include <stdlib.h>\n"
     << "#include <string.h>\n\n"
     << "typedef struct { double re, im; } mat2c_c64;\n";
  emitVectorTypes(os, isa.lanesF64(), isa.lanesC64());
  os << "\n/* -- complex scalar helpers (portable) -- */\n"
     << "static inline mat2c_c64 mat2c_make(double re, double im) {\n"
     << "  mat2c_c64 r; r.re = re; r.im = im; return r;\n}\n"
     << "static inline mat2c_c64 mat2c_cadd(mat2c_c64 a, mat2c_c64 b) {\n"
     << "  return mat2c_make(a.re + b.re, a.im + b.im);\n}\n"
     << "static inline mat2c_c64 mat2c_csub(mat2c_c64 a, mat2c_c64 b) {\n"
     << "  return mat2c_make(a.re - b.re, a.im - b.im);\n}\n"
     << "static inline mat2c_c64 mat2c_cmul(mat2c_c64 a, mat2c_c64 b) {\n"
     << "  return mat2c_make(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re);\n}\n"
     << "static inline mat2c_c64 mat2c_cdiv(mat2c_c64 a, mat2c_c64 b) {\n"
     << "  double d = b.re * b.re + b.im * b.im;\n"
     << "  return mat2c_make((a.re * b.re + a.im * b.im) / d,\n"
     << "                    (a.im * b.re - a.re * b.im) / d);\n}\n"
     << "static inline mat2c_c64 mat2c_cneg(mat2c_c64 a) { return mat2c_make(-a.re, -a.im); }\n"
     << "static inline mat2c_c64 mat2c_conj(mat2c_c64 a) { return mat2c_make(a.re, -a.im); }\n"
     << "static inline double mat2c_cabs(mat2c_c64 a) { return hypot(a.re, a.im); }\n"
     << "static inline double mat2c_carg(mat2c_c64 a) { return atan2(a.im, a.re); }\n"
     << "static inline mat2c_c64 mat2c_cexp(mat2c_c64 a) {\n"
     << "  double m = exp(a.re);\n"
     << "  return mat2c_make(m * cos(a.im), m * sin(a.im));\n}\n"
     << "static inline mat2c_c64 mat2c_clog(mat2c_c64 a) {\n"
     << "  return mat2c_make(log(mat2c_cabs(a)), mat2c_carg(a));\n}\n"
     << "static inline mat2c_c64 mat2c_csqrt_(mat2c_c64 a) {\n"
     << "  double m = sqrt(mat2c_cabs(a));\n"
     << "  double ph = 0.5 * mat2c_carg(a);\n"
     << "  return mat2c_make(m * cos(ph), m * sin(ph));\n}\n"
     << "static inline mat2c_c64 mat2c_cpow(mat2c_c64 a, mat2c_c64 b) {\n"
     << "  return mat2c_cexp(mat2c_cmul(b, mat2c_clog(a)));\n}\n"
     << "static inline int mat2c_ceq(mat2c_c64 a, mat2c_c64 b) {\n"
     << "  return a.re == b.re && a.im == b.im;\n}\n"
     << "static inline double mat2c_min(double a, double b) { return b < a ? b : a; }\n"
     << "static inline double mat2c_max(double a, double b) { return a < b ? b : a; }\n"
     << "static inline double mat2c_sign(double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); }\n"
     << "static inline double mat2c_mod(double x, double m) {\n"
     << "  return m == 0.0 ? x : x - floor(x / m) * m;\n}\n"
     << "static inline double mat2c_rem(double x, double m) {\n"
     << "  return m == 0.0 ? x : fmod(x, m);\n}\n"
     << "static inline void mat2c_check(int64_t idx, int64_t n, const char* what) {\n"
     << "  if (idx < 0 || idx >= n) {\n"
     << "    fprintf(stderr, \"mat2c: index %lld out of bounds for %s (%lld elements)\\n\",\n"
     << "            (long long)idx, what, (long long)n);\n"
     << "    abort();\n  }\n}\n";

  bool scalarSection = false;
  for (int i = 0; i < isa::kNumOps; ++i) {
    const auto op = static_cast<isa::Op>(i);
    if (isa::isVectorOp(op) || !isa.usesIntrinsic(op)) continue;
    if (!scalarSection) os << "\n/* -- scalar custom instructions -- */\n";
    scalarSection = true;
    emitFallback(os, op, isa.intrinsicName(op), 1, "");
  }

  if (isa.lanesF64() > 1) {
    os << "\n/* -- " << isa.lanesF64() << "-lane f64 SIMD intrinsics -- */\n";
    emitVectorSet(os, isa, isa::Elem::F64, isa.lanesF64());
    if (isa.lanesC64() > 1 && isa.lanesC64() != isa.lanesF64()) {
      os << "\n/* -- " << isa.lanesC64() << "-lane f64 ops (complex-loop width) -- */\n";
      emitVectorSet(os, isa, isa::Elem::F64, isa.lanesC64());
    }
  }
  if (const int w = isa.lanesC64(); w > 1) {
    os << "\n/* -- " << w << "-lane c64 SIMD intrinsics -- */\n";
    emitVectorSet(os, isa, isa::Elem::C64, w);
    // Lane-wise f64 -> c64 widen and complex construction at this width.
    const std::string T = vc(w);
    const std::string TF = vf(w);
    os << "static inline " << T << " mat2c_v" << w << "toc(" << TF << " a) {\n  " << T
       << " r; int i;\n  for (i = 0; i < " << w
       << "; ++i) { r.v[i].re = a.v[i]; r.v[i].im = 0.0; }\n  return r;\n}\n";
    os << "static inline " << T << " mat2c_v" << w << "make(" << TF << " a, " << TF
       << " b) {\n  " << T << " r; int i;\n  for (i = 0; i < " << w
       << "; ++i) { r.v[i].re = a.v[i]; r.v[i].im = b.v[i]; }\n  return r;\n}\n";
  }
  os << "\n";
  return os.str();
}

}  // namespace mat2c::codegen
