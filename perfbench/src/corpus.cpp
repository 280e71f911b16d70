#include "corpus.hpp"

#include <stdexcept>

namespace perfbench {

using mat2c::kernels::KernelSpec;
namespace k = mat2c::kernels;

std::vector<KernelCase> kernelCases() {
  std::vector<KernelSpec> specs = {
      k::makeFir(256, 16),         k::makeFir(1024, 64),        k::makeFir(4096, 128),
      k::makeIir(1024, 4),         k::makeIir(4096, 8),         k::makeIir16(1024),
      k::makeIir16(4096),          k::makeMatmul(16, 16, 16),   k::makeMatmul(32, 32, 32),
      k::makeMatmul(48, 48, 48),   k::makeCdot(1024),           k::makeCdot(4096),
      k::makeFdeq(1024),           k::makeFdeq(4096),           k::makeFmdemod(1024),
      k::makeFmdemod(4096),        k::makeXcorr(1024, 48),      k::makeXcorr(2048, 64),
      k::makeBlockDct(64),         k::makeBlockDct(256),        k::makeFramePow(96, 32),
      k::makeFramePow(128, 32),    k::makeFft(64),              k::makeFft(256),
      k::makeFft(1024),            k::makeQrDecomp(16),         k::makeQrDecomp(32),
      k::makeCholesky(16),         k::makeCholesky(32),         k::makeUplink(128),
      k::makeUplink(512),
  };
  std::vector<KernelCase> cases;
  for (auto& s : specs) {
    std::string label = s.name + "@" + std::to_string(s.argSpecs.front().type.shape.numel());
    cases.push_back({std::move(label), std::move(s)});
  }
  return cases;
}

std::vector<std::string> isaPresets() { return mat2c::isa::IsaDescription::presetNames(); }

mat2c::CompileOptions optionsFor(const RequestPoint& p, const std::vector<std::string>& isas) {
  const std::string& isa = isas.at(p.isa);
  return p.coderLike ? mat2c::CompileOptions::coderLike(isa)
                     : mat2c::CompileOptions::proposed(isa);
}

std::string argSpecText(const std::vector<mat2c::sema::ArgSpec>& specs) {
  std::string out;
  for (const auto& s : specs) {
    if (!out.empty()) out += ',';
    if (s.type.elem == mat2c::sema::Elem::Complex) out += 'c';
    out += std::to_string(s.type.shape.rows.extent()) + "x" +
           std::to_string(s.type.shape.cols.extent());
  }
  return out;
}

std::vector<KernelSpec> reseed(const std::vector<KernelSpec>& base, unsigned seed) {
  if (seed == 0) return base;
  std::vector<KernelSpec> out;
  for (const KernelSpec& b : base) {
    auto numel = [&](std::size_t i) { return b.argSpecs.at(i).type.shape.numel(); };
    auto rows = [&](std::size_t i) { return b.argSpecs.at(i).type.shape.rows.extent(); };
    auto cols = [&](std::size_t i) { return b.argSpecs.at(i).type.shape.cols.extent(); };
    // Distinct streams per kernel and seed; the library's own seeds are 1..13.
    unsigned s = seed * 1000u + static_cast<unsigned>(out.size()) + 1u;
    KernelSpec r;
    const std::string& n = b.name;
    if (n == "fir") r = k::makeFir(numel(0), numel(1), s);
    else if (n == "iir") r = k::makeIir(numel(0), rows(1), s);
    else if (n == "iir16") r = k::makeIir16(numel(0), s);
    else if (n == "matmul") r = k::makeMatmul(rows(0), cols(0), cols(1), s);
    else if (n == "cdot") r = k::makeCdot(numel(0), s);
    else if (n == "fdeq") r = k::makeFdeq(numel(0), s);
    else if (n == "fmdemod") r = k::makeFmdemod(numel(0), s);
    else if (n == "xcorr") r = k::makeXcorr(numel(0), numel(1), s);
    else if (n == "blockdct") r = k::makeBlockDct(numel(0) / 8, s);
    else if (n == "framepow") r = k::makeFramePow(numel(0) / numel(1), numel(1), s);
    else if (n == "fft") r = k::makeFft(numel(0), s);
    else if (n == "qr_decomp") r = k::makeQrDecomp(rows(0), s);
    else if (n == "cholesky") r = k::makeCholesky(rows(0), s);
    else if (n == "uplink_chain") r = k::makeUplink(numel(0), s);
    else throw std::invalid_argument("reseed: unknown kernel '" + n + "'");
    if (argSpecText(r.argSpecs) != argSpecText(b.argSpecs))
      throw std::logic_error("reseed: problem size drifted for '" + n + "'");
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
