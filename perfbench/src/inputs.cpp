#include "workloads.hpp"

namespace perfbench {

RequestPoint Inputs::point(std::size_t index) const {
  RequestPoint p;
  p.isa = index % isas.size();
  std::size_t rest = index / isas.size();
  p.coderLike = rest % 2 == 1;
  p.kernelCase = rest / 2;
  return p;
}

Inputs buildInputs(std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.cases = kernelCases();
  in.isas = isaPresets();
  unsigned s = static_cast<unsigned>(seed % 1000000u) + 1u;
  in.dseCorpus = reseed(mat2c::kernels::dseCorpus(), s);
  in.tuneCorpus = reseed(mat2c::kernels::tuneCorpus(), s);
  in.table1 = reseed(mat2c::kernels::dspBenchmarkSuite(), s);
  return in;
}

}  // namespace perfbench
