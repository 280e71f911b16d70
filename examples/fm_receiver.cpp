// A small software-radio receiver chain built from compiled MATLAB stages:
//   channel equalization (fdeq) -> FM demodulation (fmdemod) -> FIR
//   de-emphasis (fir). Each stage is an independently compiled unit; data
//   flows between them as MATLAB matrices. Shows the library driving a
//   multi-kernel application, with per-stage cycle accounting and a
//   whole-chain validation against the interpreter.
//
//   $ ./build/examples/fm_receiver
#include <cmath>
#include <cstdio>

#include "driver/compiler.hpp"
#include "driver/kernels.hpp"
#include "driver/report.hpp"

int main() {
  using namespace mat2c;

  constexpr std::int64_t kSamples = 2048;
  constexpr std::int64_t kTaps = 16;

  // Synthesize an FM signal (varying instantaneous frequency) through a
  // mildly frequency-selective channel.
  kernels::InputGen gen(2026);
  Matrix tx = Matrix::zeros(1, kSamples, /*complex=*/true);
  Matrix channel = Matrix::zeros(1, kSamples, /*complex=*/true);
  double phase = 0.0;
  for (std::int64_t i = 0; i < kSamples; ++i) {
    double msg = std::sin(2.0 * 3.14159265358979 * 3.0 * static_cast<double>(i) /
                          static_cast<double>(kSamples));
    phase += 0.3 + 0.1 * msg;
    double rot = 0.15 * std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) /
                                 static_cast<double>(kSamples));
    tx.set(static_cast<std::size_t>(i), Complex{std::cos(phase), std::sin(phase)});
    channel.set(static_cast<std::size_t>(i), Complex{std::cos(rot), std::sin(rot)});
  }
  // Received = tx rotated by channel; equalizer multiplies by conj(channel).
  Matrix rx = elementwise(ElemOp::Mul, tx, channel);

  Matrix deemph = kernels::makeFir(kSamples, kTaps).args[1];  // reuse generator taps
  for (std::size_t i = 0; i < deemph.numel(); ++i) {
    deemph.set(i, Complex{1.0 / static_cast<double>(kTaps), 0.0});  // moving average
  }

  // Compile the three stages.
  Compiler compiler;
  auto eqK = kernels::makeFdeq(kSamples);
  auto demodK = kernels::makeFmdemod(kSamples);
  auto firK = kernels::makeFir(kSamples, kTaps);
  auto eq = compiler.compileSource(eqK.source, eqK.entry, eqK.argSpecs,
                                   CompileOptions::proposed());
  auto demod = compiler.compileSource(demodK.source, demodK.entry, demodK.argSpecs,
                                      CompileOptions::proposed());
  auto fir = compiler.compileSource(firK.source, firK.entry, firK.argSpecs,
                                    CompileOptions::proposed());

  // Run the chain on the ASIP model.
  auto r1 = eq.run({rx, channel});
  auto r2 = demod.run({r1.outputs[0]});
  auto r3 = fir.run({r2.outputs[0], deemph});

  // Reference: the same chain through the interpreter.
  auto ref1 = interpretReference(eqK.source, eqK.entry, {rx, channel}, 1);
  auto ref2 = interpretReference(demodK.source, demodK.entry, ref1, 1);
  auto ref3 = interpretReference(firK.source, firK.entry, {ref2[0], deemph}, 1);
  double err = compareToReference(ref3, r3.outputs);

  report::Table table({"stage", "kernel", "cycles", "share"});
  double total = r1.cycles.total + r2.cycles.total + r3.cycles.total;
  auto row = [&](const char* stage, const char* kn, double c) {
    table.addRow({stage, kn, report::Table::cycles(c),
                  report::Table::num(100.0 * c / total, 0) + "%"});
  };
  row("1. channel equalizer", "fdeq", r1.cycles.total);
  row("2. FM discriminator", "fmdemod", r2.cycles.total);
  row("3. de-emphasis filter", "fir", r3.cycles.total);
  std::printf("FM receiver chain on the dspx ASIP (%lld samples)\n\n%s\n",
              static_cast<long long>(kSamples), table.toString().c_str());
  std::printf("total cycles: %.0f  (%.2f cycles/sample)\n", total,
              total / static_cast<double>(kSamples));
  std::printf("whole-chain max |error| vs interpreter: %g\n", err);

  // Demodulated output sanity: the recovered message is a ~3 Hz sine riding
  // on the 0.3 rad/sample carrier increment.
  double lo = 1e9;
  double hi = -1e9;
  const Matrix& audio = r3.outputs[0];
  for (std::size_t i = kTaps; i < audio.numel(); ++i) {
    lo = std::min(lo, audio.real(i));
    hi = std::max(hi, audio.real(i));
  }
  std::printf("recovered message swing: [%.3f, %.3f] rad/sample (expected ~0.2..0.4)\n", lo,
              hi);
  return err <= kOracleMaxAbsErr ? 0 : 1;
}
