// Plain-text tables and the one JSON document writer.
#pragma once

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "opt/passes.hpp"

namespace mat2c::report {

/// Monospace table with a header row, column alignment, and a rule line —
/// matches the formatting of the paper-style result tables in
/// EXPERIMENTS.md.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void addRow(std::vector<std::string> cells);
  std::string toString() const;

  /// Convenience formatting used across benches.
  static std::string num(double v, int precision = 1);
  static std::string cycles(double v);  // thousands separators

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable pipeline telemetry (CLI --telemetry-json). One object per
/// executed pass with its wall time, before/after LIR statistics, and
/// pass-specific counters; schema documented in docs/pipeline.md.
std::string telemetryJson(const opt::PipelineReport& report, const std::string& entry,
                          const std::string& isaName);

/// Plain-text per-pass telemetry table (CLI --time-passes, benches).
Table passTable(const opt::PipelineReport& report);

/// One `"key": value` member of a JSON document; `value` is JSON text. Every
/// JSON document mat2c writes (bench, telemetry, service) is built from these.
struct JsonField {
  std::string key;
  std::string value;
};
JsonField textField(std::string_view key, std::string_view text);  // quoted
JsonField numField(std::string_view key, double v, int decimals);  // %.<decimals>f
JsonField boolField(std::string_view key, bool v);
/// Exact integer: printed from the integer itself, never through double.
template <std::integral T>
JsonField intField(std::string_view key, T v) { return {std::string(key), std::to_string(v)}; }
/// `{"k": v, ...}` on one line, or with `multiline` one member per line.
JsonField objectField(std::string_view key, const std::vector<JsonField>& members,
                      bool multiline = false);
/// `[v, ...]` over JSON texts, on one line or one item per line.
JsonField arrayField(std::string_view key, const std::vector<std::string>& items,
                     bool multiline = false);
/// Top-level document: one member per line, nesting indented 2 spaces, final newline.
std::string jsonDocument(const std::vector<JsonField>& members);

/// One kernel row of the speedup schema tools/check_perf.py gates.
struct SpeedupRow {
  std::string name;
  double baselineCycles = 0.0;
  double proposedCycles = 0.0;
  double speedup = 0.0;
  double maxAbsErr = 0.0;
  std::vector<JsonField> extra;  // written after max_abs_err, in order
};

/// Geometric mean of the rows' speedups (1.0 for no rows).
double geomeanSpeedup(const std::vector<SpeedupRow>& rows);

/// The bench speedup document (BENCH_*.json): `bench`, the `head` fields, one
/// `kernels` entry per row in order, `geomean_speedup` over the rows, then
/// the `tail` fields.
std::string speedupJson(const std::string& bench, const std::vector<JsonField>& head,
                        const std::vector<SpeedupRow>& rows,
                        const std::vector<JsonField>& tail = {});

}  // namespace mat2c::report
