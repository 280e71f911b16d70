#include "driver/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/string_utils.hpp"

namespace mat2c::report {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::addRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::toString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  }
  std::string out;
  auto emitRow = [&](const std::vector<std::string>& row) {
    out += "| ";
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      out += cell + std::string(widths[i] - cell.size(), ' ');
      out += i + 1 < headers_.size() ? " | " : " |";
    }
    out += '\n';
  };
  emitRow(headers_);
  out += "|";
  for (std::size_t width : widths) out += std::string(width + 2, '-') + "|";
  out += '\n';
  for (const auto& row : rows_) emitRow(row);
  return out;
}

std::string Table::num(double v, int precision) {
  char buf[400];  // printf's %.<precision>f text of any double, precision <= 80
  auto result = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
  return std::string(buf, result.ptr);
}

std::string Table::cycles(double v) {
  auto raw = std::to_string(static_cast<long long>(v + 0.5));
  std::string out;
  int count = 0;
  for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
    if (count && count % 3 == 0 && *it != '-') out += ',';
    out += *it;
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

JsonField textField(std::string_view key, std::string_view text) {
  JsonField f{std::string(key), {}};
  appendJsonQuoted(f.value, text);
  return f;
}

JsonField numField(std::string_view key, double v, int decimals) {
  return {std::string(key), Table::num(v, decimals)};
}

JsonField boolField(std::string_view key, bool v) {
  return {std::string(key), v ? "true" : "false"};
}

namespace {

/// Appends an item's `"key": ` (none for an array item) and returns its JSON text.
std::string_view startItem(std::string& out, const JsonField& member) {
  appendJsonQuoted(out, member.key);
  out += ": ";
  return member.value;
}
std::string_view startItem(std::string&, const std::string& item) { return item; }

/// `open`, the items and `close`: comma-separated on one line, or with
/// `multiline` one item per line, its own nested lines one level deeper.
template <typename Item>
std::string container(char open, const std::vector<Item>& items, char close, bool multiline) {
  std::string out(1, open);
  out.reserve(32 * items.size() + 2);
  for (const Item& item : items) {
    if (&item != items.data()) out += multiline ? "," : ", ";
    if (multiline) out += "\n  ";
    std::string_view rest = startItem(out, item);
    for (std::size_t nl; multiline && (nl = rest.find('\n')) != rest.npos;
         rest.remove_prefix(nl + 1)) {
      out.append(rest.substr(0, nl + 1)).append("  ");
    }
    out += rest;
  }
  if (multiline) out += '\n';
  out += close;
  return out;
}

JsonField functionStats(std::string_view key, const lir::FunctionStats& s) {
  return objectField(key, {intField("statements", s.statements), intField("loops", s.loops),
                           intField("decls", s.decls), intField("stores", s.stores),
                           intField("boundsChecks", s.boundsChecks)});
}

}  // namespace

JsonField objectField(std::string_view key, const std::vector<JsonField>& fields,
                      bool multiline) {
  return {std::string(key), container('{', fields, '}', multiline)};
}

JsonField arrayField(std::string_view key, const std::vector<std::string>& items,
                     bool multiline) {
  return {std::string(key), container('[', items, ']', multiline)};
}

std::string jsonDocument(const std::vector<JsonField>& fields) {
  return objectField("", fields, true).value + "\n";
}

std::string telemetryJson(const opt::PipelineReport& report, const std::string& entry,
                          const std::string& isaName) {
  std::vector<JsonField> doc{textField("entry", entry), textField("isa", isaName),
                             numField("totalMillis", report.totalMillis, 6)};
#define MAT2C_TOTAL(field, total) doc.push_back(intField(#field, report.total));
  MAT2C_PASS_COUNTERS(MAT2C_TOTAL)
#undef MAT2C_TOTAL
  std::vector<std::string> passes;
  for (const opt::PassRecord& p : report.passes) {
    std::vector<JsonField> counters;
#define MAT2C_COUNTER(field, total) counters.push_back(intField(#field, p.field));
    MAT2C_PASS_COUNTERS(MAT2C_COUNTER)
#undef MAT2C_COUNTER
    passes.push_back(objectField("", {textField("name", p.name), numField("millis", p.millis, 6),
                                      functionStats("before", p.before),
                                      functionStats("after", p.after),
                                      objectField("counters", counters)}).value);
  }
  doc.push_back(arrayField("passes", passes, true));
  return jsonDocument(doc);
}

Table passTable(const opt::PipelineReport& report) {
  Table t({"pass", "ms", "stmts", "dstmts", "dloops", "ddecls", "counters"});
  for (const opt::PassRecord& p : report.passes) {
    std::vector<std::string> counters;
#define MAT2C_COUNTER(field, total) \
  if (p.field != 0) counters.push_back(#field "=" + std::to_string(p.field));
    MAT2C_PASS_COUNTERS(MAT2C_COUNTER)
#undef MAT2C_COUNTER
    t.addRow({p.name, Table::num(p.millis, 3), std::to_string(p.after.statements),
              std::to_string(p.after.statements - p.before.statements),
              std::to_string(p.after.loops - p.before.loops),
              std::to_string(p.after.decls - p.before.decls), join(counters, ", ")});
  }
  return t;
}

double geomeanSpeedup(const std::vector<SpeedupRow>& rows) {
  double logSum = 0.0;
  for (const SpeedupRow& r : rows) logSum += std::log(r.speedup);
  return rows.empty() ? 1.0 : std::exp(logSum / static_cast<double>(rows.size()));
}

std::string speedupJson(const std::string& bench, const std::vector<JsonField>& head,
                        const std::vector<SpeedupRow>& rows,
                        const std::vector<JsonField>& tail) {
  std::vector<JsonField> doc{textField("bench", bench)};
  doc.insert(doc.end(), head.begin(), head.end());
  std::vector<JsonField> kernels;
  for (const SpeedupRow& r : rows) {
    char err[32];
    std::snprintf(err, sizeof err, "%.3e", r.maxAbsErr);
    std::vector<JsonField> cells{numField("baseline_cycles", r.baselineCycles, 0),
                                 numField("proposed_cycles", r.proposedCycles, 0),
                                 numField("speedup", r.speedup, 4), {"max_abs_err", err}};
    cells.insert(cells.end(), r.extra.begin(), r.extra.end());
    kernels.push_back(objectField(r.name, cells));
  }
  doc.push_back(objectField("kernels", kernels, true));
  doc.push_back(numField("geomean_speedup", geomeanSpeedup(rows), 4));
  doc.insert(doc.end(), tail.begin(), tail.end());
  return jsonDocument(doc);
}

}  // namespace mat2c::report
