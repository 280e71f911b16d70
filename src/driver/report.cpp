#include "driver/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

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
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto emitRow = [&](const std::vector<std::string>& row, std::ostringstream& os) {
    os << "| ";
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << cell << std::string(widths[i] - cell.size(), ' ');
      os << (i + 1 < headers_.size() ? " | " : " |");
    }
    os << '\n';
  };
  std::ostringstream os;
  emitRow(headers_, os);
  os << "|";
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    os << std::string(widths[i] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emitRow(row, os);
  return os.str();
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
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

namespace {

std::string jsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

void appendStats(std::ostringstream& os, const char* key, const lir::FunctionStats& s) {
  os << "\"" << key << "\": {\"statements\": " << s.statements << ", \"loops\": " << s.loops
     << ", \"decls\": " << s.decls << ", \"stores\": " << s.stores
     << ", \"boundsChecks\": " << s.boundsChecks << "}";
}

}  // namespace

std::string telemetryJson(const opt::PipelineReport& report, const std::string& entry,
                          const std::string& isaName) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"entry\": " << jsonQuote(entry) << ",\n";
  os << "  \"isa\": " << jsonQuote(isaName) << ",\n";
  os << "  \"totalMillis\": " << jsonNum(report.totalMillis) << ",\n";
  os << "  \"idiomRewrites\": " << report.idiomRewrites << ",\n";
  os << "  \"checksRemoved\": " << report.checksRemoved << ",\n";
  os << "  \"loopsVectorized\": " << report.vec.loopsVectorized << ",\n";
  os << "  \"loopsFused\": " << report.loopsFused << ",\n";
  os << "  \"loopsUnrolled\": " << report.loopsUnrolled << ",\n";
  os << "  \"exprsHoisted\": " << report.exprsHoisted << ",\n";
  os << "  \"scalarsPromoted\": " << report.scalarsPromoted << ",\n";
  os << "  \"cseEliminated\": " << report.cseEliminated << ",\n";
  os << "  \"storesRemoved\": " << report.storesRemoved << ",\n";
  os << "  \"passes\": [";
  for (std::size_t i = 0; i < report.passes.size(); ++i) {
    const opt::PassRecord& p = report.passes[i];
    os << (i ? ",\n    {" : "\n    {");
    os << "\"name\": " << jsonQuote(p.name) << ", ";
    os << "\"millis\": " << jsonNum(p.millis) << ", ";
    appendStats(os, "before", p.before);
    os << ", ";
    appendStats(os, "after", p.after);
    os << ", \"counters\": {\"checksRemoved\": " << p.checksRemoved
       << ", \"idiomRewrites\": " << p.idiomRewrites
       << ", \"loopsVectorized\": " << p.loopsVectorized
       << ", \"loopsFused\": " << p.loopsFused
       << ", \"loopsUnrolled\": " << p.loopsUnrolled
       << ", \"exprsHoisted\": " << p.exprsHoisted
       << ", \"scalarsPromoted\": " << p.scalarsPromoted
       << ", \"cseEliminated\": " << p.cseEliminated
       << ", \"storesRemoved\": " << p.storesRemoved << "}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

Table passTable(const opt::PipelineReport& report) {
  Table t({"pass", "ms", "stmts", "dstmts", "dloops", "ddecls", "counters"});
  for (const opt::PassRecord& p : report.passes) {
    std::string counters;
    auto add = [&](const char* label, int v) {
      if (v == 0) return;
      if (!counters.empty()) counters += ", ";
      counters += label + std::string("=") + std::to_string(v);
    };
    add("checksRemoved", p.checksRemoved);
    add("idiomRewrites", p.idiomRewrites);
    add("loopsVectorized", p.loopsVectorized);
    add("loopsFused", p.loopsFused);
    add("loopsUnrolled", p.loopsUnrolled);
    add("exprsHoisted", p.exprsHoisted);
    add("scalarsPromoted", p.scalarsPromoted);
    add("cseEliminated", p.cseEliminated);
    add("storesRemoved", p.storesRemoved);
    t.addRow({p.name, Table::num(p.millis, 3), std::to_string(p.after.statements),
              std::to_string(p.after.statements - p.before.statements),
              std::to_string(p.after.loops - p.before.loops),
              std::to_string(p.after.decls - p.before.decls), counters});
  }
  return t;
}

JsonField textField(std::string key, std::string_view text) {
  return {std::move(key), jsonQuote(text)};
}

JsonField numField(std::string key, double v, int decimals) {
  return {std::move(key), Table::num(v, decimals)};
}

JsonField objectField(std::string key, const std::vector<JsonField>& members) {
  std::string value = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    value += (i ? ", " : "") + jsonQuote(members[i].key) + ": " + members[i].value;
  }
  return {std::move(key), value + "}"};
}

double geomeanSpeedup(const std::vector<SpeedupRow>& rows) {
  double logSum = 0.0;
  for (const SpeedupRow& r : rows) logSum += std::log(r.speedup);
  return rows.empty() ? 1.0 : std::exp(logSum / static_cast<double>(rows.size()));
}

std::string speedupJson(const std::string& bench, const std::vector<JsonField>& head,
                        const std::vector<SpeedupRow>& rows,
                        const std::vector<JsonField>& tail) {
  auto member = [](const JsonField& f) { return jsonQuote(f.key) + ": " + f.value; };
  std::string out = "{\n  " + member(textField("bench", bench)) + ",\n";
  for (const JsonField& f : head) out += "  " + member(f) + ",\n";
  out += "  \"kernels\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpeedupRow& r = rows[i];
    char err[32];
    std::snprintf(err, sizeof err, "%.3e", r.maxAbsErr);
    std::vector<JsonField> cells{numField("baseline_cycles", r.baselineCycles, 0),
                                 numField("proposed_cycles", r.proposedCycles, 0),
                                 numField("speedup", r.speedup, 4), {"max_abs_err", err}};
    cells.insert(cells.end(), r.extra.begin(), r.extra.end());
    out += "    " + member(objectField(r.name, cells)) + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out += "  },\n  " + member(numField("geomean_speedup", geomeanSpeedup(rows), 4));
  for (const JsonField& f : tail) out += ",\n  " + member(f);
  return out + "\n}\n";
}

}  // namespace mat2c::report
