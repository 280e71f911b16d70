#include "service/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "driver/report.hpp"
#include "support/binary_io.hpp"
#include "support/string_utils.hpp"

namespace mat2c::service {

namespace {

/// Recursive-descent JSON reader over a string_view. Depth-limited so a
/// hostile request line cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string& error) {
    JsonValue v;
    if (!parseValue(v, 0)) {
      error = error_ + " (at byte " + std::to_string(pos_) + ")";
      return std::nullopt;
    }
    skipWs();
    if (pos_ != text_.size()) {
      error = "trailing characters after JSON document (at byte " + std::to_string(pos_) + ")";
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c, const char* what) {
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return fail(std::string("expected ") + what);
    ++pos_;
    return true;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return parseObject(out, depth);
    if (c == '[') return parseArray(out, depth);
    if (c == '"') {
      out.kind = JsonValue::Kind::String;
      return parseString(out.text);
    }
    if (c == 't' || c == 'f') return parseKeyword(out);
    if (c == 'n') return parseKeyword(out);
    return parseNumber(out);
  }

  bool parseObject(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected object key");
      std::string key;
      if (!parseString(key)) return false;
      if (!consume(':', "':'")) return false;
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}', "'}'");
    }
  }

  bool parseArray(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.elements.push_back(std::move(value));
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']', "']'");
    }
  }

  bool parseString(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("unescaped control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — MATLAB sources are ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseKeyword(JsonValue& out) {
    auto match = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.kind = JsonValue::Kind::Null;
      return true;
    }
    return fail("unknown keyword");
  }

  bool parseNumber(JsonValue& out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    out.kind = JsonValue::Kind::Number;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Strict positive-integer parse (rejects signs, trailing junk, overflow).
bool parsePositiveInt(std::string_view s, std::int64_t& out) {
  if (s.empty()) return false;
  std::int64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    int digit = ch - '0';
    if (v > (INT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  if (v <= 0) return false;
  out = v;
  return true;
}

bool parseOneArgSpec(std::string_view text, sema::ArgSpec& out) {
  std::string_view t = text;
  bool complex = false;
  if (!t.empty() && (t[0] == 'c' || t[0] == 'C')) {
    complex = true;
    t = t.substr(1);
  }
  auto xPos = t.find('x');
  if (xPos == std::string_view::npos) return false;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  if (!parsePositiveInt(t.substr(0, xPos), rows) || !parsePositiveInt(t.substr(xPos + 1), cols)) {
    return false;
  }
  out = sema::ArgSpec::matrix(rows, cols, complex);
  return true;
}

/// A pass toggle the wire carries (an opt/passes.def row with a wire bit):
/// its JSON key, its bit in the binary presence/value masks, and the fields
/// it links.
struct WireToggle {
  const char* key;
  std::uint8_t bit;
  std::optional<bool> WireRequest::*wire;
  bool CompileOptions::*option;
};

const std::vector<WireToggle>& wireToggles() {
  static const std::vector<WireToggle> toggles = [] {
    std::vector<WireToggle> rows;
#define WIRE(bit)                                    \
  [&](const char* key, auto wire, auto option) {     \
    rows.push_back({key, 1u << (bit), wire, option}); \
  }
#define NO_WIRE(...)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, flag, wire, ...) \
  wire(key, &WireRequest::field, &CompileOptions::field);
#include "opt/passes.def"
    return rows;
  }();
  return toggles;
}

const WireToggle* findToggle(std::string_view key) {
  for (const WireToggle& t : wireToggles()) {
    if (key == t.key) return &t;
  }
  return nullptr;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> parseJson(std::string_view text, std::string& error) {
  return JsonParser(text).parse(error);
}

bool parseArgSpecList(const std::string& text, std::vector<sema::ArgSpec>& out,
                      std::string& badSpec) {
  out.clear();
  if (trim(text).empty()) return true;
  for (const auto& part : split(text, ',')) {
    std::string token{trim(part)};
    sema::ArgSpec spec;
    if (!parseOneArgSpec(token, spec)) {
      badSpec = token;
      return false;
    }
    out.push_back(spec);
  }
  return true;
}

bool WireRequest::resolve(CompileRequest& out, std::string& error) const {
  out = CompileRequest{};
  out.id = id;
  out.source = source;
  out.entry = entry;
  out.tune = tune;
  out.tuneBudget = tuneBudget;
  out.deadlineMillis = deadlineMillis;

  if (!admin.empty()) {
    error = "admin request reached the compile path (serve-loop bug)";
    return false;
  }
  if (out.source.empty()) {
    error = "missing required field 'source'";
    return false;
  }
  if (out.entry.empty()) {
    error = "missing required field 'entry'";
    return false;
  }
  std::string badSpec;
  if (!parseArgSpecList(args, out.args, badSpec)) {
    error = "bad arg spec '" + badSpec + "'";
    return false;
  }

  if (style == "proposed") {
    out.options = CompileOptions::proposed();
  } else if (style == "coder") {
    out.options = CompileOptions::coderLike();
  } else {
    error = "unknown style '" + style + "' (want 'proposed' or 'coder')";
    return false;
  }
  if (!isaText.empty()) {
    DiagnosticEngine diags;
    out.options.isa = isa::IsaDescription::parse(isaText, diags);
    if (diags.hasErrors()) {
      error = "bad isa_text: " + diags.renderAll();
      return false;
    }
  } else if (!isa.empty()) {
    try {
      out.options.isa = isa::IsaDescription::preset(isa);
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  }
  for (const WireToggle& t : wireToggles()) {
    if (const std::optional<bool>& v = this->*t.wire) out.options.*t.option = *v;
  }
  return true;
}

bool parseWireRequest(std::string_view line, WireRequest& out, std::string& error,
                      ErrorKind* kind, const ProtocolLimits& limits) {
  // Failures below are the client's malformed input unless re-classified.
  if (kind) *kind = ErrorKind::ParseError;

  if (limits.maxRequestBytes > 0 && line.size() > limits.maxRequestBytes) {
    error = "request line is " + std::to_string(line.size()) + " bytes (limit " +
            std::to_string(limits.maxRequestBytes) + ")";
    if (kind) *kind = ErrorKind::ResourceExhausted;
    return false;
  }

  auto doc = parseJson(line, error);
  if (!doc) return false;
  if (doc->kind != JsonValue::Kind::Object) {
    error = "request must be a JSON object";
    return false;
  }

  WireRequest req;
  for (const auto& [key, value] : doc->members) {
    auto wantString = [&](std::string& dst) {
      if (value.kind != JsonValue::Kind::String) {
        error = "field '" + key + "' must be a string";
        return false;
      }
      dst = value.text;
      return true;
    };
    auto wantBool = [&](std::optional<bool>& dst) {
      if (value.kind != JsonValue::Kind::Bool) {
        error = "field '" + key + "' must be a boolean";
        return false;
      }
      dst = value.boolean;
      return true;
    };
    if (key == "id") {
      if (!wantString(req.id)) return false;
    } else if (key == "source") {
      if (!wantString(req.source)) return false;
    } else if (key == "entry") {
      if (!wantString(req.entry)) return false;
    } else if (key == "args") {
      if (!wantString(req.args)) return false;
    } else if (key == "isa") {
      if (!wantString(req.isa)) return false;
    } else if (key == "isa_text") {
      if (!wantString(req.isaText)) return false;
    } else if (key == "style") {
      if (!wantString(req.style)) return false;
    } else if (key == "admin") {
      if (!wantString(req.admin)) return false;
    } else if (const WireToggle* t = findToggle(key)) {
      if (!wantBool(req.*t->wire)) return false;
    } else if (key == "deadline_ms") {
      if (value.kind != JsonValue::Kind::Number || value.number < 0) {
        error = "field 'deadline_ms' must be a non-negative number";
        return false;
      }
      req.deadlineMillis = value.number;
    } else if (key == "tune") {
      if (value.kind != JsonValue::Kind::Bool) {
        error = "field 'tune' must be a boolean";
        return false;
      }
      req.tune = value.boolean;
    } else if (key == "tune_budget") {
      if (value.kind != JsonValue::Kind::Number || value.number < 1 ||
          value.number != static_cast<double>(static_cast<int>(value.number))) {
        error = "field 'tune_budget' must be a positive integer";
        return false;
      }
      req.tuneBudget = static_cast<int>(value.number);
    } else {
      error = "unknown request field '" + key + "'";
      return false;
    }
  }

  out = std::move(req);
  if (kind) *kind = ErrorKind::None;
  return true;
}

bool parseCompileRequest(std::string_view line, CompileRequest& out, std::string& error,
                         ErrorKind* kind, const ProtocolLimits& limits) {
  WireRequest req;
  if (!parseWireRequest(line, req, error, kind, limits)) return false;
  if (kind) *kind = ErrorKind::ParseError;
  if (!req.resolve(out, error)) return false;
  if (kind) *kind = ErrorKind::None;
  return true;
}

BinaryResponse::BinaryResponse(const CompileResponse& response)
    : id(response.id),
      ok(response.ok),
      cached(response.cacheHit),
      deduped(response.deduped),
      storeHit(response.storeHit),
      errorKind(response.errorKind),
      millis(response.millis),
      error(response.error),
      adminInfo(response.adminInfo) {
  if (!response.ok || !response.result) return;
  // Denormalized metadata, not the CompiledUnit: store-rehydrated entries
  // carry no LIR, and the response must not depend on having one.
  const CachedResult& res = *response.result;
  isa = res.isaName;
  cBytes = res.cCode.size();
  loopsVectorized = res.loopsVectorized;
  idiomRewrites = res.idiomRewrites;
  degraded = res.degraded;
  tuned = res.tuned();
  tunedSignature = res.tunedSignature;
  tuneCandidates = res.tuneCandidates;
  tunedCycles = res.tunedCycles;
  tuneDefaultCycles = res.tuneDefaultCycles;
}

std::string responseJson(const BinaryResponse& response) {
  using namespace report;
  std::vector<JsonField> fields;
  fields.reserve(16);
  auto add = [&fields](auto&&... more) { (fields.push_back(std::move(more)), ...); };
  add(textField("id", response.id), boolField("ok", response.ok),
      boolField("cached", response.cached), boolField("deduped", response.deduped),
      numField("millis", response.millis, 3));
  if (response.storeHit) add(boolField("storeHit", true));
  if (!response.adminInfo.empty()) add(textField("adminInfo", response.adminInfo));
  if (!response.ok) {
    add(textField("error", response.error), textField("errorKind", toString(response.errorKind)));
  } else if (response.adminInfo.empty()) {
    add(textField("isa", response.isa), intField("cBytes", response.cBytes),
        intField("loopsVectorized", response.loopsVectorized),
        intField("idiomRewrites", response.idiomRewrites));
    if (response.tuned) {
      add(boolField("tuned", true), textField("tunedSignature", response.tunedSignature),
          intField("tuneCandidates", response.tuneCandidates),
          numField("tunedCycles", response.tunedCycles, 1),
          numField("tuneDefaultCycles", response.tuneDefaultCycles, 1));
    }
    if (!response.degraded.empty()) {
      std::vector<std::string> passes;
      for (const std::string& pass : response.degraded) passes.push_back(textField("", pass).value);
      add(arrayField("degraded", passes));
    }
  }
  return objectField("", fields).value;
}

// --- binary framing --------------------------------------------------------

namespace {

// Response flag bits.
constexpr std::uint8_t kRespOk = 1 << 0;
constexpr std::uint8_t kRespCached = 1 << 1;
constexpr std::uint8_t kRespDeduped = 1 << 2;
constexpr std::uint8_t kRespStoreHit = 1 << 3;
constexpr std::uint8_t kRespTuned = 1 << 4;

void packOptional(const std::optional<bool>& v, std::uint8_t bit, std::uint8_t& present,
                  std::uint8_t& value) {
  if (!v) return;
  present |= bit;
  if (*v) value |= bit;
}

std::optional<bool> unpackOptional(std::uint8_t bit, std::uint8_t present, std::uint8_t value) {
  if (!(present & bit)) return std::nullopt;
  return (value & bit) != 0;
}

}  // namespace

std::string encodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kBinaryMagic, sizeof kBinaryMagic);
  bin::appendU16(out, kBinaryVersion);
  bin::appendU16(out, static_cast<std::uint16_t>(type));
  bin::appendU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

bool decodeFrameHeader(std::string_view header, std::size_t maxPayloadBytes, FrameHeader& out,
                       std::string& error) {
  if (header.size() != kFrameHeaderBytes) {
    error = "truncated frame header";
    return false;
  }
  if (std::memcmp(header.data(), kBinaryMagic, sizeof kBinaryMagic) != 0) {
    error = "bad frame magic";
    return false;
  }
  bin::Reader r(header.substr(sizeof kBinaryMagic));
  std::uint16_t version = 0;
  std::uint16_t rawType = 0;
  std::uint32_t payloadLen = 0;
  r.u16(version);
  r.u16(rawType);
  r.u32(payloadLen);
  if (version != kBinaryVersion) {
    error = "unsupported frame version " + std::to_string(version);
    return false;
  }
  if (rawType != static_cast<std::uint16_t>(FrameType::Request) &&
      rawType != static_cast<std::uint16_t>(FrameType::Response)) {
    error = "unknown frame type " + std::to_string(rawType);
    return false;
  }
  if (maxPayloadBytes > 0 && payloadLen > maxPayloadBytes) {
    error = "frame payload is " + std::to_string(payloadLen) + " bytes (limit " +
            std::to_string(maxPayloadBytes) + ")";
    return false;
  }
  out.type = static_cast<FrameType>(rawType);
  out.payloadLen = payloadLen;
  return true;
}

int readFrame(std::istream& in, FrameType& type, std::string& payload, std::string& error,
              const ProtocolLimits& limits) {
  char header[kFrameHeaderBytes];
  in.read(header, sizeof header);
  std::streamsize got = in.gcount();
  if (got == 0 && in.eof()) return 0;  // clean end between frames
  FrameHeader h;
  if (!decodeFrameHeader(std::string_view(header, static_cast<std::size_t>(got)),
                         limits.maxRequestBytes, h, error)) {
    return -1;
  }
  payload.resize(h.payloadLen);
  if (h.payloadLen > 0) {
    in.read(payload.data(), static_cast<std::streamsize>(h.payloadLen));
    if (in.gcount() != static_cast<std::streamsize>(h.payloadLen)) {
      error = "truncated frame payload";
      return -1;
    }
  }
  type = h.type;
  return 1;
}

std::string encodeBinaryRequest(const WireRequest& req) {
  std::string out;
  bin::appendStr(out, req.id);
  bin::appendStr(out, req.source);
  bin::appendStr(out, req.entry);
  bin::appendStr(out, req.args);
  bin::appendStr(out, req.isa);
  bin::appendStr(out, req.isaText);
  bin::appendStr(out, req.style);
  std::uint8_t present = 0;
  std::uint8_t value = 0;
  for (const WireToggle& t : wireToggles()) packOptional(req.*t.wire, t.bit, present, value);
  bin::appendU8(out, present);
  bin::appendU8(out, value);
  bin::appendU8(out, req.tune ? 1 : 0);
  bin::appendI32(out, req.tuneBudget);
  bin::appendF64(out, req.deadlineMillis);
  bin::appendStr(out, req.admin);
  return out;
}

bool decodeBinaryRequest(std::string_view payload, WireRequest& out, std::string& error) {
  out = WireRequest{};
  bin::Reader r(payload);
  std::uint8_t present = 0;
  std::uint8_t value = 0;
  std::uint8_t flags = 0;
  std::int32_t tuneBudget = 0;
  double deadline = 0.0;
  if (!r.str(out.id) || !r.str(out.source) || !r.str(out.entry) || !r.str(out.args) ||
      !r.str(out.isa) || !r.str(out.isaText) || !r.str(out.style) ||
      !r.u8(present) || !r.u8(value) || !r.u8(flags) || !r.i32(tuneBudget) ||
      !r.f64(deadline) || !r.str(out.admin) || !r.done()) {
    error = "malformed request payload";
    return false;
  }
  for (const WireToggle& t : wireToggles()) out.*t.wire = unpackOptional(t.bit, present, value);
  out.tune = (flags & 1) != 0;
  if (tuneBudget < 0) {
    error = "field 'tune_budget' must be a positive integer";
    return false;
  }
  out.tuneBudget = tuneBudget;
  if (!(deadline >= 0.0) || std::isnan(deadline)) {
    error = "field 'deadline_ms' must be a non-negative number";
    return false;
  }
  out.deadlineMillis = deadline;
  return true;
}

std::string encodeBinaryResponse(const BinaryResponse& response) {
  // Exact payload size: five u32-prefixed strings, the degraded list, and
  // 50 bytes of fixed-width fields.
  std::size_t size = 5 * 4 + 50 + response.id.size() + response.error.size() +
                     response.isa.size() + response.tunedSignature.size() +
                     response.adminInfo.size();
  for (const std::string& d : response.degraded) size += 4 + d.size();
  std::string out;
  out.reserve(size);
  bin::appendStr(out, response.id);
  std::uint8_t flags = 0;
  if (response.ok) flags |= kRespOk;
  if (response.cached) flags |= kRespCached;
  if (response.deduped) flags |= kRespDeduped;
  if (response.storeHit) flags |= kRespStoreHit;
  if (response.tuned) flags |= kRespTuned;
  bin::appendU8(out, flags);
  bin::appendU8(out, static_cast<std::uint8_t>(response.errorKind));
  bin::appendF64(out, response.millis);
  bin::appendStr(out, response.error);
  bin::appendStr(out, response.isa);
  bin::appendU64(out, response.cBytes);
  bin::appendI32(out, response.loopsVectorized);
  bin::appendI32(out, response.idiomRewrites);
  bin::appendU32(out, static_cast<std::uint32_t>(response.degraded.size()));
  for (const std::string& d : response.degraded) bin::appendStr(out, d);
  bin::appendStr(out, response.tunedSignature);
  bin::appendI32(out, response.tuneCandidates);
  bin::appendF64(out, response.tunedCycles);
  bin::appendF64(out, response.tuneDefaultCycles);
  bin::appendStr(out, response.adminInfo);
  return out;
}

bool decodeBinaryResponse(std::string_view payload, BinaryResponse& out, std::string& error) {
  out = BinaryResponse{};
  bin::Reader r(payload);
  std::uint8_t flags = 0;
  std::uint8_t kindRaw = 0;
  std::uint32_t degradedCount = 0;
  if (!r.str(out.id) || !r.u8(flags) || !r.u8(kindRaw) || !r.f64(out.millis) ||
      !r.str(out.error) || !r.str(out.isa) || !r.u64(out.cBytes) ||
      !r.i32(out.loopsVectorized) || !r.i32(out.idiomRewrites) || !r.u32(degradedCount)) {
    error = "malformed response payload";
    return false;
  }
  if (kindRaw > static_cast<std::uint8_t>(ErrorKind::Panic)) {
    error = "bad errorKind value";
    return false;
  }
  if (degradedCount > payload.size()) {
    error = "malformed response payload";
    return false;
  }
  out.degraded.reserve(degradedCount);
  for (std::uint32_t i = 0; i < degradedCount; ++i) {
    std::string d;
    if (!r.str(d)) {
      error = "malformed response payload";
      return false;
    }
    out.degraded.push_back(std::move(d));
  }
  if (!r.str(out.tunedSignature) || !r.i32(out.tuneCandidates) || !r.f64(out.tunedCycles) ||
      !r.f64(out.tuneDefaultCycles) || !r.str(out.adminInfo) || !r.done()) {
    error = "malformed response payload";
    return false;
  }
  out.ok = (flags & kRespOk) != 0;
  out.cached = (flags & kRespCached) != 0;
  out.deduped = (flags & kRespDeduped) != 0;
  out.storeHit = (flags & kRespStoreHit) != 0;
  out.tuned = (flags & kRespTuned) != 0;
  out.errorKind = static_cast<ErrorKind>(kindRaw);
  return true;
}

// --- client-side resilience ------------------------------------------------

namespace {

/// splitmix64: tiny, well-distributed, and deterministic across platforms —
/// exactly what a replayable jitter needs.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double RetryPolicy::delayMillis(int attempt, std::uint64_t seed) const {
  if (attempt < 0) attempt = 0;
  double cap = baseMillis;
  for (int i = 0; i < attempt && cap < maxMillis; ++i) cap *= 2.0;
  if (cap > maxMillis) cap = maxMillis;
  // Jitter in [cap/2, cap]: enough spread to break restart synchronization
  // across shards, never so little backoff that a retry storm forms.
  std::uint64_t h = splitmix64(seed ^ (static_cast<std::uint64_t>(attempt) + 1));
  double frac = static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
  return cap * (0.5 + 0.5 * frac);
}

}  // namespace mat2c::service
