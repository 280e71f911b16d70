// Wire formats of the batch server (`mat2c serve`).
//
// Two encodings share one request model (WireRequest → CompileRequest):
//
//   * JSON-lines — one self-contained JSON object per line, one JSON
//     response line per request, so the server composes with shell pipelines
//     and request logs can be replayed byte-for-byte. The parser below is a
//     deliberately small, dependency-free JSON reader covering exactly what
//     the request format needs.
//
//   * Length-prefixed binary frames ("M2CB" magic + version + type +
//     payload length) — the warm-path format: no JSON parse on ingest, no
//     JSON serialize on egress. bench_service measures the delta.
//
// docs/service.md documents both schemas and the frame layout.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/compile_service.hpp"

namespace mat2c::service {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<std::pair<std::string, JsonValue>> members;  // Object, in input order
  std::vector<JsonValue> elements;                         // Array

  /// First member with `key`, or nullptr (Object only).
  const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// Returns nullopt and sets `error` (with a byte offset) on malformed input.
std::optional<JsonValue> parseJson(std::string_view text, std::string& error);

/// Parses a comma-separated arg-spec list ("1x1024,c1x64", the CLI --args
/// syntax). On failure returns false and sets `badSpec` to the offending
/// token. An empty/whitespace list parses to no args.
bool parseArgSpecList(const std::string& text, std::vector<sema::ArgSpec>& out,
                      std::string& badSpec);

/// Wire-level resource bounds, enforced before the request body is parsed.
struct ProtocolLimits {
  /// Reject request lines / frame payloads larger than this many bytes
  /// (0 = unlimited).
  std::size_t maxRequestBytes = 4u << 20;
};

/// Encoding-independent request model: what both the JSON-lines parser and
/// the binary frame decoder produce before validation. resolve() performs
/// the shared semantic checks (required fields, arg specs, style, ISA
/// lookup/parse, pass-toggle overrides) and yields the CompileRequest the
/// service consumes.
struct WireRequest {
  std::string id;
  std::string source;
  std::string entry;
  std::string args;             ///< CLI arg-spec syntax, "" = none
  /// Preset name; "" = the server default target. resolve() leaves the
  /// style's dspx preset; `mat2c serve --isa-file` replaces it with that
  /// description.
  std::string isa;
  std::string isaText;          ///< inline ISA description, overrides `isa`
  std::string style = "proposed";
  /// Admin command ("" = a normal compile request). Handled by the serve
  /// loop, never by CompileService: "healthz" / "stats" return the health
  /// line / stats JSON in the response's adminInfo. A frame with a non-empty
  /// admin field carries no compile payload.
  std::string admin;
  /// Pass-toggle overrides, one per opt/passes.def row with a wire bit,
  /// under its name; nullopt keeps the style's default.
#define WIRE(bit) MAT2C_WIRE_FIELD
#define MAT2C_WIRE_FIELD(field) std::optional<bool> field;
#define NO_WIRE(field)
#define MAT2C_PASS_BOOL(field, key, stage, proposed, coder, passes, flag, wire, ...) wire(field)
#include "opt/passes.def"
#undef MAT2C_WIRE_FIELD
  double deadlineMillis = 0.0;
  bool tune = false;
  int tuneBudget = 0;

  /// Validates and lowers into a CompileRequest; on failure sets `error`.
  /// Admin requests must be intercepted before resolve() — a non-empty
  /// `admin` field is an error here.
  bool resolve(CompileRequest& out, std::string& error) const;
};

/// Parses one JSON-lines request into a CompileRequest. Recognized fields:
///   source (required), entry (required), id, args ("1x32,c1x8"),
///   isa (preset name), isa_text (inline ISA description, overrides isa),
///   style ("proposed"|"coder"),
///   the wire toggles of opt/passes.def under their keys (bools),
///   deadline_ms (number, per-request deadline), tune (bool: autotune the
///   pass parameters and cache the winner), tune_budget (positive integer:
///   candidate cap for the tune search).
/// Unknown fields are an error, so typos cannot silently compile with
/// default options. On failure sets `error` and, when `kind` is non-null,
/// classifies it (ResourceExhausted for an oversized line, ParseError for
/// everything else).
bool parseCompileRequest(std::string_view line, CompileRequest& out, std::string& error,
                         ErrorKind* kind = nullptr, const ProtocolLimits& limits = {});

/// Structural half of parseCompileRequest: JSON → WireRequest with no
/// semantic resolution, so the serve loop can intercept admin requests
/// ("admin" field) before resolve(). Same field set plus "admin" (string).
bool parseWireRequest(std::string_view line, WireRequest& out, std::string& error,
                      ErrorKind* kind = nullptr, const ProtocolLimits& limits = {});

/// One response as both wire formats carry it: the JSON line and the
/// Response frame payload are both rendered from this, and nothing else. The
/// C text itself never travels, only its size (`cBytes`).
struct BinaryResponse {
  BinaryResponse() = default;
  /// The one CompileResponse → wire conversion, implicit so every encoder
  /// call site takes either type. Result fields are filled only for a
  /// successful compile (`ok` with a result); they stay zero otherwise.
  BinaryResponse(const CompileResponse& response);

  std::string id;
  bool ok = false;
  bool cached = false;
  bool deduped = false;
  bool storeHit = false;
  ErrorKind errorKind = ErrorKind::None;
  double millis = 0.0;
  std::string error;
  std::string isa;
  std::uint64_t cBytes = 0;
  std::int32_t loopsVectorized = 0;
  std::int32_t idiomRewrites = 0;
  std::vector<std::string> degraded;
  bool tuned = false;
  std::string tunedSignature;
  std::int32_t tuneCandidates = 0;
  double tunedCycles = 0.0;
  double tuneDefaultCycles = 0.0;
  std::string adminInfo;  ///< admin-request result text ("" for compiles)
};

/// One response line (no trailing newline): id, ok, cached, deduped, millis,
/// "storeHit": true when served from the artifact store, adminInfo for an
/// admin request, then
///   * a successful compile: isa/cBytes/loopsVectorized/idiomRewrites, plus
///     degraded when the compile used the degradation ladder, plus
///     tuned/tunedSignature/tuneCandidates/tunedCycles/tuneDefaultCycles for
///     autotuned results;
///   * a failure: error + errorKind;
///   * a successful admin request: nothing more.
std::string responseJson(const BinaryResponse& response);

// --- binary framing --------------------------------------------------------
//
// Frame: 'M' '2' 'C' 'B' | u16 version | u16 type | u32 payloadLen | payload
// (all integers little-endian). docs/service.md has the payload layouts.

inline constexpr char kBinaryMagic[4] = {'M', '2', 'C', 'B'};
/// v3: the request payload has seven strings before the toggle bytes, not
/// eight (v2 added `str admin` to the request and `str adminInfo` to the
/// response). Decoding is exact-consumption, so every layout change is a
/// wire break — the version bump makes older frames fail fast with
/// "unsupported frame version" instead of a confusing payload error.
inline constexpr std::uint16_t kBinaryVersion = 3;
/// magic + version + type + payloadLen.
inline constexpr std::size_t kFrameHeaderBytes = 12;

enum class FrameType : std::uint16_t {
  Request = 1,
  Response = 2,
};

/// Wraps `payload` in a frame header.
std::string encodeFrame(FrameType type, std::string_view payload);

struct FrameHeader {
  FrameType type = FrameType::Request;
  std::uint32_t payloadLen = 0;
};

/// Decodes one frame header (kFrameHeaderBytes bytes): checks the length,
/// magic, version and type, and that the payload is at most
/// `maxPayloadBytes` (0 = unlimited). Returns false with `error` set on the
/// first check that fails. readFrame and the shard supervisor's response
/// reader both call it.
bool decodeFrameHeader(std::string_view header, std::size_t maxPayloadBytes, FrameHeader& out,
                       std::string& error);

/// Reads one frame from `in`. Returns 1 on a frame, 0 on clean EOF (stream
/// exhausted exactly at a frame boundary), -1 on error (bad magic/version,
/// truncated frame, or payload over `limits.maxRequestBytes` — the stream
/// is not resynchronizable after -1).
int readFrame(std::istream& in, FrameType& type, std::string& payload, std::string& error,
              const ProtocolLimits& limits = {});

/// Request frame payload for `req` (client side / tests).
std::string encodeBinaryRequest(const WireRequest& req);

/// Parses a Request frame payload. Structural decode only — pair with
/// WireRequest::resolve() for semantic validation. Must never crash on
/// arbitrary bytes (fuzz_smoke feeds it garbage).
bool decodeBinaryRequest(std::string_view payload, WireRequest& out, std::string& error);

/// Response frame payload for `response`.
std::string encodeBinaryResponse(const BinaryResponse& response);

/// Parses a Response frame payload; never crashes on arbitrary bytes.
bool decodeBinaryResponse(std::string_view payload, BinaryResponse& out, std::string& error);

// --- client-side resilience ------------------------------------------------

/// Capped exponential backoff with deterministic jitter, shared by the shard
/// supervisor's restart loop and client retry paths. Deterministic on
/// purpose: the chaos harness must replay the exact same schedule from a
/// seed, so the "jitter" is a hash of (seed, attempt), not a clock or RNG.
struct RetryPolicy {
  double baseMillis = 10.0;   ///< delay before attempt 1's retry
  double maxMillis = 2000.0;  ///< backoff ceiling

  /// Delay before retry number `attempt` (0-based: the wait after the
  /// (attempt+1)-th failure). Full jitter over the exponential cap, which
  /// doubles per attempt:
  /// uniform-ish in [cap/2, cap], derived from splitmix64(seed ^ attempt).
  double delayMillis(int attempt, std::uint64_t seed) const;
};

}  // namespace mat2c::service
