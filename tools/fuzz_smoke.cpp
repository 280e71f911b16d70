// Deterministic fuzz smoke test for the hardened front end.
//
// 10,000 seeded-mutation iterations split across the untrusted-input
// surfaces: MATLAB source through Compiler::compileSource (under tight
// CompileLimits, so pathological mutants hit the resource guards instead of
// the OOM killer), JSON-lines requests through parseCompileRequest, binary
// frames through readFrame/decodeBinaryRequest/decodeBinaryResponse, and
// on-disk artifact images through ArtifactStore::deserialize. The contract
// under test is *containment*: every input either succeeds or is rejected
// with a classified error — nothing may crash, hang, or escape as an
// unclassified exception.
//
// Fully deterministic: a fixed xorshift64 seed (override: argv[1] seed,
// argv[2] iterations) and no wall-clock- or address-dependent decisions, so
// a failure reproduces by rerunning the same binary. Prints an outcome
// digest and "fuzz-smoke-ok" (the ctest pass pattern) on success.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "service/artifact_store.hpp"
#include "service/protocol.hpp"

using namespace mat2c;

namespace {

struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed ? seed : 0x9e3779b97f4a7c15ull) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) { return n ? static_cast<std::size_t>(next() % n) : 0; }
};

const char* kSourceCorpus[] = {
    "function y = f(x, h)\ny = 0;\nfor k = 1:length(x)\n  y = y + x(k) * h(k);\nend\nend\n",
    "function y = f(x)\ns = 0;\nfor k = 1:4\n  s = s * 0.5 + x(k);\nend\ny = s;\nend\n",
    "function y = f(x)\ns = 0;\nfor k = 4:-1:1\n  s = s * 0.5 + x(k);\nend\ny = s;\nend\n",
    "function y = f(x)\nif x(1) > 0\n  y = x .* 2;\nelse\n  y = x + 1;\nend\nend\n",
    "function y = f(a)\ny = zeros(1, 8);\nfor k = 1:8\n  y(k) = a(k) * a(k);\nend\nend\n",
    "function [y, n] = f(x)\ny = x * 2;\nn = sum(x);\nend\n",
};

const char* kRequestCorpus[] = {
    "{\"id\": \"a\", \"source\": \"function y = f(x)\\ny = x;\\nend\\n\", \"entry\": \"f\","
    " \"args\": \"1x8\"}",
    "{\"source\": \"function y = f(x)\\ny = x .* 2;\\nend\\n\", \"entry\": \"f\","
    " \"args\": \"1x16\", \"style\": \"coder\", \"deadline_ms\": 100}",
    "{\"source\": \"function y = f(x)\\ny = x;\\nend\\n\", \"entry\": \"f\","
    " \"args\": \"c1x4\", \"vectorize\": false, \"degrade\": false}",
    "{\"source\": \"s\", \"entry\": \"f\", \"isa\": \"scalar\"}",
};

const char* kDictionary[] = {"for",  "end", "function", "if",  "else", "while", "(",
                             ")",    "[",   "]",        "{",   "}",    ":",     ";",
                             "\"",   "\\",  ",",        "=",   "..",   "1e999", "0x",
                             "'",    "%",   "\n",       "\0x", ".*",   "deadline_ms"};

std::string mutate(std::string s, Rng& rng) {
  int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.below(6)) {
      case 0: {  // flip one byte
        if (s.empty()) break;
        s[rng.below(s.size())] = static_cast<char>(rng.next() & 0xFF);
        break;
      }
      case 1: {  // insert a byte (biased printable, occasionally control/NUL)
        char c = (rng.below(8) == 0) ? static_cast<char>(rng.below(32))
                                     : static_cast<char>(32 + rng.below(95));
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.below(s.size() + 1)), c);
        break;
      }
      case 2: {  // erase a span
        if (s.empty()) break;
        std::size_t at = rng.below(s.size());
        s.erase(at, rng.below(s.size() - at) + 1);
        break;
      }
      case 3: {  // duplicate a span (nesting amplifier)
        if (s.empty()) break;
        std::size_t at = rng.below(s.size());
        std::size_t len = rng.below(std::min<std::size_t>(s.size() - at, 16)) + 1;
        s.insert(at, s.substr(at, len));
        break;
      }
      case 4: {  // truncate
        s.resize(rng.below(s.size() + 1));
        break;
      }
      default: {  // splice a dictionary token
        const char* tok = kDictionary[rng.below(sizeof(kDictionary) / sizeof(*kDictionary))];
        s.insert(rng.below(s.size() + 1), tok);
        break;
      }
    }
  }
  return s;
}

/// Limits tight enough that amplifier mutants (nesting bombs, duplicated
/// loops) hit a structured guard instead of real resource pressure.
CompileOptions fuzzOptions(Rng& rng) {
  CompileOptions o = rng.below(4) == 0 ? CompileOptions::coderLike()
                                       : CompileOptions::proposed();
  o.limits.maxSourceBytes = 1u << 16;
  o.limits.maxAstNodes = 50'000;
  o.limits.maxAstDepth = 128;
  o.limits.maxLirOps = 50'000;
  o.limits.wallBudgetMillis = 1000;
  o.degrade = rng.below(2) == 0;
  return o;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ull;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 0xC0FFEEull;
  long iterations = argc > 2 ? std::strtol(argv[2], nullptr, 0) : 10000;

  Rng rng(seed);
  std::uint64_t digest = 0xcbf29ce484222325ull;
  long compiled = 0, rejected = 0, parsed = 0, refused = 0;
  long framed = 0, unframed = 0, stored = 0, unstored = 0;

  // Seed images for the binary surfaces: well-formed frames/artifacts whose
  // mutants exercise deep rejection paths, not just the magic check.
  std::vector<std::string> binaryCorpus;
  {
    service::WireRequest wire;
    wire.id = "b1";
    wire.source = "function y = f(x)\ny = x;\nend\n";
    wire.entry = "f";
    wire.args = "1x8";
    wire.deadlineMillis = 50.0;
    binaryCorpus.push_back(
        service::encodeFrame(service::FrameType::Request, service::encodeBinaryRequest(wire)));
    service::CompileResponse resp;
    resp.id = "b2";
    resp.error = "rejected";
    resp.errorKind = ErrorKind::SemaError;
    binaryCorpus.push_back(service::encodeFrame(service::FrameType::Response,
                                                service::encodeBinaryResponse(resp)));
  }
  std::vector<std::pair<service::CacheKey, std::string>> artifactCorpus;
  {
    service::CacheKey key = service::CacheKey::make(
        kSourceCorpus[0], "f", {sema::ArgSpec::row(8)}, CompileOptions::proposed());
    service::CachedResult::Meta meta;
    meta.isaName = "dspx";
    meta.loopsVectorized = 1;
    meta.degraded = {"licm"};
    service::CachedResult value("/* c */\n", std::move(meta), "reassoc=1", 9, 10.0, 25.0);
    artifactCorpus.emplace_back(key, service::ArtifactStore::serialize(key, value));
  }

  for (long i = 0; i < iterations; ++i) {
    int surface = static_cast<int>(i % 10);
    if (surface < 4) {
      // --- protocol surface -------------------------------------------
      std::string line =
          kRequestCorpus[rng.below(sizeof(kRequestCorpus) / sizeof(*kRequestCorpus))];
      if (rng.below(8) != 0) line = mutate(std::move(line), rng);
      service::ProtocolLimits limits;
      limits.maxRequestBytes = 8192;
      service::CompileRequest out;
      std::string error;
      ErrorKind kind = ErrorKind::None;
      bool ok;
      try {
        ok = service::parseCompileRequest(line, out, error, &kind, limits);
      } catch (...) {
        std::fprintf(stderr, "FUZZ FAIL iter %ld: parseCompileRequest threw on %zu-byte line\n",
                     i, line.size());
        return 1;
      }
      if (ok) {
        ++parsed;
      } else {
        ++refused;
        if (error.empty() || kind == ErrorKind::None) {
          std::fprintf(stderr, "FUZZ FAIL iter %ld: rejection without message/kind\n", i);
          return 1;
        }
      }
      digest = fnv(digest, ok ? 1 : 0x100u + static_cast<unsigned>(kind));
    } else if (surface < 6) {
      // --- binary frame surface ---------------------------------------
      std::string bytes = binaryCorpus[rng.below(binaryCorpus.size())];
      if (rng.below(8) != 0) bytes = mutate(std::move(bytes), rng);
      service::ProtocolLimits limits;
      limits.maxRequestBytes = 8192;
      try {
        std::istringstream in(bytes);
        service::FrameType type{};
        std::string payload, error;
        int rc = service::readFrame(in, type, payload, error, limits);
        if (rc < 0 && error.empty()) {
          std::fprintf(stderr, "FUZZ FAIL iter %ld: frame rejection without message\n", i);
          return 1;
        }
        bool ok = false;
        if (rc == 1) {
          // Decode the payload both ways — the frame type byte is attacker
          // data, so either decoder must contain arbitrary payloads.
          service::WireRequest req;
          service::BinaryResponse respOut;
          std::string decodeError;
          ok = (type == service::FrameType::Request)
                   ? service::decodeBinaryRequest(payload, req, decodeError)
                   : service::decodeBinaryResponse(payload, respOut, decodeError);
          if (!ok && decodeError.empty()) {
            std::fprintf(stderr, "FUZZ FAIL iter %ld: payload rejection without message\n",
                         i);
            return 1;
          }
        }
        ok ? ++framed : ++unframed;
        digest = fnv(digest, 0x200u + static_cast<unsigned>(rc + 1) * 2 + (ok ? 1 : 0));
      } catch (...) {
        std::fprintf(stderr, "FUZZ FAIL iter %ld: binary frame path threw on %zu bytes\n",
                     i, bytes.size());
        return 1;
      }
    } else if (surface < 8) {
      // --- artifact image surface -------------------------------------
      const auto& [key, image] = artifactCorpus[rng.below(artifactCorpus.size())];
      std::string bytes = image;
      if (rng.below(8) != 0) bytes = mutate(std::move(bytes), rng);
      try {
        std::string error;
        auto result = service::ArtifactStore::deserialize(bytes, key, &error);
        if (result == nullptr && error.empty()) {
          std::fprintf(stderr, "FUZZ FAIL iter %ld: artifact rejection without message\n", i);
          return 1;
        }
        result ? ++stored : ++unstored;
        digest = fnv(digest, result ? 0x300u : 0x301u);
      } catch (...) {
        std::fprintf(stderr, "FUZZ FAIL iter %ld: artifact deserialize threw on %zu bytes\n",
                     i, bytes.size());
        return 1;
      }
    } else {
      // --- compiler surface -------------------------------------------
      std::string src =
          kSourceCorpus[rng.below(sizeof(kSourceCorpus) / sizeof(*kSourceCorpus))];
      if (rng.below(8) != 0) src = mutate(std::move(src), rng);
      std::vector<sema::ArgSpec> args;
      std::size_t nargs = rng.below(3);
      for (std::size_t a = 0; a < nargs; ++a)
        args.push_back(sema::ArgSpec::row(static_cast<std::int64_t>(1 + rng.below(16))));
      Compiler compiler;
      try {
        compiler.compileSource(src, "f", args, fuzzOptions(rng));
        ++compiled;
        digest = fnv(digest, 1);
      } catch (const StructuredError& e) {
        ++rejected;
        if (e.kind() == ErrorKind::None || std::string(e.what()).empty()) {
          std::fprintf(stderr, "FUZZ FAIL iter %ld: unclassified StructuredError\n", i);
          return 1;
        }
        digest = fnv(digest, 0x100u + static_cast<unsigned>(e.kind()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "FUZZ FAIL iter %ld: unclassified exception escaped: %s\n", i,
                     e.what());
        return 1;
      } catch (...) {
        std::fprintf(stderr, "FUZZ FAIL iter %ld: non-standard exception escaped\n", i);
        return 1;
      }
    }
  }

  std::printf("fuzz-smoke-ok seed=0x%llx iterations=%ld compiled=%ld rejected=%ld "
              "parsed=%ld refused=%ld framed=%ld unframed=%ld stored=%ld unstored=%ld "
              "digest=0x%016llx\n",
              static_cast<unsigned long long>(seed), iterations, compiled, rejected, parsed,
              refused, framed, unframed, stored, unstored,
              static_cast<unsigned long long>(digest));
  return 0;
}
