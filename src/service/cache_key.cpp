#include "service/cache_key.hpp"

#include "support/string_utils.hpp"

namespace mat2c::service {

std::string argSpecToken(const sema::ArgSpec& spec) {
  const sema::Shape& s = spec.type.shape;
  std::string t(spec.type.elem == sema::Elem::Complex ? "c" : "r");
  t += s.rows.isKnown() ? std::to_string(s.rows.extent()) : "?";
  t += 'x';
  t += s.cols.isKnown() ? std::to_string(s.cols.extent()) : "?";
  return t;
}

namespace {

/// Builds the canonical text and its hash. `passSignature` is empty for a
/// tune key, which carries no options line. The ISA fingerprint is the hash
/// of the ISA text that follows it, so the ISA is serialized once.
CacheKey buildKey(std::string_view tag, const std::string& source, const std::string& entry,
                  const std::vector<sema::ArgSpec>& args, std::string_view passSignature,
                  const isa::IsaDescription& isa) {
  std::string isaText = isa.serialize();
  CacheKey key;
  std::string& c = key.canonical;
  c.reserve(tag.size() + entry.size() + 16 * args.size() + passSignature.size() +
            isaText.size() + source.size() + 96);
  c += tag;
  // Length-prefix the free-form fields so no crafted source/entry pair can
  // alias another request's serialization.
  c += "entry ";
  c += std::to_string(entry.size());
  c += ':';
  c += entry;
  c += "\nargs";
  for (const auto& a : args) {
    c += ' ';
    c += argSpecToken(a);
  }
  c += '\n';
  if (!passSignature.empty()) {
    c += "options ";
    c += passSignature;
    c += '\n';
  }
  c += "isa ";
  c += hex64(fnv1a64(isaText));
  c += '\n';
  c += isaText;
  c += "source ";
  c += std::to_string(source.size());
  c += ':';
  c += source;
  key.hash = fnv1a64(c);
  return key;
}

}  // namespace

CacheKey CacheKey::make(const std::string& source, const std::string& entry,
                        const std::vector<sema::ArgSpec>& args,
                        const CompileOptions& options) {
  return buildKey("mat2c-cache-key-v1\n", source, entry, args, options.passSignature(),
                  options.isa);
}

CacheKey CacheKey::makeTuned(const std::string& source, const std::string& entry,
                             const std::vector<sema::ArgSpec>& args,
                             const isa::IsaDescription& isa) {
  // No pass options: the tuned configuration is the cache's OUTPUT, not part
  // of its key. The ISA stays in — a tuned winner is only valid for the
  // cycle model it was scored on.
  return buildKey("mat2c-tune-key-v1\n", source, entry, args, {}, isa);
}

std::string CacheKey::fingerprint() const { return hex64(hash); }

}  // namespace mat2c::service
