// Small string helpers shared across the compiler.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mat2c {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool startsWith(std::string_view text, std::string_view prefix);

/// Formats a double the way the C emitter and dumps need it: round-trippable,
/// always containing '.', 'e', "inf" or "nan" so it reads as floating point.
std::string formatDouble(double v);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Appends the JSON string literal for `s` to `out`: quoted, with quote,
/// backslash and control characters escaped (report::JsonField's writer).
void appendJsonQuoted(std::string& out, std::string_view s);

/// True if `name` is a valid C/MATLAB identifier.
bool isIdentifier(std::string_view name);

/// 64-bit FNV-1a over `data`. Stable across platforms/runs, so it is safe to
/// use for content-addressed cache keys (service::CacheKey) and ISA
/// fingerprints that may eventually be persisted.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ULL);

/// Fixed-width lowercase hex rendering of a 64-bit hash.
std::string hex64(std::uint64_t v);

}  // namespace mat2c
