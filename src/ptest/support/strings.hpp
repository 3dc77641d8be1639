// Small string helpers shared by the regex parser, config loader and report
// formatter.  Kept dependency-free.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ptest::support {

/// Appends `value` in decimal, as `std::ostream << value` prints it,
/// without a temporary string.
inline void append_decimal(std::string& out, std::uint64_t value) {
  char digits[20];  // 2^64 - 1 has 20 digits
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out.append(digits, end);
}

/// Splits `text` on `sep`, dropping empty fields when `keep_empty` is false.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep,
                                             bool keep_empty = false);

/// Removes ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text,
                               std::string_view prefix) noexcept;

/// Parses a double, throwing std::invalid_argument with context on failure.
[[nodiscard]] double parse_double(std::string_view text);

/// Parses a non-negative integer, throwing std::invalid_argument on failure.
[[nodiscard]] std::uint64_t parse_u64(std::string_view text);

/// `value` as exactly 16 lowercase hex digits — how seeds and hashes
/// are spelled in wire frames, corpus files and golden fixtures.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Strict inverse of hex64: nullopt on anything but 1..16 hex digits
/// (either case; no prefix, sign or whitespace).
[[nodiscard]] std::optional<std::uint64_t> parse_hex64(std::string_view text);

}  // namespace ptest::support
