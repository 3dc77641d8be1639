#include "ptest/support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace ptest::support {

std::vector<std::string> split(std::string_view text, char sep,
                               bool keep_empty) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    const std::string_view field =
        text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                         : end - start);
    if (keep_empty || !field.empty()) out.emplace_back(field);
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view text) {
  const std::string_view trimmed = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
    throw std::invalid_argument("parse_double: invalid number: '" +
                                std::string(text) + "'");
  }
  return value;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t parse_u64(std::string_view text) {
  const std::string_view trimmed = trim(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
    throw std::invalid_argument("parse_u64: invalid integer: '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace ptest::support
