#include "ptest/bridge/protocol.hpp"

#include <array>
#include <string_view>

#include "ptest/sim/trace.hpp"

namespace ptest::bridge {

namespace {
constexpr std::array<const char*, kServiceCount> kMnemonics = {
    "TC", "TD", "TS", "TR", "TCH", "TY"};

// The trace spells a posted command from sim's format table, one code per
// service in Service order; the mnemonics there must be these.
static_assert([] {
  constexpr std::string_view kHead = "cmd seq=%a ";
  constexpr std::string_view kTail = " task=%b";
  for (std::size_t i = 0; i < kServiceCount; ++i) {
    const std::string_view name = kMnemonics[i];
    const std::string_view format =
        sim::kTraceFormats[static_cast<std::size_t>(
            sim::command_code(static_cast<std::uint8_t>(i)))];
    if (format.size() != kHead.size() + name.size() + kTail.size() ||
        !format.starts_with(kHead) || !format.ends_with(kTail) ||
        format.substr(kHead.size(), name.size()) != name) {
      return false;
    }
  }
  return true;
}());
}  // namespace

const char* mnemonic(Service service) noexcept {
  return kMnemonics[static_cast<std::size_t>(service)];
}

std::optional<Service> service_from_mnemonic(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kMnemonics.size(); ++i) {
    if (name == kMnemonics[i]) return static_cast<Service>(i);
  }
  return std::nullopt;
}

void intern_service_alphabet(pfa::Alphabet& alphabet) {
  for (const char* name : kMnemonics) alphabet.intern(name);
}

std::optional<Service> service_from_symbol(const pfa::Alphabet& alphabet,
                                           pfa::SymbolId symbol) noexcept {
  if (symbol >= alphabet.size()) return std::nullopt;
  return service_from_mnemonic(alphabet.name(symbol));
}

}  // namespace ptest::bridge
