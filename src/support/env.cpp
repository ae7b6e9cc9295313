#include "support/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace eigenmaps::support {

namespace {

[[noreturn]] void fail(const char* name, const char* raw, const char* what) {
  throw std::invalid_argument(std::string(name) + " must be " + what +
                              ", got '" + raw + "'");
}

}  // namespace

std::optional<std::size_t> env_size(const char* name, std::size_t min,
                                    std::size_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  // strtoull skips any leading whitespace and silently wraps negatives
  // ("\t-1" -> huge); reject the sign explicitly, after the same skip, so
  // out-of-range is reported as such.
  const char* p = raw;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '-') fail(name, raw, "a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') fail(name, raw, "an integer");
  if (errno == ERANGE || value < min || value > max) {
    fail(name, raw,
         ("an integer in [" + std::to_string(min) + ", " +
          std::to_string(max) + "]")
             .c_str());
  }
  return static_cast<std::size_t>(value);
}

std::size_t env_size_or(const char* name, std::size_t fallback,
                        std::size_t min, std::size_t max) {
  return env_size(name, min, max).value_or(fallback);
}

std::optional<std::size_t> env_choice(
    const char* name, std::initializer_list<const char*> choices) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  std::size_t index = 0;
  for (const char* choice : choices) {
    if (std::string(raw) == choice) return index;
    ++index;
  }
  std::string accepted = "one of";
  for (const char* choice : choices) {
    accepted += accepted.size() == 6 ? " '" : ", '";
    accepted += choice;
    accepted += '\'';
  }
  fail(name, raw, accepted.c_str());
}

}  // namespace eigenmaps::support
