// One parser for every EIGENMAPS_* environment knob. Every call site used
// to hand-roll strtol/strtod with its own (usually silent) fallback; a
// typo like EIGENMAPS_THREADS=abc or a negative EIGENMAPS_TRACE_RING would
// quietly serve defaults in production. Here malformed or out-of-range
// values throw std::invalid_argument naming the variable and the offending
// text, so a misconfigured deployment dies at startup instead of running
// with settings nobody asked for. Unset (or empty) variables mean "use the
// default", exactly as before.
#ifndef EIGENMAPS_SUPPORT_ENV_H
#define EIGENMAPS_SUPPORT_ENV_H

#include <cstddef>
#include <initializer_list>
#include <optional>

namespace eigenmaps::support {

/// `name` parsed as a non-negative integer in [min, max], nullopt when the
/// variable is unset or empty. Throws std::invalid_argument on trailing
/// garbage, a non-numeric value, or a value outside the range.
std::optional<std::size_t> env_size(const char* name, std::size_t min,
                                    std::size_t max = static_cast<std::size_t>(-1));

/// env_size with a fallback: the parsed value, or `fallback` when unset.
std::size_t env_size_or(const char* name, std::size_t fallback,
                        std::size_t min,
                        std::size_t max = static_cast<std::size_t>(-1));

/// `name` matched against `choices` (exact, case-sensitive); returns the
/// matching index, nullopt when unset or empty. Throws std::invalid_argument
/// listing the accepted spellings on any other value — the knob contract
/// for enumerated settings like EIGENMAPS_LOG_LEVEL.
std::optional<std::size_t> env_choice(
    const char* name, std::initializer_list<const char*> choices);

}  // namespace eigenmaps::support

#endif  // EIGENMAPS_SUPPORT_ENV_H
