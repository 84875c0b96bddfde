// Error-handling helpers shared across SafeLight.
//
// SafeLight reports contract violations by throwing std::invalid_argument /
// std::out_of_range and internal invariant failures via SAFELIGHT_ASSERT,
// which throws std::logic_error (tests exercise both paths).
#pragma once

#include <stdexcept>
#include <string>

namespace safelight {

/// Throws std::invalid_argument with a formatted location prefix.
[[noreturn]] inline void fail_argument(const std::string& what) {
  throw std::invalid_argument("safelight: " + what);
}

/// Throws std::logic_error; used for broken internal invariants.
[[noreturn]] inline void fail_invariant(const std::string& what) {
  throw std::logic_error("safelight internal error: " + what);
}

/// Validates a user-supplied precondition. A literal message binds to the
/// `const char*` overload, so a passing check builds no std::string; hot
/// paths whose message is concatenated test first and only then build it:
/// `if (!cond) fail_argument("..." + detail);`.
inline void require(bool cond, const char* what) {
  if (!cond) fail_argument(what);
}

inline void require(bool cond, const std::string& what) {
  if (!cond) fail_argument(what);
}

}  // namespace safelight

// Invariant check that stays enabled in release builds: the simulator's
// correctness claims (mapping bijectivity, probability mass, ...) are part of
// the public contract, not debug-only niceties.
#define SAFELIGHT_ASSERT(cond, msg)                                   \
  do {                                                                \
    if (!(cond)) ::safelight::fail_invariant((msg));                  \
  } while (false)
