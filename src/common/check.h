// Error handling: invariant checks and input validation.
//
// Library-internal invariants use ETSN_CHECK (throws InvariantError so tests
// can assert on violations); user-input validation throws ConfigError with a
// descriptive message (ETSN_REQUIRE, or a plain throw).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace etsn {

/// A precondition or internal invariant did not hold.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// User-supplied configuration (topology, streams, parameters) is invalid.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
[[noreturn]] inline void checkFailed(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "ETSN_CHECK failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantError(os.str());
}
}  // namespace detail

}  // namespace etsn

#define ETSN_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::etsn::detail::checkFailed(#expr, __FILE__, __LINE__, "");     \
  } while (0)

#define ETSN_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream os_;                                         \
      os_ << msg;                                                     \
      ::etsn::detail::checkFailed(#expr, __FILE__, __LINE__,          \
                                  os_.str());                         \
    }                                                                 \
  } while (0)

// Input validation: a ConfigError whose message is exactly `msg`.
#define ETSN_REQUIRE(expr, msg)                                       \
  do {                                                                \
    if (!(expr)) {                                                    \
      std::ostringstream os_;                                         \
      os_ << msg;                                                     \
      throw ::etsn::ConfigError(os_.str());                           \
    }                                                                 \
  } while (0)
