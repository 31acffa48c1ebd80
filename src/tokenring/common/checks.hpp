// Lightweight contract checks (I.6/I.8-style Expects/Ensures).
//
// Precondition violations are programming errors by the caller; we throw
// std::invalid_argument with a descriptive message so tests can assert on
// them and interactive tools fail loudly instead of producing garbage
// schedulability verdicts.

#pragma once

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tokenring {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
  PreconditionError(const std::string& what, const std::string& reason)
      : std::invalid_argument(what),
        reason_(std::make_shared<const std::string>(reason)) {}

  /// what() without the source file and line: the violated condition and
  /// its explanation. This is the text to show remote clients.
  std::string reason() const { return reason_ ? *reason_ : what(); }

 private:
  // Shared so that copying the exception cannot throw.
  std::shared_ptr<const std::string> reason_;
};

namespace detail {
[[noreturn]] inline void precondition_failed(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  const std::string explanation = msg.empty() ? "" : " (" + msg + ")";
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ":" << line
     << explanation;
  throw PreconditionError(os.str(),
                          "precondition failed: " + std::string(expr) +
                              explanation);
}
}  // namespace detail

}  // namespace tokenring

/// Check a documented precondition; throws tokenring::PreconditionError.
#define TR_EXPECTS(cond)                                                     \
  do {                                                                       \
    if (!(cond))                                                             \
      ::tokenring::detail::precondition_failed(#cond, __FILE__, __LINE__,    \
                                               std::string{});               \
  } while (0)

/// Check a documented precondition with an explanatory message.
#define TR_EXPECTS_MSG(cond, msg)                                            \
  do {                                                                       \
    if (!(cond))                                                             \
      ::tokenring::detail::precondition_failed(#cond, __FILE__, __LINE__,    \
                                               (msg));                       \
  } while (0)
