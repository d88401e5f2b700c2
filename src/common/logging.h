// Assertion macros for internal invariants, and leveled diagnostics.
//
// RAPID_CHECK* fire in all build types: violating a DMEM budget or a
// kernel invariant is a programming error, never a data-dependent
// condition, so aborting is the correct response (Google style:
// invariants crash, expected failures return Status).
//
// RAPID_LOG(level, fmt, ...) replaces the ad-hoc one-shot fprintfs
// (SIMD level pick, encoding report, scheduler mode): messages below
// the active level are dropped, so the default (warn) keeps test
// output quiet while RAPID_LOG_LEVEL=info restores the startup
// notices and debug opens the firehose. The level is the config's
// `log_level` field (common/config.h).

#ifndef RAPID_COMMON_LOGGING_H_
#define RAPID_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

#include "common/config.h"

namespace rapid {

inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(GetConfig().log_level);
}

namespace internal {

// Writes one log line to stderr with a "rapid: " prefix. Callers go
// through RAPID_LOG so disabled levels cost only the LogEnabled test.
void LogWrite(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace internal
}  // namespace rapid

// Usage: RAPID_LOG(kInfo, "simd dispatch level: %s", name);
// The message is a printf format WITHOUT the "rapid: " prefix or a
// trailing newline — LogWrite adds both.
#define RAPID_LOG(level, ...)                                          \
  do {                                                                 \
    if (::rapid::LogEnabled(::rapid::LogLevel::level)) {               \
      ::rapid::internal::LogWrite(::rapid::LogLevel::level,            \
                                  __VA_ARGS__);                        \
    }                                                                  \
  } while (0)

namespace rapid::internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "RAPID_CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

}  // namespace rapid::internal

#define RAPID_CHECK(cond)                                        \
  do {                                                           \
    if (!(cond)) {                                               \
      ::rapid::internal::CheckFailed(__FILE__, __LINE__, #cond); \
    }                                                            \
  } while (0)

#define RAPID_CHECK_OK(expr)                                             \
  do {                                                                   \
    ::rapid::Status _st = (expr);                                        \
    if (!_st.ok()) {                                                     \
      std::fprintf(stderr, "RAPID_CHECK_OK failed at %s:%d: %s\n",       \
                   __FILE__, __LINE__, _st.ToString().c_str());          \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

#define RAPID_DCHECK(cond) RAPID_CHECK(cond)

#endif  // RAPID_COMMON_LOGGING_H_
