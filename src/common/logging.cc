#include "common/logging.h"

#include <cstdarg>

namespace rapid {
namespace internal {

void LogWrite(LogLevel level, const char* fmt, ...) {
  // One vsnprintf into a local buffer, one fwrite: lines from
  // concurrent threads stay intact.
  char buf[1024];
  int n = std::snprintf(buf, sizeof(buf), "rapid: ");
  va_list args;
  va_start(args, fmt);
  n += std::vsnprintf(buf + n, sizeof(buf) - static_cast<size_t>(n) - 1, fmt,
                      args);
  va_end(args);
  if (n > static_cast<int>(sizeof(buf)) - 2) n = sizeof(buf) - 2;
  buf[n] = '\n';
  std::fwrite(buf, 1, static_cast<size_t>(n) + 1, stderr);
  (void)level;
}

}  // namespace internal
}  // namespace rapid
