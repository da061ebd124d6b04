#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <string>

namespace simgen::util {
namespace {

/// SIMGEN_LOG_LEVEL overrides the default threshold (set_log_level still
/// wins if called later), so bench drivers can be quieted or verbosed
/// without recompiling or new flags.
LogLevel initial_log_level() noexcept {
  const char* env = std::getenv("SIMGEN_LOG_LEVEL");
  if (env != nullptr) {
    if (const std::optional<LogLevel> level = parse_log_level(env))
      return *level;
    std::fprintf(stderr,
                 "[simgen] ignoring invalid SIMGEN_LOG_LEVEL=%s "
                 "(want debug|info|warn|error|off or 0-4)\n",
                 env);
  }
  return LogLevel::kWarn;
}

std::atomic<LogLevel> g_level{initial_log_level()};

constexpr const char* level_tag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info ";
    case LogLevel::kWarn: return "warn ";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: break;
  }
  return "?    ";
}

/// Wall-clock "HH:MM:SS.mmm" for the line prefix. The display clock is
/// deliberately system_clock (human-readable local time); all *timing* in
/// the library goes through util::Stopwatch's steady_clock.
void format_timestamp(char (&buffer)[16]) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm_buffer{};
  localtime_r(&seconds, &tm_buffer);
  std::snprintf(buffer, sizeof buffer, "%02d:%02d:%02d.%03d", tm_buffer.tm_hour,
                tm_buffer.tm_min, tm_buffer.tm_sec, static_cast<int>(millis));
}

/// Small per-thread ordinal for the line prefix: assigned lazily on the
/// thread's first log line, so the main thread is usually t1 and other
/// ordinals stay short regardless of the OS thread-id width.
std::atomic<unsigned> g_next_thread_ordinal{0};
thread_local unsigned t_log_ordinal = 0;

unsigned thread_log_ordinal() noexcept {
  if (t_log_ordinal == 0)
    t_log_ordinal = g_next_thread_ordinal.fetch_add(1,
                                                    std::memory_order_relaxed) +
                    1;
  return t_log_ordinal;
}

void vlogf(LogLevel level, const char* fmt, std::va_list args) {
  // The level check lives in every entry point *before* any formatting
  // work; this copy of it only guards direct vlogf callers.
  if (level < log_level()) return;
  std::va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed < 0) return;
  std::string buffer(static_cast<std::size_t>(needed) + 1, '\0');
  std::vsnprintf(buffer.data(), buffer.size(), fmt, args);
  buffer.resize(static_cast<std::size_t>(needed));
  log_line(level, buffer);
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

std::optional<LogLevel> parse_log_level(std::string_view text) noexcept {
  if (text == "debug" || text == "0") return LogLevel::kDebug;
  if (text == "info" || text == "1") return LogLevel::kInfo;
  if (text == "warn" || text == "warning" || text == "2") return LogLevel::kWarn;
  if (text == "error" || text == "3") return LogLevel::kError;
  if (text == "off" || text == "none" || text == "4") return LogLevel::kOff;
  return std::nullopt;
}

void log_line(LogLevel level, std::string_view message) {
  if (level < log_level()) return;
  char timestamp[16];
  format_timestamp(timestamp);
  std::fprintf(stderr, "[simgen %s %s t%u] %.*s\n", timestamp, level_tag(level),
               thread_log_ordinal(), static_cast<int>(message.size()),
               message.data());
}

// Each entry point tests the threshold before va_start so a suppressed
// message (the common case for debugf) never touches its arguments, let
// alone formats them.
#define SIMGEN_DEFINE_LOG_FN(name, level)          \
  void name(const char* fmt, ...) {                \
    if ((level) < log_level()) return;             \
    std::va_list args;                             \
    va_start(args, fmt);                           \
    vlogf(level, fmt, args);                       \
    va_end(args);                                  \
  }

void logf(LogLevel level, const char* fmt, ...) {
  if (level < log_level()) return;
  std::va_list args;
  va_start(args, fmt);
  vlogf(level, fmt, args);
  va_end(args);
}

SIMGEN_DEFINE_LOG_FN(debugf, LogLevel::kDebug)
SIMGEN_DEFINE_LOG_FN(infof, LogLevel::kInfo)
SIMGEN_DEFINE_LOG_FN(warnf, LogLevel::kWarn)
SIMGEN_DEFINE_LOG_FN(errorf, LogLevel::kError)

#undef SIMGEN_DEFINE_LOG_FN

}  // namespace simgen::util
