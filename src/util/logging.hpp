/// \file logging.hpp
/// \brief Minimal leveled logging for the flow drivers and benches.
///
/// The library core never logs on hot paths; logging exists so the example
/// applications and experiment harnesses can narrate the sweeping flow.
/// printf-style formatting is used (the toolchain predates std::format).
#pragma once

#include <optional>
#include <string_view>

namespace simgen::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global threshold; messages below it are discarded. The
/// initial threshold is kWarn, overridable by the SIMGEN_LOG_LEVEL
/// environment variable ("debug", "info", "warn", "error", "off", or the
/// numeric levels 0-4) — an explicit set_log_level still wins afterwards.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Parses a level name or digit as accepted by SIMGEN_LOG_LEVEL; empty
/// optional on unrecognized input.
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view text) noexcept;

/// Emits one line to stderr if \p level passes the threshold. Lines carry
/// a wall-clock timestamp, severity tag, and thread tag — a small ordinal
/// assigned on the thread's first log line:
///   [simgen 12:34:56.789 info  t1] message
/// Lines from bench cells sharded across --threads interleave; the tag is
/// what makes each line attributable to its thread.
void log_line(LogLevel level, std::string_view message);

/// printf-style logging at a given level.
[[gnu::format(printf, 2, 3)]]
void logf(LogLevel level, const char* fmt, ...);

[[gnu::format(printf, 1, 2)]] void debugf(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void infof(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void warnf(const char* fmt, ...);
[[gnu::format(printf, 1, 2)]] void errorf(const char* fmt, ...);

}  // namespace simgen::util
