// Lightweight leveled logger.
//
// Default level is Warn so tests and benches stay quiet; examples raise it
// to Info to narrate the middleware's behaviour.
#pragma once

#include <string_view>

namespace pmware {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global log threshold.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Writes one line to stderr if `level` passes the threshold.
void log_line(LogLevel level, std::string_view component, std::string_view msg);

}  // namespace pmware
