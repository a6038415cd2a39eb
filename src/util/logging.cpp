#include "util/logging.hpp"

#include <atomic>
#include <cstdio>

namespace pmware {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?????";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void log_line(LogLevel level, std::string_view component, std::string_view msg) {
  if (level < g_level.load()) return;
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace pmware
