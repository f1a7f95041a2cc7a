#include "util/log.hpp"

#include <cstdio>
#include <iostream>

namespace grads::log {

Config& config() {
  // grads-lint: allow(R7 logging singleton - diagnostic sink/level only, never feeds simulation decisions)
  static Config cfg;
  return cfg;
}

bool enabled(Level level) { return level >= config().level; }

const char* levelName(Level level) {
  switch (level) {
    case Level::kTrace: return "TRACE";
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
    case Level::kOff: return "OFF";
  }
  return "?";
}

std::string appAt(const std::string& app, double tSec) {
  char t[32];
  std::snprintf(t, sizeof t, "%.1f", tSec);
  return app + "@t=" + t + "s: ";
}

void write(Level level, const std::string& component, const std::string& msg) {
  if (!enabled(level)) return;
  auto& cfg = config();
  std::ostream& out = cfg.sink != nullptr ? *cfg.sink : std::cerr;
  char stamp[32];
  if (cfg.clock) {
    std::snprintf(stamp, sizeof stamp, "%12.4f", cfg.clock());
  } else {
    std::snprintf(stamp, sizeof stamp, "%12s", "-");
  }
  out << '[' << stamp << "] " << levelName(level) << ' ' << component << ": "
      << msg << '\n';
}

}  // namespace grads::log
