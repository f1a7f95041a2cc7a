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
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
  }
  return "?";
}

void write(Level level, const std::string& component, double tSec,
           const std::string& msg) {
  if (!enabled(level)) return;
  const auto& cfg = config();
  std::ostream& out = cfg.sink != nullptr ? *cfg.sink : std::cerr;
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "%12.4f", tSec);
  out << '[' << stamp << "] " << levelName(level) << ' ' << component << ": "
      << msg << '\n';
}

}  // namespace grads::log
