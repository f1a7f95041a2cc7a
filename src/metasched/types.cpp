#include "metasched/types.hpp"

namespace grads::metasched {

const char* brownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kFull: return "full";
    case BrownoutLevel::kDeferLow: return "defer-low";
    case BrownoutLevel::kPark: return "park";
    case BrownoutLevel::kShed: return "shed";
  }
  return "?";
}

bool BrownoutController::update(double pressure, double now) {
  if (!opts_.enabled) return false;
  if (now - lastChangeAt_ < opts_.dwellSec) return false;
  if (level_ < 3 && pressure >= opts_.enterPressure[level_]) {
    ++level_;
    ++escalations_;
    lastChangeAt_ = now;
    return true;
  }
  if (level_ > 0 && pressure <= opts_.exitPressure[level_ - 1]) {
    --level_;
    ++deescalations_;
    lastChangeAt_ = now;
    return true;
  }
  return false;
}

}  // namespace grads::metasched
