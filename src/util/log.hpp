#pragma once

#include <iosfwd>
#include <sstream>
#include <string>
#include <utility>

namespace grads::log {

enum class Level { kInfo = 0, kWarn, kError };

/// Global log configuration: which levels print and where lines go. Each
/// line carries the sim time its call site passes, never wall time.
struct Config {
  Level level = Level::kWarn;
  std::ostream* sink = nullptr;  ///< defaults to std::cerr
};

Config& config();

bool enabled(Level level);
/// Writes "[    105.5000] WARN component: msg": `tSec` is the now() of the
/// engine the component runs on, so campaign logs that interleave many
/// apps and sandbox engines stay greppable by time window.
void write(Level level, const std::string& component, double tSec,
           const std::string& msg);

const char* levelName(Level level);

namespace detail {
class LineBuilder {
 public:
  LineBuilder(Level level, std::string component, double tSec)
      : level_(level), component_(std::move(component)), tSec_(tSec) {}
  ~LineBuilder() { write(level_, component_, tSec_, os_.str()); }
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;

  template <typename T>
  LineBuilder& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  Level level_;
  std::string component_;
  double tSec_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace grads::log

#define GRADS_LOG(level, component, tSec)                  \
  if (!::grads::log::enabled(level)) {                     \
  } else                                                   \
    ::grads::log::detail::LineBuilder(level, (component), (tSec))

#define GRADS_INFO(component, tSec) \
  GRADS_LOG(::grads::log::Level::kInfo, component, tSec)
#define GRADS_WARN(component, tSec) \
  GRADS_LOG(::grads::log::Level::kWarn, component, tSec)
#define GRADS_ERROR(component, tSec) \
  GRADS_LOG(::grads::log::Level::kError, component, tSec)
