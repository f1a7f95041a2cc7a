#pragma once

#include <functional>
#include <iosfwd>
#include <sstream>
#include <string>

namespace grads::log {

enum class Level { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log configuration. The simulator installs a clock callback so
/// messages are stamped with virtual (simulated) time rather than wall time.
struct Config {
  Level level = Level::kWarn;
  std::ostream* sink = nullptr;                  ///< defaults to std::cerr
  std::function<double()> clock;                 ///< virtual-time source (s)
};

Config& config();

bool enabled(Level level);
void write(Level level, const std::string& component, const std::string& msg);

const char* levelName(Level level);

/// Uniform attribution prefix for trace lines: "qr@t=123.4s: ". Campaign
/// logs interleave many apps across thousands of virtual seconds; every
/// rescheduling-path message leads with this so a grep for one app (or one
/// time window) reconstructs its action history.
std::string appAt(const std::string& app, double tSec);

namespace detail {
class LineBuilder {
 public:
  LineBuilder(Level level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LineBuilder() { write(level_, component_, os_.str()); }
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
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace grads::log

#define GRADS_LOG(level, component)                        \
  if (!::grads::log::enabled(level)) {                     \
  } else                                                   \
    ::grads::log::detail::LineBuilder(level, (component))

#define GRADS_TRACE(component) GRADS_LOG(::grads::log::Level::kTrace, component)
#define GRADS_DEBUG(component) GRADS_LOG(::grads::log::Level::kDebug, component)
#define GRADS_INFO(component) GRADS_LOG(::grads::log::Level::kInfo, component)
#define GRADS_WARN(component) GRADS_LOG(::grads::log::Level::kWarn, component)
#define GRADS_ERROR(component) GRADS_LOG(::grads::log::Level::kError, component)
