#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace grads::util {

/// Splits on a single delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool startsWith(std::string_view s, std::string_view prefix);

/// Human-readable byte count, e.g. "512.0 MB".
std::string formatBytes(double bytes);

}  // namespace grads::util
