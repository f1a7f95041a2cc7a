#pragma once

#include <cstdio>

namespace grads::bench {

/// The bench drivers take no arguments: each runs the one configuration it
/// reports, at the scale ctest runs it. Any argument prints
/// `usage: <name>` to stderr and returns false; the driver then exits 2.
/// Reports go under the bench output directory (bench_paths.hpp), which
/// GRADS_BENCH_OUTPUT_DIR overrides.
inline bool noArguments(int argc, const char* name) {
  if (argc == 1) return true;
  std::fprintf(stderr, "usage: %s\n", name);
  return false;
}

}  // namespace grads::bench
