#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace grads::bench {

/// Shared command-line options for the bench drivers. Every campaign had
/// grown its own copy of the same loop (--quick here, a positional seed
/// count there); this is the one parser they all share. Semantics are the
/// least common denominator the drivers already agreed on:
///
///   --quick        reduced scale for ctest / CI smoke runs
///   N              one optional positional integer (seed / scenario count)
///
/// Reports go under the bench output directory (bench_paths.hpp), which
/// GRADS_BENCH_OUTPUT_DIR overrides.
struct CliOptions {
  bool quick = false;
  long long count = -1;  ///< the positional integer; -1 when absent
};

/// Parses argv into `opts`. Unknown flags (or a malformed positional) print
/// `usage` to stderr and return false — drivers exit 2, matching the old
/// hand-rolled loops.
inline bool parseCli(int argc, char** argv, CliOptions& opts,
                     const char* usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (!arg.empty() && arg[0] != '-' && opts.count < 0) {
      char* end = nullptr;
      const long long v = std::strtoll(arg.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "usage: %s\n", usage);
        return false;
      }
      opts.count = v;
    } else {
      std::fprintf(stderr, "usage: %s\n", usage);
      return false;
    }
  }
  return true;
}

}  // namespace grads::bench
