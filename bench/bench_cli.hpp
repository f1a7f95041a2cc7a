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
///                  for the benches that take one
///
/// Reports go under the bench output directory (bench_paths.hpp), which
/// GRADS_BENCH_OUTPUT_DIR overrides.
struct CliOptions {
  bool quick = false;
  /// The positional integer. A bench that takes one presets its default
  /// here before parsing; one that leaves -1 takes none.
  long long count = -1;
};

/// Parses argv into `opts`. Unknown flags, a malformed positional, or any
/// positional for a bench that takes none print `usage` to stderr and
/// return false; the bench then exits 2.
inline bool parseCli(int argc, char** argv, CliOptions& opts,
                     const char* usage) {
  const bool takesCount = opts.count >= 0;
  bool sawCount = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (takesCount && !sawCount && !arg.empty() && arg[0] != '-') {
      char* end = nullptr;
      const long long v = std::strtoll(arg.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "usage: %s\n", usage);
        return false;
      }
      opts.count = v;
      sawCount = true;
    } else {
      std::fprintf(stderr, "usage: %s\n", usage);
      return false;
    }
  }
  return true;
}

}  // namespace grads::bench
