#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace grads::bench {

/// Shared command-line options for the bench drivers. Every campaign had
/// grown its own copy of the same loop (--quick here, a positional seed
/// count there); this is the one parser they all share. Semantics are the
/// least common denominator the drivers already agreed on:
///
///   --quick        reduced scale for ctest / CI smoke runs
///   --out FILE     report path override (drivers that emit a report)
///   --arm NAME     restrict to one campaign arm (repeatable; default all)
///   N              one optional positional integer (seed / scenario count)
struct CliOptions {
  bool quick = false;
  std::string out;
  std::vector<std::string> arms;
  long long count = -1;  ///< the positional integer; -1 when absent
};

/// Parses argv into `opts`. Unknown flags (or a malformed positional) print
/// `usage` to stderr and return false — drivers exit 2, matching the old
/// hand-rolled loops. Value-taking flags missing their value are unknown.
inline bool parseCli(int argc, char** argv, CliOptions& opts,
                     const char* usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opts.out = argv[++i];
    } else if (arg == "--arm" && i + 1 < argc) {
      opts.arms.push_back(argv[++i]);
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

/// Arm selection: with no --arm flags every arm runs (the default campaign
/// behavior); otherwise only the named ones do.
inline bool armSelected(const CliOptions& opts, const std::string& name) {
  return opts.arms.empty() ||
         std::find(opts.arms.begin(), opts.arms.end(), name) !=
             opts.arms.end();
}

}  // namespace grads::bench
