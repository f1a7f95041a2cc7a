#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "rules.hpp"

namespace grads::lint {

struct TreeReport {
  std::vector<Finding> findings;          ///< all findings, suppressed included
  std::vector<Suppression> suppressions;  ///< every waiver, used or not
  int filesScanned = 0;

  int unsuppressedCount() const;
  int suppressedCount() const;
};

/// Lints every .hpp/.cpp under the scan roots (src, bench, tests, tools,
/// examples) of `root`. Paths in findings are repo-relative. File lexing and
/// per-file analysis run on a small worker pool; output is deterministic
/// (files are processed into slots in sorted-path order, findings get a
/// final global sort), and the wall time is reported on stderr.
TreeReport lintTree(const std::filesystem::path& root,
                    const AnalyzeOptions& opts = {});

/// Lints in-memory (path, content) pairs — the unit-test entry point.
/// Runs the same two-phase pipeline (R1–R5 per file, then R7–R10 over the
/// merged symbol models) sequentially.
TreeReport lintSources(
    const std::vector<std::pair<std::string, std::string>>& files,
    const AnalyzeOptions& opts = {});

/// Human-readable report: unsuppressed findings first, then the suppression
/// inventory (used waivers with reasons, and stale waivers that matched
/// nothing). Returns the number of unsuppressed findings.
int printReport(std::ostream& os, const TreeReport& report);

}  // namespace grads::lint
