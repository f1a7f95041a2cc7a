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
/// examples) of `root`: reads them in sorted-path order and hands them to
/// lintSources. Paths in findings are repo-relative; the wall time is
/// reported on stderr.
TreeReport lintTree(const std::filesystem::path& root);

/// Lints in-memory (path, content) pairs: R1–R5 per file, then R7–R10 over
/// the merged symbol models, and findings get a final global sort. The one
/// pipeline behind lintTree and the unit tests.
TreeReport lintSources(
    const std::vector<std::pair<std::string, std::string>>& files);

/// Human-readable report: unsuppressed findings first, then the suppression
/// inventory (used waivers with reasons, and stale waivers that matched
/// nothing). Returns the number of unsuppressed findings.
int printReport(std::ostream& os, const TreeReport& report);

}  // namespace grads::lint
