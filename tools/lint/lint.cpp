#include "lint.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

namespace grads::lint {

namespace fs = std::filesystem;

namespace {

/// Directories scanned relative to the repo root. Build trees and the
/// related-work mirror are never scanned.
constexpr const char* kScanRoots[] = {"src", "bench", "tests", "tools",
                                      "examples"};

bool lintableFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h";
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int TreeReport::unsuppressedCount() const {
  return static_cast<int>(std::count_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return !f.suppressed; }));
}

int TreeReport::suppressedCount() const {
  return static_cast<int>(findings.size()) - unsuppressedCount();
}

TreeReport lintTree(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* sub : kScanRoots) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && lintableFile(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());  // directory order is OS-dependent

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const fs::path& f : files) {
    sources.emplace_back(fs::relative(f, root).generic_string(), slurp(f));
  }
  TreeReport tree = lintSources(sources);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Wall time goes to stderr: stdout is the canonical, diffable report.
  std::cerr << "grads-lint: scanned " << tree.filesScanned << " files in "
            << elapsed.count() << " ms\n";
  return tree;
}

TreeReport lintSources(
    const std::vector<std::pair<std::string, std::string>>& files) {
  // Phase 1 per file, then phase 2 over the merged symbol models: tree-wide
  // symbol rules, waiver matching, and one deterministic global order.
  TreeReport tree;
  std::vector<FileSymbols> symbols;
  symbols.reserve(files.size());
  for (const auto& [path, content] : files) {
    FileAnalysis a = analyzeFile(path, content);
    tree.findings.insert(tree.findings.end(),
                         std::make_move_iterator(a.report.findings.begin()),
                         std::make_move_iterator(a.report.findings.end()));
    tree.suppressions.insert(
        tree.suppressions.end(),
        std::make_move_iterator(a.report.suppressions.begin()),
        std::make_move_iterator(a.report.suppressions.end()));
    symbols.push_back(std::move(a.symbols));
  }
  tree.filesScanned = static_cast<int>(files.size());

  runTreeRules(symbols, tree.findings);
  matchSuppressions(tree.findings, tree.suppressions);

  std::sort(tree.findings.begin(), tree.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return tree;
}

int printReport(std::ostream& os, const TreeReport& report) {
  int unsuppressed = 0;
  for (const Finding& f : report.findings) {
    if (f.suppressed) continue;
    ++unsuppressed;
    os << f.file << ":" << f.line << ": " << f.severity << " [" << f.rule
       << "] " << f.message << "\n";
  }

  os << "\ngrads-lint: " << report.filesScanned << " files, " << unsuppressed
     << " finding(s), " << report.suppressedCount() << " suppressed\n";

  bool header = false;
  for (const Finding& f : report.findings) {
    if (!f.suppressed) continue;
    if (!header) {
      os << "\nsuppression inventory (waivers in effect):\n";
      header = true;
    }
    os << "  " << f.file << ":" << f.line << " [" << f.rule << "] "
       << (f.suppressReason.empty() ? "(no reason given)" : f.suppressReason)
       << "\n";
  }
  header = false;
  for (const Suppression& s : report.suppressions) {
    if (s.used) continue;
    if (!header) {
      os << "\nstale allow() annotations (matched no finding — remove):\n";
      header = true;
    }
    os << "  " << s.file << ":" << s.line << " [" << s.rule << "] " << s.reason
       << "\n";
  }
  return unsuppressed;
}

}  // namespace grads::lint
