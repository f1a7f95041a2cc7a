// grads-lint — determinism & layering static analysis for the GrADS tree.
//
// Phase 1 tokenizes every .hpp/.cpp under src/ bench/ tests/ tools/
// examples/ (comment- and string-aware, no compiler dependency) in sorted
// path order, runs the lexical rules R1–R5, and builds a per-file symbol
// model (classes with data members, include graph, statics, engine-bound
// lambda captures). Phase 2 runs the symbol rules R7–R10 over the merged
// model (see DESIGN.md §12). Inline waivers (`grads-lint: allow(RULE
// reason)`) suppress a finding but stay visible in the printed inventory;
// stale waivers are reported too.
//
// Usage: grads-lint [--root DIR] [--sarif FILE]
//   --sarif FILE also write the report as SARIF 2.1.0 (for GitHub inline
//                PR annotations); suppressed findings carry inSource
//                suppression objects
// Exit:  0 = clean (unsuppressed findings == 0), 1 = findings, 2 = usage.

#include <fstream>
#include <iostream>
#include <string>

#include "lint.hpp"
#include "sarif.hpp"

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarifPath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarifPath = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: grads-lint [--root DIR] [--sarif FILE]\n";
      return 0;
    } else {
      std::cerr << "grads-lint: unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  const auto report = grads::lint::lintTree(root);
  const int unsuppressed = grads::lint::printReport(std::cout, report);

  if (!sarifPath.empty()) {
    std::ofstream out(sarifPath, std::ios::binary);
    if (!out) {
      std::cerr << "grads-lint: cannot write SARIF to '" << sarifPath
                << "'\n";
      return 2;
    }
    grads::lint::writeSarif(out, report);
  }
  return unsuppressed == 0 ? 0 : 1;
}
