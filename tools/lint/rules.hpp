#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"
#include "symbols.hpp"

namespace grads::lint {

/// One structured lint finding. `suppressed` is set by the suppression pass
/// when an inline `// grads-lint: allow(RULE reason)` annotation covers it.
struct Finding {
  std::string file;  ///< repo-relative path, forward slashes
  int line = 0;
  std::string rule;      ///< "R1".."R5", "R7".."R10"
  std::string severity;  ///< "error" (all shipped rules fail CI)
  std::string message;
  bool suppressed = false;
  std::string suppressReason;
};

/// One inline waiver, parsed from comments. Unused waivers are themselves
/// reported so stale allow() annotations cannot silently accumulate.
struct Suppression {
  std::string file;
  int line = 0;          ///< line the annotation covers (comment or next line)
  std::string rule;      ///< rule id it waives
  std::string reason;    ///< free text after the rule id
  bool used = false;
};

struct FileReport {
  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
};

/// Phase-1 output for one file: the lexical findings (R1–R5) plus the symbol
/// model the tree-wide rules (R7–R10) consume. Suppressions are parsed but
/// not yet matched — matching happens after tree rules run, so waivers cover
/// symbol-rule findings too (see matchSuppressions).
struct FileAnalysis {
  FileReport report;
  FileSymbols symbols;
};

/// Rule catalogue (DESIGN.md §7 for R1–R5, §12 for R7–R10):
///   R1  wall-clock & ambient randomness banned in src/ (only util/rng
///       produces randomness; bench/ owns its own timing).
///   R2  address-order nondeterminism: pointer-keyed associative containers,
///       unordered-container iteration whose body reaches schedule/emit/
///       select APIs, pointer-comparison ordering predicates.
///   R3  side effects inside GRADS_REQUIRE / GRADS_ASSERT / assert
///       expressions (stripped or divergent across build legs).
///   R4  raw new/delete outside the sim pool internals; std::function on
///       engine hot paths already converted to sim::InlineFn.
///   R5  include hygiene: banned headers in src/, #pragma once in headers,
///       no parent-relative includes, no using-namespace in headers.
///   R7  mutable static / thread_local state in src/, bench/ and tools/ —
///       process-wide state escapes snapshots and is shared by every engine
///       in the process; const/constexpr are exempt, documented singletons
///       carry waivers.
///   R8  architecture layering DAG over the include graph: an include may
///       only point at the same or a lower layer (util → sim → core → grid
///       → ... → apps); upward or cyclic includes are flagged.
///   R9  snapshot field coverage: every data member of a class with a
///       field list (snapshotIo, or a hand-written encodeState) must be
///       referenced in it or carry a `// grads: transient(reason)`
///       annotation.
///   R10 by-reference lambda captures ([&] or &name, this excluded) in
///       callbacks handed to Engine scheduling/emission call sites.
///
/// `relPath` selects which rules apply (src/ vs bench/ vs tests/ etc.) and
/// which per-path allowlists fire; it must use forward slashes.
FileAnalysis analyzeFile(const std::string& relPath, std::string_view content);

/// Phase 2: the symbol rules R7–R10 over every file's symbol model at once
/// (R9 needs a cross-file join: classes in headers, codecs in .cpp files).
/// Appends to `out`.
void runTreeRules(const std::vector<FileSymbols>& files,
                  std::vector<Finding>& out);

/// Marks findings covered by a waiver on the same file whose line matches
/// the annotation's own line or the next line, and flags used waivers.
void matchSuppressions(std::vector<Finding>& findings,
                       std::vector<Suppression>& suppressions);

}  // namespace grads::lint
