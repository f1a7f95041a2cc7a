#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace grads::lint {

/// Phase-1 symbol model. Built per file over the lexer's token stream (still
/// no libclang), then merged tree-wide so the symbol rules R7–R10
/// can answer symbol questions the lexical rules R1–R5 cannot: which state is
/// file-scope mutable, which class fields escape the snapshot, which layers
/// depend on which, and what engine-scheduled lambdas capture.
///
/// Everything here owns its strings: the source buffers the lexer viewed are
/// gone by the time the tree rules run.

/// One non-static data member of a class/struct.
struct MemberSym {
  std::string name;
  int line = 0;
  bool transient = false;  ///< carries `// grads: transient(reason)`
  std::string transientReason;
};

/// One class/struct definition (nested classes get their own entry).
struct ClassSym {
  std::string name;  ///< unqualified
  std::string file;
  int line = 0;
  std::vector<std::string> baseIdents;  ///< identifiers in the base-clause
  std::vector<MemberSym> members;       ///< non-static data members
};

/// A snapshot field-list *definition* (in-class or out-of-line): the
/// type's snapshotIo, or its encodeState (hand-written codec or the call
/// into snapshotIo).
struct MethodSym {
  std::string className;
  std::string name;  ///< "snapshotIo" | "encodeState"
  std::string file;
  int line = 0;
  std::vector<std::string> bodyIdents;  ///< every identifier in the body
};

/// A project-relative `#include "x/y.hpp"` directive.
struct IncludeSym {
  std::string target;
  int line = 0;
};

/// A `static` / `thread_local` variable declaration (any scope).
struct StaticVarSym {
  std::string name;
  int line = 0;
  bool threadLocal = false;
  bool isConst = false;     ///< const / constexpr / constinit qualified
  bool classScope = false;  ///< static data member
  bool namespaceScope = false;  ///< file/namespace scope (vs function-local)
};

/// A lambda capture list at an engine scheduling / emission call site.
struct CaptureSym {
  std::string callee;  ///< schedule / scheduleDaemonAt / emit / ...
  int line = 0;
  bool defaultRef = false;               ///< [&]
  std::vector<std::string> refCaptures;  ///< explicit &name captures
};

struct FileSymbols {
  std::string path;
  std::vector<IncludeSym> includes;
  std::vector<ClassSym> classes;
  std::vector<MethodSym> methods;
  std::vector<StaticVarSym> statics;
  std::vector<CaptureSym> captures;
};

/// Builds the symbol model for one translation unit. `relPath` must use
/// forward slashes; `lexed` is the token stream from lex().
FileSymbols buildSymbols(const std::string& relPath, const LexResult& lexed);

/// Extracts the header name from an `#include` directive token, or empty.
/// (Shared with rule R5.)
std::string_view includeTarget(std::string_view directive);

}  // namespace grads::lint
