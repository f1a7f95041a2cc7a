#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

namespace grads::lint {

namespace {

using std::string_view;

bool startsWith(string_view s, string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool endsWith(string_view s, string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool contains(const auto& list, string_view v) {
  return std::find(std::begin(list), std::end(list), v) != std::end(list);
}

bool isId(const Token& t, string_view s) {
  return t.kind == Tok::kIdent && t.text == s;
}

bool isP(const Token& t, string_view s) {
  return t.kind == Tok::kPunct && t.text == s;
}

/// Shared per-file context: the token stream plus path classification. All
/// rules are pure functions over this; none re-read the file.
struct Ctx {
  string_view relPath;
  const std::vector<Token>& toks;
  std::vector<Finding>& out;
  bool inSrc = false;
  bool inBench = false;
  bool isHeader = false;

  const Token& tok(std::size_t i) const { return toks[i]; }
  std::size_t size() const { return toks.size(); }

  void add(int line, const char* rule, std::string msg) {
    out.push_back(Finding{std::string(relPath), line, rule, "error",
                          std::move(msg), false, {}});
  }

  /// Index just past the parenthesized group opening at `open` (which must
  /// point at "("); returns size() when unbalanced.
  std::size_t closeParen(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
      if (isP(toks[i], "(")) ++depth;
      if (isP(toks[i], ")")) {
        if (--depth == 0) return i;
      }
    }
    return toks.size();
  }

  std::size_t closeBrace(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
      if (isP(toks[i], "{")) ++depth;
      if (isP(toks[i], "}")) {
        if (--depth == 0) return i;
      }
    }
    return toks.size();
  }

  /// Skips a template argument list whose "<" is at `i`; returns the index
  /// just past the matching ">". Treats ">>" as two closers (C++11 rule).
  std::size_t skipAngles(std::size_t i) const {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      if (isP(toks[i], "<")) ++depth;
      if (isP(toks[i], ">")) --depth;
      if (isP(toks[i], ">>")) depth -= 2;
      if (depth <= 0) return i + 1;
    }
    return toks.size();
  }
};

// ---------------------------------------------------------------------------
// R1 — wall-clock and ambient randomness.
// ---------------------------------------------------------------------------

/// Identifiers that are nondeterministic wherever they appear.
constexpr string_view kR1Idents[] = {
    "system_clock",  "steady_clock", "high_resolution_clock",
    "random_device", "gettimeofday", "clock_gettime",
    "localtime",     "gmtime",       "mt19937",
    "mt19937_64",    "default_random_engine",
};

/// Identifiers that are nondeterministic only as free-function calls
/// (`time(nullptr)`, `rand()`), not as members (`engine.time()` would be
/// simulated time — none exist today, but the distinction keeps R1 honest).
constexpr string_view kR1Calls[] = {"rand", "srand", "time", "clock",
                                    "timespec_get"};

void ruleR1(Ctx& c) {
  if (!c.inSrc) return;  // bench/ owns its own timing (perf harness)
  if (startsWith(c.relPath, "src/util/rng.")) return;  // the one RNG source
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Token& t = c.tok(i);
    if (t.kind != Tok::kIdent) continue;
    if (contains(kR1Idents, t.text)) {
      c.add(t.line, "R1",
            "nondeterministic source '" + std::string(t.text) +
                "' in src/ — route randomness through util/rng (grads::Rng)");
      continue;
    }
    if (contains(kR1Calls, t.text) && i + 1 < c.size() &&
        isP(c.tok(i + 1), "(")) {
      const bool member =
          i > 0 && (isP(c.tok(i - 1), ".") || isP(c.tok(i - 1), "->"));
      if (!member) {
        c.add(t.line, "R1",
              "wall-clock / libc randomness call '" + std::string(t.text) +
                  "()' in src/ — use sim time or util/rng");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R2 — address-order nondeterminism.
// ---------------------------------------------------------------------------

constexpr string_view kAssocContainers[] = {
    "unordered_map",      "unordered_set",      "map",      "set",
    "unordered_multimap", "unordered_multiset", "multimap", "multiset",
};

constexpr string_view kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// APIs whose call order must not depend on container address order: every
/// path that schedules events, emits actions, or picks placements.
constexpr string_view kDecisionApis[] = {
    "schedule",       "scheduleAt", "scheduleDaemon", "scheduleDaemonAt",
    "scheduleResume", "emit",       "select",         "choose",
    "place",          "assign",     "evict",          "migrate",
    "reschedule",     "spawn",      "publish",
};

/// True when the first top-level template argument starting at `i` (just past
/// "<") denotes a pointer type. `last` gets the key spelling for messages.
bool firstTemplateArgIsPointer(const Ctx& c, std::size_t i,
                               std::string* spelling) {
  int depth = 1;
  string_view lastTok;
  for (; i < c.size(); ++i) {
    const Token& t = c.tok(i);
    if (isP(t, "<")) ++depth;
    if (isP(t, ">")) --depth;
    if (isP(t, ">>")) depth -= 2;
    if (depth <= 0 || (depth == 1 && isP(t, ","))) break;
    lastTok = t.text;
    *spelling += std::string(t.text);
  }
  return lastTok == "*";
}

void ruleR2(Ctx& c) {
  if (!c.inSrc) return;

  // Names declared (anywhere in this file) as unordered containers: locals,
  // parameters, and members all match the same shape
  //   unordered_map< ...balanced... > [&*]* name
  std::vector<string_view> unorderedNames;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    const Token& t = c.tok(i);
    if (t.kind != Tok::kIdent || !contains(kUnorderedContainers, t.text)) {
      continue;
    }
    if (!isP(c.tok(i + 1), "<")) continue;

    // R2a: pointer-keyed container (ordered or not, keys that are addresses
    // make iteration/comparison order an ASLR artifact).
    std::string spelling;
    if (firstTemplateArgIsPointer(c, i + 2, &spelling)) {
      c.add(t.line, "R2",
            "pointer-keyed " + std::string(t.text) + "<" + spelling +
                ",...> — address-ordered keys diverge across runs");
    }

    std::size_t j = c.skipAngles(i + 1);
    while (j < c.size() &&
           (isP(c.tok(j), "&") || isP(c.tok(j), "*") ||
            isId(c.tok(j), "const"))) {
      ++j;
    }
    if (j < c.size() && c.tok(j).kind == Tok::kIdent) {
      unorderedNames.push_back(c.tok(j).text);
    }
  }

  // R2a for ordered map/set as well — pointer keys are just as
  // address-ordered there. Qualified spellings only (`std::map<`), so a
  // local variable that happens to be named `map` or `set` never matches.
  for (std::size_t i = 1; i + 1 < c.size(); ++i) {
    const Token& t = c.tok(i);
    if (t.kind != Tok::kIdent || !contains(kAssocContainers, t.text)) continue;
    if (contains(kUnorderedContainers, t.text)) continue;  // handled above
    if (!isP(c.tok(i - 1), "::") || !isP(c.tok(i + 1), "<")) continue;
    std::string spelling;
    if (firstTemplateArgIsPointer(c, i + 2, &spelling)) {
      c.add(t.line, "R2",
            "pointer-keyed " + std::string(t.text) + "<" + spelling +
                ",...> — address-ordered keys diverge across runs");
    }
  }

  // R2b: loops over unordered containers whose body reaches a decision API.
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (!isId(c.tok(i), "for") || !isP(c.tok(i + 1), "(")) continue;
    const std::size_t close = c.closeParen(i + 1);
    if (close >= c.size()) continue;

    bool overUnordered = false;
    string_view containerName;
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (isP(c.tok(j), "(")) ++depth;
      if (isP(c.tok(j), ")")) --depth;
      if (depth == 1 && isP(c.tok(j), ":") && colon == 0) colon = j;
      // Iterator-style: `m.begin()` / `m.cbegin()` in the loop header.
      if (c.tok(j).kind == Tok::kIdent &&
          contains(unorderedNames, c.tok(j).text) && j + 2 < close &&
          isP(c.tok(j + 1), ".") &&
          (isId(c.tok(j + 2), "begin") || isId(c.tok(j + 2), "cbegin"))) {
        overUnordered = true;
        containerName = c.tok(j).text;
      }
    }
    if (colon != 0) {
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (c.tok(j).kind == Tok::kIdent &&
            contains(unorderedNames, c.tok(j).text)) {
          overUnordered = true;
          containerName = c.tok(j).text;
        }
      }
    }
    if (!overUnordered) continue;

    std::size_t bodyBegin = close + 1;
    std::size_t bodyEnd;
    if (bodyBegin < c.size() && isP(c.tok(bodyBegin), "{")) {
      bodyEnd = c.closeBrace(bodyBegin);
    } else {
      bodyEnd = bodyBegin;
      while (bodyEnd < c.size() && !isP(c.tok(bodyEnd), ";")) ++bodyEnd;
    }
    for (std::size_t j = bodyBegin; j < bodyEnd; ++j) {
      if (c.tok(j).kind == Tok::kIdent &&
          contains(kDecisionApis, c.tok(j).text) && j + 1 < bodyEnd &&
          isP(c.tok(j + 1), "(")) {
        c.add(c.tok(i).line, "R2",
              "iteration over unordered container '" +
                  std::string(containerName) + "' calls decision API '" +
                  std::string(c.tok(j).text) +
                  "()' — hash order feeds scheduling; iterate a sorted view");
        break;
      }
    }
  }

  // R2c: ordering predicates comparing raw pointer parameters. Lambda shape:
  //   [..](const T* a, const T* b) { ... a < b ... }
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!isP(c.tok(i), "[")) continue;
    const bool lambdaIntro =
        i == 0 || isP(c.tok(i - 1), "(") || isP(c.tok(i - 1), ",") ||
        isP(c.tok(i - 1), "=") || isP(c.tok(i - 1), "{") ||
        isP(c.tok(i - 1), ";") || isId(c.tok(i - 1), "return");
    if (!lambdaIntro) continue;
    std::size_t rb = i;
    while (rb < c.size() && !isP(c.tok(rb), "]")) ++rb;
    if (rb + 1 >= c.size() || !isP(c.tok(rb + 1), "(")) continue;
    const std::size_t pclose = c.closeParen(rb + 1);
    if (pclose >= c.size()) continue;

    // Parameters: pointer-typed iff the declarator contains a "*".
    std::vector<string_view> ptrParams;
    bool paramHasStar = false;
    string_view lastIdent;
    for (std::size_t j = rb + 2; j <= pclose; ++j) {
      if (isP(c.tok(j), ",") || j == pclose) {
        if (paramHasStar && !lastIdent.empty()) {
          ptrParams.push_back(lastIdent);
        }
        paramHasStar = false;
        lastIdent = {};
        continue;
      }
      if (isP(c.tok(j), "*")) paramHasStar = true;
      if (c.tok(j).kind == Tok::kIdent) lastIdent = c.tok(j).text;
    }
    if (ptrParams.size() < 2) continue;

    std::size_t bodyOpen = pclose + 1;
    while (bodyOpen < c.size() && !isP(c.tok(bodyOpen), "{") &&
           !isP(c.tok(bodyOpen), ";")) {
      ++bodyOpen;
    }
    if (bodyOpen >= c.size() || !isP(c.tok(bodyOpen), "{")) continue;
    const std::size_t bodyEnd = c.closeBrace(bodyOpen);
    for (std::size_t j = bodyOpen + 1; j + 1 < bodyEnd; ++j) {
      if ((isP(c.tok(j), "<") || isP(c.tok(j), ">")) && j > 0 &&
          c.tok(j - 1).kind == Tok::kIdent &&
          c.tok(j + 1).kind == Tok::kIdent &&
          contains(ptrParams, c.tok(j - 1).text) &&
          contains(ptrParams, c.tok(j + 1).text)) {
        c.add(c.tok(j).line, "R2",
              "ordering predicate compares raw pointers '" +
                  std::string(c.tok(j - 1).text) + "' and '" +
                  std::string(c.tok(j + 1).text) +
                  "' — addresses differ across runs; compare stable ids");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R3 — side effects inside check macros.
// ---------------------------------------------------------------------------

constexpr string_view kMutatingOps[] = {"++", "--", "=",  "+=",  "-=",
                                        "*=", "/=", "%=", "&=",  "|=",
                                        "^=", "<<=", ">>="};

constexpr string_view kMutatingCalls[] = {
    "push_back", "pop_back",     "push",    "pop",        "erase",
    "insert",    "emplace",      "emplace_back", "emplace_front",
    "push_front", "pop_front",   "clear",   "reset",      "release",
    "advance",   "consume",      "fetch_add", "fetch_sub",
};

void ruleR3(Ctx& c) {
  if (!c.inSrc && !c.inBench) return;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    const Token& t = c.tok(i);
    const bool isGrads =
        isId(t, "GRADS_REQUIRE") || isId(t, "GRADS_ASSERT");
    const bool isCAssert = isId(t, "assert");
    if ((!isGrads && !isCAssert) || !isP(c.tok(i + 1), "(")) continue;
    const std::size_t close = c.closeParen(i + 1);
    if (close >= c.size()) continue;

    // GRADS_* checks take (expr, message): only the expression is the
    // condition; message expressions (string concatenation) are fine.
    std::size_t exprEnd = close;
    if (isGrads) {
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (isP(c.tok(j), "(") || isP(c.tok(j), "[") || isP(c.tok(j), "{")) {
          ++depth;
        }
        if (isP(c.tok(j), ")") || isP(c.tok(j), "]") || isP(c.tok(j), "}")) {
          --depth;
        }
        if (depth == 1 && isP(c.tok(j), ",")) {
          exprEnd = j;
          break;
        }
      }
    }

    for (std::size_t j = i + 2; j < exprEnd; ++j) {
      const Token& e = c.tok(j);
      if (e.kind == Tok::kPunct && contains(kMutatingOps, e.text)) {
        c.add(e.line, "R3",
              "side effect '" + std::string(e.text) + "' inside " +
                  std::string(t.text) +
                  " — hoist the mutation; Release strips/varies checks");
      }
      if (e.kind == Tok::kIdent && contains(kMutatingCalls, e.text) &&
          j > 0 && (isP(c.tok(j - 1), ".") || isP(c.tok(j - 1), "->")) &&
          j + 1 < exprEnd && isP(c.tok(j + 1), "(")) {
        c.add(e.line, "R3",
              "mutating call '." + std::string(e.text) + "()' inside " +
                  std::string(t.text) + " — hoist it out of the check");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R4 — raw allocation and type-erased callbacks on the hot path.
// ---------------------------------------------------------------------------

/// The only file allowed to say `new`/`delete`: the InlineFn small-buffer
/// fallback. Everything else in src/ (the event-node pool included) uses
/// containers or smart pointers, so ownership bugs stay impossible by
/// construction.
constexpr string_view kPoolInternals[] = {"src/sim/inline_fn.hpp"};

void ruleR4(Ctx& c) {
  if (!c.inSrc) return;
  const bool poolFile = contains(kPoolInternals, c.relPath);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Token& t = c.tok(i);
    if (t.kind != Tok::kIdent) continue;
    if (!poolFile && t.text == "new") {
      if (i > 0 && isId(c.tok(i - 1), "operator")) continue;
      c.add(t.line, "R4",
            "raw 'new' outside sim pool internals — use containers, "
            "make_unique, or the event pool");
    }
    if (!poolFile && t.text == "delete") {
      // `= delete` (deleted special members) and `operator delete` are
      // declarations, not deallocations.
      if (i > 0 && (isP(c.tok(i - 1), "=") || isId(c.tok(i - 1), "operator"))) {
        continue;
      }
      c.add(t.line, "R4",
            "raw 'delete' outside sim pool internals — ownership must be "
            "RAII-managed");
    }
    if (startsWith(c.relPath, "src/sim/") && t.text == "function" && i >= 2 &&
        isP(c.tok(i - 1), "::") && isId(c.tok(i - 2), "std")) {
      c.add(t.line, "R4",
            "std::function on the engine hot path — use sim::InlineFn "
            "(allocation-free, already adopted by the event pool)");
    }
  }
}

// ---------------------------------------------------------------------------
// R5 — include hygiene and banned headers.
// ---------------------------------------------------------------------------

constexpr string_view kBannedHeaders[] = {
    "ctime",  "time.h",     "sys/time.h",        "chrono",
    "thread", "mutex",      "condition_variable", "future",
    "shared_mutex", "stop_token",
};

// (Include-target extraction lives in symbols.cpp — shared with the symbol
// model's include-graph pass.)

void ruleR5(Ctx& c) {
  // Header hygiene applies to every header in the tree.
  if (c.isHeader) {
    const bool pragmaFirst =
        !c.toks.empty() && c.tok(0).kind == Tok::kDirective &&
        startsWith(c.tok(0).text, "#pragma") &&
        c.tok(0).text.find("once") != string_view::npos;
    if (!pragmaFirst) {
      c.add(1, "R5", "header must open with '#pragma once'");
    }
    for (std::size_t i = 0; i + 1 < c.size(); ++i) {
      if (isId(c.tok(i), "using") && isId(c.tok(i + 1), "namespace")) {
        c.add(c.tok(i).line, "R5",
              "'using namespace' in a header leaks into every includer");
      }
    }
  }

  for (std::size_t i = 0; i < c.size(); ++i) {
    const Token& t = c.tok(i);
    if (t.kind != Tok::kDirective) continue;
    const string_view target = includeTarget(t.text);
    if (target.empty()) continue;
    if (target.find("../") != string_view::npos) {
      c.add(t.line, "R5",
            "parent-relative include '" + std::string(target) +
                "' — include project headers by their src/-relative path");
    }
    if (c.inSrc && contains(kBannedHeaders, target)) {
      c.add(t.line, "R5",
            "banned header <" + std::string(target) +
                "> in src/ — wall-clock and threading are nondeterministic; "
                "use sim time");
    }
    if (c.inSrc && target == "random" &&
        !startsWith(c.relPath, "src/util/rng.")) {
      c.add(t.line, "R5",
            "<random> outside util/rng — all randomness flows through "
            "grads::Rng");
    }
  }
}

// ---------------------------------------------------------------------------
// Suppressions: `grads-lint: allow(RULE reason text)`; covers the
// annotation's own line and the next line, one rule id per allow().
// ---------------------------------------------------------------------------

std::vector<Suppression> parseSuppressions(const std::string& relPath,
                                           const std::vector<Token>& comments) {
  std::vector<Suppression> out;
  for (const Token& com : comments) {
    string_view text = com.text;
    std::size_t at = 0;
    while ((at = text.find("grads-lint:", at)) != string_view::npos) {
      std::size_t open = text.find("allow(", at);
      if (open == string_view::npos) break;
      open += 6;
      const std::size_t close = text.find(')', open);
      if (close == string_view::npos) break;
      string_view body = text.substr(open, close - open);
      // Leading comma/space-separated rule ids, then free-text reason.
      std::vector<std::string> rules;
      std::size_t i = 0;
      for (;;) {
        while (i < body.size() && (body[i] == ' ' || body[i] == ',')) ++i;
        std::size_t j = i;
        while (j < body.size() && body[j] != ' ' && body[j] != ',') ++j;
        const string_view word = body.substr(i, j - i);
        const bool ruleId =
            word.size() >= 2 && word[0] == 'R' &&
            std::all_of(word.begin() + 1, word.end(), [](char ch) {
              return std::isdigit(static_cast<unsigned char>(ch));
            });
        if (!ruleId) break;
        rules.emplace_back(word);
        i = j;
      }
      while (i < body.size() && (body[i] == ' ' || body[i] == ',')) ++i;
      const std::string reason(body.substr(i));
      for (const std::string& r : rules) {
        out.push_back(Suppression{relPath, com.line, r, reason, false});
      }
      at = close;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// R7–R10 — tree-wide rules over the phase-1 symbol model.
// ---------------------------------------------------------------------------

void addSym(std::vector<Finding>& out, const std::string& file, int line,
            const char* rule, std::string msg) {
  out.push_back(Finding{file, line, rule, "error", std::move(msg), false, {}});
}

/// Scope for R7 and R9: src/, and bench/ and tools/ so the analyzer and the
/// benches obey their own invariants. tests/ is never in scope — fixtures
/// there break rules on purpose.
bool symScope(string_view path) {
  return startsWith(path, "src/") || startsWith(path, "bench/") ||
         startsWith(path, "tools/");
}

// R7 — mutable static / thread_local state.

void ruleR7(const FileSymbols& f, std::vector<Finding>& out) {
  if (!symScope(f.path)) return;
  for (const StaticVarSym& s : f.statics) {
    if (s.threadLocal) {
      addSym(out, f.path, s.line, "R7",
             "thread_local variable '" + s.name +
                 "' — per-thread state is invisible to snapshots and pins "
                 "behaviour to whichever thread ran first; keep state "
                 "engine-owned");
      continue;
    }
    if (s.isConst) continue;
    const char* scope = s.namespaceScope ? "file/namespace-scope static"
                        : s.classScope   ? "mutable static data member"
                                         : "function-local static";
    addSym(out, f.path, s.line, "R7",
           std::string(scope) + " '" + s.name +
               "' is process-wide mutable state — snapshots never see it and "
               "every engine in the process (what-if sandboxes included) "
               "shares it; move it into an engine-owned type (documented "
               "singletons may carry a waiver)");
  }
}

// R8 — architecture layering DAG over the include graph.

/// Layer ranks, longest-prefix match. An include may only point at an equal
/// or lower rank. File-granular overrides come before their directory: the
/// core/ composition roots (AppManager, Binder) sit above the services they
/// wire together, and core/cop (the launch pipeline) sits at the workflow
/// layer it drives.
struct LayerEntry {
  string_view prefix;
  int rank;
};
constexpr LayerEntry kLayers[] = {
    {"src/util/", 0},
    {"src/sim/", 1},
    {"src/core/app_manager", 9},
    {"src/core/binder", 9},
    {"src/core/cop", 7},
    {"src/core/", 2},
    {"src/grid/", 3},
    {"src/autopilot/", 4},
    {"src/services/", 5},
    {"src/mem/", 5},
    {"src/microgrid/", 5},
    {"src/perfmodel/", 6},
    {"src/vmpi/", 6},
    {"src/workflow/", 7},
    {"src/reschedule/", 8},
    {"src/metasched/", 10},
    {"src/apps/", 10},
};

int layerRank(string_view path) {
  int best = -1;
  std::size_t bestLen = 0;
  for (const LayerEntry& e : kLayers) {
    if (startsWith(path, e.prefix) && e.prefix.size() > bestLen) {
      best = e.rank;
      bestLen = e.prefix.size();
    }
  }
  return best;
}

void ruleR8(const FileSymbols& f, std::vector<Finding>& out) {
  if (!startsWith(f.path, "src/")) return;  // bench/tests/tools sit on top
  const int srcRank = layerRank(f.path);
  if (srcRank < 0) return;
  for (const IncludeSym& inc : f.includes) {
    // Project includes are src/-relative ("grid/node.hpp"); system headers
    // and tool-local includes never resolve to a layer.
    std::string target = inc.target;
    if (!startsWith(target, "src/")) target = "src/" + target;
    const int dstRank = layerRank(target);
    if (dstRank < 0 || dstRank <= srcRank) continue;
    addSym(out, f.path, inc.line, "R8",
           "include of '" + inc.target + "' (layer " +
               std::to_string(dstRank) + ") from layer " +
               std::to_string(srcRank) +
               " inverts the architecture DAG (util → sim → core → grid → "
               "services → {perfmodel, workflow, vmpi} → reschedule → "
               "{metasched, autopilot, apps}) — depend downward or via a "
               "forward declaration");
  }
}

// R9 — snapshot field coverage.

void ruleR9(const std::vector<FileSymbols>& files, std::vector<Finding>& out) {
  std::vector<const ClassSym*> classes;
  for (const FileSymbols& f : files) {
    for (const ClassSym& c : f.classes) classes.push_back(&c);
  }
  // A class's field lists (its snapshotIo, and its encodeState: a
  // hand-written codec or the call into snapshotIo) pool their identifiers.
  struct Coverage {
    const ClassSym* cls;
    const MethodSym* cite;  ///< named in findings; snapshotIo when present
    std::vector<std::string> idents;
  };
  std::vector<Coverage> lists;
  for (const FileSymbols& f : files) {
    for (const MethodSym& m : f.methods) {
      // Join the definition back to its class: same-file wins, otherwise a
      // unique cross-file match (header class, out-of-line methods); an
      // ambiguous name is skipped rather than guessed.
      const ClassSym* sameFile = nullptr;
      const ClassSym* any = nullptr;
      int count = 0;
      for (const ClassSym* c : classes) {
        if (c->name != m.className) continue;
        ++count;
        any = c;
        if (c->file == m.file) sameFile = c;
      }
      const ClassSym* cls = sameFile ? sameFile : (count == 1 ? any : nullptr);
      if (cls == nullptr || !symScope(cls->file)) continue;
      auto it = std::find_if(lists.begin(), lists.end(),
                             [cls](const Coverage& l) { return l.cls == cls; });
      if (it == lists.end()) it = lists.insert(lists.end(), {cls, &m, {}});
      if (m.name == "snapshotIo") it->cite = &m;
      it->idents.insert(it->idents.end(), m.bodyIdents.begin(),
                        m.bodyIdents.end());
    }
  }

  for (const Coverage& l : lists) {
    for (const MemberSym& mem : l.cls->members) {
      if (mem.transient) {
        if (mem.transientReason.empty()) {
          addSym(out, l.cls->file, mem.line, "R9",
                 "transient annotation on '" + mem.name +
                     "' needs a reason: `// grads: transient(why)`");
        }
        continue;
      }
      if (std::find(l.idents.begin(), l.idents.end(), mem.name) ==
          l.idents.end()) {
        addSym(out, l.cls->file, mem.line, "R9",
               "field '" + mem.name + "' of '" + l.cls->name +
                   "' is not referenced in " + l.cls->name +
                   "::" + l.cite->name + " (" + l.cite->file + ":" +
                   std::to_string(l.cite->line) +
                   ") — snapshot it or mark `// grads: transient(reason)`");
      }
    }
  }
}

// R10 — by-reference captures handed to the engine.

void ruleR10(const FileSymbols& f, std::vector<Finding>& out) {
  if (!startsWith(f.path, "src/")) return;  // bench drivers own their frames
  for (const CaptureSym& cap : f.captures) {
    if (cap.defaultRef) {
      addSym(out, f.path, cap.line, "R10",
             "[&] default capture in callback handed to Engine::" +
                 cap.callee +
                 " — the enclosing frame is gone when the event fires; "
                 "capture explicit values, stable handles, or this");
    }
    for (const std::string& n : cap.refCaptures) {
      addSym(out, f.path, cap.line, "R10",
             "by-reference capture '&" + n +
                 "' in callback handed to Engine::" + cap.callee +
                 " — capture a value or a stable handle to engine-owned "
                 "state instead");
    }
  }
}

}  // namespace

FileAnalysis analyzeFile(const std::string& relPath, std::string_view content) {
  FileAnalysis a;
  const LexResult lexed = lex(content);

  Ctx c{relPath, lexed.tokens, a.report.findings};
  c.inSrc = startsWith(relPath, "src/");
  c.inBench = startsWith(relPath, "bench/");
  c.isHeader = endsWith(relPath, ".hpp") || endsWith(relPath, ".h");

  ruleR1(c);
  ruleR2(c);
  ruleR3(c);
  ruleR4(c);
  ruleR5(c);

  a.report.suppressions = parseSuppressions(relPath, lexed.comments);
  a.symbols = buildSymbols(relPath, lexed);
  return a;
}

void runTreeRules(const std::vector<FileSymbols>& files,
                  std::vector<Finding>& out) {
  for (const FileSymbols& f : files) {
    ruleR7(f, out);
    ruleR8(f, out);
    ruleR10(f, out);
  }
  ruleR9(files, out);
}

void matchSuppressions(std::vector<Finding>& findings,
                       std::vector<Suppression>& suppressions) {
  for (Finding& f : findings) {
    if (f.suppressed) continue;
    for (Suppression& s : suppressions) {
      if (s.file == f.file && s.rule == f.rule &&
          (s.line == f.line || s.line + 1 == f.line)) {
        f.suppressed = true;
        f.suppressReason = s.reason;
        s.used = true;
        break;
      }
    }
  }
}

}  // namespace grads::lint
