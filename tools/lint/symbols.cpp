#include "symbols.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>

namespace grads::lint {

namespace {

using std::string_view;

bool isId(const Token& t, string_view s) {
  return t.kind == Tok::kIdent && t.text == s;
}

bool isP(const Token& t, string_view s) {
  return t.kind == Tok::kPunct && t.text == s;
}

bool contains(const auto& list, string_view v) {
  return std::find(std::begin(list), std::end(list), v) != std::end(list);
}

/// Identifiers that can appear in a declaration's type prefix but never name
/// the declared entity — the member parser must not mistake them for names.
constexpr string_view kDeclKeywords[] = {
    "const",    "constexpr", "constinit", "mutable",  "static",
    "inline",   "volatile",  "unsigned",  "signed",   "long",
    "short",    "typename",  "struct",    "class",    "enum",
    "union",    "virtual",   "explicit",  "extern",   "register",
    "thread_local",
};

/// Engine scheduling / emission vocabulary: callbacks handed through these
/// call sites outlive the current stack frame by construction, so their
/// capture lists are audited by R10.
constexpr string_view kEngineCallees[] = {
    "schedule",       "scheduleAt", "scheduleDaemon", "scheduleDaemonAt",
    "scheduleResume", "emit",
};

/// Comment-channel pass: collect the reasons of `// grads: transient(...)`
/// annotations keyed by the comment's line (the first one on a line wins).
/// An annotation covers its own line and the next line, mirroring the
/// waiver convention.
std::map<int, std::string> parseTransients(const std::vector<Token>& comments) {
  std::map<int, std::string> out;
  for (const Token& com : comments) {
    string_view text = com.text;
    std::size_t at = 0;
    while ((at = text.find("grads:", at)) != string_view::npos) {
      std::size_t i = at + 6;
      while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
      std::size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) ||
              text[j] == '_')) {
        ++j;
      }
      const string_view kind = text.substr(i, j - i);
      if (kind == "transient" && j < text.size() && text[j] == '(') {
        const std::size_t close = text.find(')', j);
        if (close != string_view::npos) {
          out.emplace(com.line, text.substr(j + 1, close - j - 1));
        }
      }
      at = j;
    }
  }
  return out;
}

/// The transient reason covering a declaration on `line`: an annotation on
/// its own line or the line above it.
const std::string* findTransient(const std::map<int, std::string>& reasons,
                                 int line) {
  for (const int l : {line, line - 1}) {
    const auto it = reasons.find(l);
    if (it != reasons.end()) return &it->second;
  }
  return nullptr;
}

/// Token range of a class body or an internal-linkage function body.
struct BodyRange {
  std::size_t open = 0;   ///< index of '{'
  std::size_t close = 0;  ///< index of matching '}'
};

class SymbolBuilder {
 public:
  SymbolBuilder(const std::string& relPath, const LexResult& lexed)
      : toks_(lexed.tokens), transients_(parseTransients(lexed.comments)) {
    out_.path = relPath;
  }

  FileSymbols run() {
    collectIncludes();
    walk();
    for (std::size_t k = 0; k < out_.classes.size(); ++k) parseMembers(k);
    collectStatics();
    collectCaptures();
    collectMethods();
    return std::move(out_);
  }

 private:
  std::size_t size() const { return toks_.size(); }
  const Token& tok(std::size_t i) const { return toks_[i]; }

  std::size_t closeParen(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < size(); ++i) {
      if (isP(tok(i), "(")) ++depth;
      if (isP(tok(i), ")")) {
        if (--depth == 0) return i;
      }
    }
    return size();
  }

  std::size_t closeBrace(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < size(); ++i) {
      if (isP(tok(i), "{")) ++depth;
      if (isP(tok(i), "}")) {
        if (--depth == 0) return i;
      }
    }
    return size();
  }

  std::size_t closeBracket(std::size_t open) const {
    int depth = 0;
    for (std::size_t i = open; i < size(); ++i) {
      if (isP(tok(i), "[")) ++depth;
      if (isP(tok(i), "]")) {
        if (--depth == 0) return i;
      }
    }
    return size();
  }

  /// Skips a template argument list whose "<" is at `i`; returns the index
  /// just past the matching ">". Treats ">>" as two closers.
  std::size_t skipAngles(std::size_t i) const {
    int depth = 0;
    for (; i < size(); ++i) {
      if (isP(tok(i), "<")) ++depth;
      if (isP(tok(i), ">")) --depth;
      if (isP(tok(i), ">>")) depth -= 2;
      if (depth <= 0) return i + 1;
    }
    return size();
  }

  void collectIncludes() {
    for (const Token& t : toks_) {
      if (t.kind != Tok::kDirective) continue;
      const string_view target = includeTarget(t.text);
      if (!target.empty()) {
        out_.includes.push_back(IncludeSym{std::string(target), t.line});
      }
    }
  }

  // -- Scope walk: classes, nested classes, internal-linkage functions. ----

  struct Scope {
    enum Kind { kNamespace, kAnonNamespace, kClass, kEnum, kFn, kBlock };
    Kind kind;
    std::size_t classIdx = 0;  ///< valid when kind == kClass
  };

  bool atDeclScope() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kFn || it->kind == Scope::kBlock ||
          it->kind == Scope::kEnum) {
        return false;
      }
      if (it->kind == Scope::kClass) return true;  // class body is decl scope
    }
    return true;
  }

  bool inAnonNamespace() const {
    return std::any_of(scopes_.begin(), scopes_.end(), [](const Scope& s) {
      return s.kind == Scope::kAnonNamespace;
    });
  }

  const Scope* innermostClass() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return &*it;
      if (it->kind == Scope::kFn || it->kind == Scope::kBlock) break;
    }
    return nullptr;
  }

  /// Classifies class/struct/union heads: a definition is a head whose
  /// lookahead reaches "{" before any of ";>,)=" — forward declarations,
  /// template parameters, and enum class never push scope.
  bool classDefAt(std::size_t i, std::string* name, std::size_t* bracePos,
                  std::vector<std::string>* bases) const {
    std::size_t n = i + 1;
    while (n < size() && isId(tok(n), "alignas")) ++n;
    while (n < size() && isP(tok(n), "[")) n = closeBracket(n) + 1;  // attrs
    if (n >= size() || tok(n).kind != Tok::kIdent) return false;
    *name = std::string(tok(n).text);
    std::size_t j = n + 1;
    bool inBases = false;
    while (j < size()) {
      if (isP(tok(j), "<")) {
        j = skipAngles(j);
        continue;
      }
      if (isP(tok(j), "{")) {
        *bracePos = j;
        return true;
      }
      if (isP(tok(j), ":")) inBases = true;
      if (isP(tok(j), ";") || isP(tok(j), ">") || isP(tok(j), ",") ||
          isP(tok(j), ")") || isP(tok(j), "=")) {
        // A comma inside the base clause separates bases, not declarators.
        if (!(inBases && isP(tok(j), ","))) return false;
      }
      if (inBases && tok(j).kind == Tok::kIdent && !isId(tok(j), "public") &&
          !isId(tok(j), "protected") && !isId(tok(j), "private") &&
          !isId(tok(j), "virtual")) {
        bases->push_back(std::string(tok(j).text));
      }
      ++j;
    }
    return false;
  }

  void walk() {
    // Brace positions pre-classified by the declaration that owns them.
    std::map<std::size_t, Scope> pending;
    std::size_t stmtStart = 0;  ///< statement start at declaration scope

    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind == Tok::kDirective) continue;

      if (isId(t, "namespace") && atDeclScope()) {
        std::size_t j = i + 1;
        bool named = false;
        while (j < size() && (tok(j).kind == Tok::kIdent || isP(tok(j), "::"))) {
          if (tok(j).kind == Tok::kIdent) named = true;
          ++j;
        }
        if (j < size() && isP(tok(j), "{")) {
          pending[j] = Scope{named ? Scope::kNamespace : Scope::kAnonNamespace};
        }
        continue;
      }

      if ((isId(t, "class") || isId(t, "struct") || isId(t, "union")) &&
          !(i > 0 && isId(tok(i - 1), "enum")) && atDeclScope()) {
        std::string name;
        std::size_t brace = 0;
        std::vector<std::string> bases;
        if (classDefAt(i, &name, &brace, &bases)) {
          ClassSym cls;
          cls.name = name;
          cls.file = out_.path;
          cls.line = t.line;
          cls.baseIdents = std::move(bases);
          out_.classes.push_back(std::move(cls));
          classBodies_.push_back(BodyRange{brace, closeBrace(brace)});
          pending[brace] = Scope{Scope::kClass, out_.classes.size() - 1};
        }
        continue;
      }

      if (isId(t, "enum") && atDeclScope()) {
        std::size_t j = i + 1;
        while (j < size() && !isP(tok(j), "{") && !isP(tok(j), ";")) ++j;
        if (j < size() && isP(tok(j), "{")) pending[j] = Scope{Scope::kEnum};
        continue;
      }

      if (isP(t, "{")) {
        const auto it = pending.find(i);
        if (it != pending.end()) {
          scopes_.push_back(it->second);
          pending.erase(it);
        } else if (!atDeclScope()) {
          scopes_.push_back(Scope{Scope::kBlock});
        } else {
          // At declaration scope an unclassified "{" is a function body when
          // it follows a parameter list (")" possibly trailed by qualifiers
          // or a ctor-init list), otherwise a braced initializer.
          scopes_.push_back(Scope{looksLikeFunctionBody(i)
                                      ? Scope::kFn
                                      : Scope::kBlock});
        }
        continue;
      }
      if (isP(t, "}")) {
        if (!scopes_.empty()) scopes_.pop_back();
        if (atDeclScope()) stmtStart = i + 1;
        continue;
      }
      if (isP(t, ";") && atDeclScope()) {
        stmtStart = i + 1;
        continue;
      }

      // Internal-linkage free function definition: `name(` at namespace
      // scope whose parameter list is followed by a body, with `static` in
      // the declaration or an anonymous namespace around it. classifyScope
      // reads these body ranges to tell function-local statics apart.
      if (t.kind == Tok::kIdent && innermostClass() == nullptr &&
          atDeclScope() && i + 1 < size() && isP(tok(i + 1), "(") &&
          !isId(t, "operator")) {
        const std::size_t close = closeParen(i + 1);
        std::size_t j = close + 1;
        while (j < size() &&
               (isId(tok(j), "const") || isId(tok(j), "noexcept") ||
                isId(tok(j), "override") || isId(tok(j), "final"))) {
          ++j;
        }
        if (j < size() && isP(tok(j), "{")) {
          bool isStatic = inAnonNamespace();
          for (std::size_t k = stmtStart; k < i && !isStatic; ++k) {
            if (isId(tok(k), "static")) isStatic = true;
          }
          if (isStatic) staticFnBodies_.push_back(BodyRange{j, closeBrace(j)});
        }
      }
    }
  }

  /// True when the "{" at `i` closes a function declarator: walking back it
  /// reaches ")" (or "}" — a brace-init inside a ctor-init list), skipping
  /// trailing qualifiers and trailing-return tokens.
  bool looksLikeFunctionBody(std::size_t i) const {
    std::size_t j = i;
    int angleGuard = 0;
    while (j > 0) {
      --j;
      const Token& p = tok(j);
      if (isP(p, ")") || isP(p, "}")) return true;
      if (isP(p, "=") || isP(p, ",") || isP(p, "{") || isP(p, "(") ||
          isP(p, ";") || isId(p, "return")) {
        return false;
      }
      // Trailing return types / qualifiers keep walking; anything else (an
      // identifier right before the brace, e.g. `int xs{3}`) after more
      // than a few tokens means initializer.
      if (++angleGuard > 8) return false;
    }
    return false;
  }

  // -- Data members (per class, post-pass over the body range). ------------

  void parseMembers(std::size_t classIdx) {
    const BodyRange body = classBodies_[classIdx];
    ClassSym& cls = out_.classes[classIdx];
    std::size_t i = body.open + 1;
    while (i < body.close) {
      const Token& t = tok(i);
      if (t.kind == Tok::kDirective || isP(t, ";")) {
        ++i;
        continue;
      }
      if ((isId(t, "public") || isId(t, "protected") || isId(t, "private")) &&
          i + 1 < body.close && isP(tok(i + 1), ":")) {
        i += 2;
        continue;
      }
      if (isId(t, "using") || isId(t, "typedef") || isId(t, "friend") ||
          isId(t, "static_assert")) {
        while (i < body.close && !isP(tok(i), ";")) ++i;
        continue;
      }
      if (isId(t, "template")) {
        std::size_t j = i + 1;
        if (j < body.close && isP(tok(j), "<")) j = skipAngles(j);
        i = j;
        continue;
      }
      if ((isId(t, "class") || isId(t, "struct") || isId(t, "union") ||
           isId(t, "enum"))) {
        // Nested type: its own ClassSym was built by the walk; skip its body
        // here, then pick up a trailing declarator (`struct S {...} s_;`).
        std::size_t j = i + 1;
        while (j < body.close && !isP(tok(j), "{") && !isP(tok(j), ";")) ++j;
        if (j < body.close && isP(tok(j), "{")) j = closeBrace(j) + 1;
        // Remainder of the statement: any identifier is a member name.
        std::string trailing;
        int trailingLine = 0;
        while (j < body.close && !isP(tok(j), ";")) {
          if (tok(j).kind == Tok::kIdent) {
            trailing = std::string(tok(j).text);
            trailingLine = tok(j).line;
          }
          ++j;
        }
        if (!trailing.empty()) addMember(cls, trailing, trailingLine);
        i = j + 1;
        continue;
      }
      i = parseMemberStatement(cls, i, body.close);
    }
  }

  /// Parses one declaration statement starting at `i` inside a class body;
  /// returns the index just past it. Records data members (functions, static
  /// members, and aliases are recognized and skipped).
  std::size_t parseMemberStatement(ClassSym& cls, std::size_t i,
                                   std::size_t end) {
    bool isFn = false;
    bool sawStatic = false;
    std::string lastIdent;
    int lastLine = 0;
    std::vector<std::pair<std::string, int>> names;
    bool sawAnything = false;

    auto flushName = [&] {
      if (!isFn && !sawStatic && !lastIdent.empty()) {
        names.emplace_back(lastIdent, lastLine);
      }
      lastIdent.clear();
    };

    std::size_t j = i;
    while (j < end) {
      const Token& t = tok(j);
      if (t.kind == Tok::kIdent) {
        if (isId(t, "static")) sawStatic = true;
        if (isId(t, "operator")) isFn = true;
        if (!contains(kDeclKeywords, t.text)) {
          lastIdent = std::string(t.text);
          lastLine = t.line;
        }
        sawAnything = true;
        ++j;
        continue;
      }
      if (isP(t, "<") && j > i && tok(j - 1).kind == Tok::kIdent) {
        j = skipAngles(j);
        continue;
      }
      if (isP(t, "[")) {
        if (!sawAnything) {
          j = closeBracket(j) + 1;  // [[attribute]]
        } else {
          j = closeBracket(j) + 1;  // array extent; name already captured
        }
        continue;
      }
      if (isP(t, "(")) {
        isFn = true;
        j = closeParen(j) + 1;
        continue;
      }
      if (isP(t, "=")) {
        // Default member initializer (or `= default/delete/0` on functions):
        // consume it balanced up to the statement's top-level "," or ";".
        flushName();
        int pd = 0;
        ++j;
        while (j < end) {
          const Token& e = tok(j);
          if (isP(e, "(") || isP(e, "[") || isP(e, "{")) ++pd;
          if (isP(e, ")") || isP(e, "]") || isP(e, "}")) --pd;
          if (pd == 0 && (isP(e, ",") || isP(e, ";"))) break;
          ++j;
        }
        continue;
      }
      if (isP(t, "{")) {
        if (isFn) {
          // Function body (possibly after a ctor-init list) ends the
          // statement with no semicolon.
          j = closeBrace(j) + 1;
          if (j < end && isP(tok(j), ";")) ++j;
          return j;
        }
        flushName();  // braced default initializer: name precedes the brace
        j = closeBrace(j) + 1;
        continue;
      }
      if (isP(t, ":") && sawAnything) {
        // Bitfield width (or a ctor-init list when isFn): skip to the next
        // structural token.
        if (!isFn) flushName();
        ++j;
        while (j < end && !isP(tok(j), ";") && !isP(tok(j), "{") &&
               !isP(tok(j), ",")) {
          ++j;
        }
        continue;
      }
      if (isP(t, ",")) {
        flushName();
        ++j;
        continue;
      }
      if (isP(t, ";")) {
        flushName();
        ++j;
        break;
      }
      sawAnything = true;
      ++j;
    }

    for (const auto& [name, line] : names) addMember(cls, name, line);
    return std::max(j, i + 1);
  }

  void addMember(ClassSym& cls, const std::string& name, int line) {
    MemberSym m;
    m.name = name;
    m.line = line;
    if (const std::string* reason = findTransient(transients_, line)) {
      m.transient = true;
      m.transientReason = *reason;
    }
    cls.members.push_back(std::move(m));
  }

  // -- Static / thread_local variables (any scope). ------------------------

  void collectStatics() {
    // A parallel scope replay classifying declaration context. The main walk
    // already classified braces; rather than persist that, replay cheaply:
    // namespace scope == not inside any {} that is a class/enum/fn/block.
    // We reuse the class body and fn body ranges to classify positions.
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      const bool isStatic = isId(t, "static");
      const bool isTls = isId(t, "thread_local");
      if (!isStatic && !isTls) continue;
      // `static thread_local` / `thread_local static` pairs: analyze once.
      if (i > 0 &&
          (isId(tok(i - 1), "static") || isId(tok(i - 1), "thread_local"))) {
        continue;
      }

      StaticVarSym sym;
      sym.line = t.line;
      sym.threadLocal = isTls;
      std::size_t j = i + 1;
      std::string lastIdent;
      bool aborted = false;
      while (j < size()) {
        const Token& e = tok(j);
        if (e.kind == Tok::kIdent) {
          if (isId(e, "thread_local")) sym.threadLocal = true;
          if (isId(e, "const") || isId(e, "constexpr") ||
              isId(e, "constinit")) {
            sym.isConst = true;
          }
          if (isId(e, "operator") || isId(e, "class") || isId(e, "struct") ||
              isId(e, "union") || isId(e, "enum") || isId(e, "using") ||
              isId(e, "friend")) {
            aborted = true;  // function / type / alias declaration
            break;
          }
          if (!contains(kDeclKeywords, e.text)) lastIdent = e.text;
          ++j;
          continue;
        }
        if (isP(e, "<") && j > i + 1 && tok(j - 1).kind == Tok::kIdent) {
          j = skipAngles(j);
          continue;
        }
        if (isP(e, "(")) {
          aborted = true;  // function declaration/definition
          break;
        }
        if (isP(e, "::") || isP(e, "*") || isP(e, "&")) {
          ++j;
          continue;
        }
        if (isP(e, ";") || isP(e, "=") || isP(e, "{") || isP(e, "[")) {
          break;  // variable declaration terminators
        }
        aborted = true;  // anything else: not a variable declaration
        break;
      }
      if (aborted || lastIdent.empty()) continue;
      sym.name = lastIdent;
      classifyScope(i, &sym);
      out_.statics.push_back(std::move(sym));
    }
  }

  void classifyScope(std::size_t pos, StaticVarSym* sym) const {
    for (std::size_t k = 0; k < classBodies_.size(); ++k) {
      if (pos > classBodies_[k].open && pos < classBodies_[k].close) {
        sym->classScope = true;  // may be refined to fn-local below
      }
    }
    // Function-local wins over class scope (a static inside a method body).
    bool fnLocal = false;
    for (const BodyRange& r : staticFnBodies_) {
      if (pos > r.open && pos < r.close) fnLocal = true;
    }
    // Cheap local check independent of the recorded fn ranges: inside any
    // parenthesized-then-braced body. Walk back for an unmatched "{" whose
    // owner looks like a function. We approximate: if an unmatched "("... is
    // overkill — instead, count unmatched braces that are NOT class bodies.
    int openNonClass = 0;
    int depth = 0;
    for (std::size_t i = 0; i < pos; ++i) {
      if (isP(tok(i), "{")) ++depth;
      if (isP(tok(i), "}")) --depth;
    }
    int classDepthAt = 0;
    for (const BodyRange& r : classBodies_) {
      if (pos > r.open && pos < r.close) ++classDepthAt;
    }
    int nsDepthAt = 0;
    for (const BodyRange& r : nsBodies_) {
      if (pos > r.open && pos < r.close) ++nsDepthAt;
    }
    openNonClass = depth - classDepthAt - nsDepthAt;
    if (openNonClass > 0) fnLocal = true;
    if (fnLocal) {
      sym->classScope = false;
      sym->namespaceScope = false;
      return;
    }
    sym->namespaceScope = !sym->classScope;
  }

  // -- Lambda captures at engine scheduling call sites. --------------------

  void collectCaptures() {
    for (std::size_t i = 0; i + 1 < size(); ++i) {
      const Token& t = tok(i);
      if (t.kind != Tok::kIdent || !contains(kEngineCallees, t.text)) continue;
      if (!isP(tok(i + 1), "(")) continue;
      // Definitions of the APIs themselves (e.g. Engine::schedule) must not
      // self-flag: a definition's "(" is followed by parameter declarations,
      // but distinguishing that lexically is brittle — instead, skip when
      // the previous token is "::" (qualified definition head).
      if (i > 0 && isP(tok(i - 1), "::")) continue;
      const std::size_t close = closeParen(i + 1);
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (isP(tok(j), "(")) ++depth;
        if (isP(tok(j), ")")) --depth;
        // Only capture lists at direct argument position (depth 1, preceded
        // by "(" or ",") are callbacks handed to the engine; deeper brackets
        // are subscripts or lambdas local to another callee.
        if (depth != 1 || !isP(tok(j), "[")) continue;
        if (!(isP(tok(j - 1), "(") || isP(tok(j - 1), ","))) continue;
        CaptureSym cap;
        cap.callee = std::string(t.text);
        cap.line = tok(j).line;
        parseCaptureList(j + 1, &cap);
        out_.captures.push_back(std::move(cap));
      }
    }
  }

  void parseCaptureList(std::size_t i, CaptureSym* cap) const {
    // Entries up to the closing "]": `&` alone, `&name`, `&name = expr`,
    // `name`, `name = expr`, `this`, `*this`, `=`.
    while (i < size() && !isP(tok(i), "]")) {
      if (isP(tok(i), "&")) {
        if (i + 1 < size() && tok(i + 1).kind == Tok::kIdent &&
            !isId(tok(i + 1), "this")) {
          cap->refCaptures.emplace_back(tok(i + 1).text);
          ++i;
        } else {
          cap->defaultRef = true;
        }
      }
      // Skip to the next top-level comma or the end of the list.
      int pd = 0;
      while (i < size()) {
        const Token& e = tok(i);
        if (isP(e, "(") || isP(e, "{") || isP(e, "[")) ++pd;
        if (isP(e, ")") || isP(e, "}")) --pd;
        if (pd == 0 && isP(e, "]")) return;
        if (pd < 0) return;
        ++i;
        if (pd == 0 && i < size() && isP(tok(i - 1), ",")) break;
      }
    }
  }

  // -- snapshotIo / encodeState definition bodies. -------------------------

  void collectMethods() {
    // Out-of-line `Type::snapshotIo` qualifies itself; in-class definitions
    // attribute to the innermost enclosing class body range. Calls
    // (`snapshotIo(*this, w);`, `inner_.encodeState(w)`) have no body.
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      if ((!isId(t, "snapshotIo") && !isId(t, "encodeState")) ||
          i + 1 >= size() || !isP(tok(i + 1), "(")) {
        continue;
      }
      if (i > 0 && (isP(tok(i - 1), ".") || isP(tok(i - 1), "->"))) {
        continue;  // delegation call, not a definition
      }
      std::string cls;
      if (i >= 2 && isP(tok(i - 1), "::") && tok(i - 2).kind == Tok::kIdent) {
        cls = std::string(tok(i - 2).text);
      } else {
        for (std::size_t k = 0; k < classBodies_.size(); ++k) {
          if (i > classBodies_[k].open && i < classBodies_[k].close) {
            cls = out_.classes[k].name;  // innermost wins: keep scanning
          }
        }
        if (cls.empty()) continue;  // free function of the same name
      }
      const std::size_t close = closeParen(i + 1);
      std::size_t j = close + 1;
      while (j < size() &&
             (isId(tok(j), "const") || isId(tok(j), "override") ||
              isId(tok(j), "final") || isId(tok(j), "noexcept"))) {
        ++j;
      }
      if (j >= size() || !isP(tok(j), "{")) continue;  // declaration only
      const std::size_t end = closeBrace(j);

      MethodSym m;
      m.className = cls;
      m.name = std::string(t.text);
      m.file = out_.path;
      m.line = t.line;
      for (std::size_t k = j + 1; k < end; ++k) {
        if (tok(k).kind == Tok::kIdent) {
          m.bodyIdents.emplace_back(tok(k).text);
        }
      }
      out_.methods.push_back(std::move(m));
    }
  }

  const std::vector<Token>& toks_;
  std::map<int, std::string> transients_;  ///< line -> transient reason
  std::vector<Scope> scopes_;
  std::vector<BodyRange> classBodies_;     ///< parallel to out_.classes
  std::vector<BodyRange> staticFnBodies_;  ///< internal-linkage fn bodies
  std::vector<BodyRange> nsBodies_;        ///< namespace body ranges
  FileSymbols out_;
};

}  // namespace

std::string_view includeTarget(std::string_view directive) {
  std::size_t i = 0;
  auto skipWs = [&] {
    while (i < directive.size() &&
           (directive[i] == ' ' || directive[i] == '\t')) {
      ++i;
    }
  };
  if (i >= directive.size() || directive[i] != '#') return {};
  ++i;
  skipWs();
  if (directive.substr(i, 7) != "include") return {};
  i += 7;
  skipWs();
  if (i >= directive.size()) return {};
  const char open = directive[i];
  const char closeCh = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (closeCh == '\0') return {};
  const std::size_t begin = ++i;
  const std::size_t end = directive.find(closeCh, begin);
  if (end == std::string_view::npos) return {};
  return directive.substr(begin, end - begin);
}

FileSymbols buildSymbols(const std::string& relPath, const LexResult& lexed) {
  return SymbolBuilder(relPath, lexed).run();
}

}  // namespace grads::lint
