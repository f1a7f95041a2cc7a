// Unit fixtures for grads-lint (rules R1–R5 and R7–R10, suppressions, SARIF,
// lexer traps) and
// digest-stability checks for the replay-divergence oracle's primitives.
//
// Every rule gets: a positive fixture (must flag), a negative fixture (must
// stay silent), a suppressed fixture (flag + inline waiver), and a
// string/comment trap (banned spelling inside a literal or comment must not
// flag). Fixture sources are raw strings, which doubles as a lexer test:
// grads-lint linting THIS file must see the fixtures as string literals and
// report nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"
#include "sarif.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using grads::lint::Finding;
using grads::lint::TreeReport;

TreeReport lintOne(const std::string& path, const std::string& src) {
  return grads::lint::lintSources({{path, src}});
}

int countRule(const TreeReport& r, const std::string& rule,
              bool suppressed = false) {
  return static_cast<int>(std::count_if(
      r.findings.begin(), r.findings.end(), [&](const Finding& f) {
        return f.rule == rule && f.suppressed == suppressed;
      }));
}

bool ruleMessageContains(const TreeReport& r, const std::string& rule,
                         const std::string& needle) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule &&
                              f.message.find(needle) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// R1 — wall-clock / ambient randomness.
// ---------------------------------------------------------------------------

TEST(LintR1, FlagsWallClockAndLibcRandomness) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    void f() {
      auto t = std::chrono::system_clock::now();
      std::random_device rd;
      srand(42);
      int x = rand();
      long n = time(nullptr);
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R1"), 5);
}

TEST(LintR1, SilentOnRngAndMemberCalls) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    #include "util/rng.hpp"
    void f(grads::Rng& rng, Engine& eng) {
      double u = rng.uniform();
      double t = eng.time();      // member named time(): simulated, fine
      double s = clockModel.rand(); // member named rand(): fine
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R1"), 0);
}

TEST(LintR1, UtilRngItselfIsAllowed) {
  const auto r = lintOne("src/util/rng.cpp", R"cpp(
    #include <random>
    std::random_device seedSource;
  )cpp");
  EXPECT_EQ(countRule(r, "R1"), 0);
  EXPECT_EQ(countRule(r, "R5"), 0);
}

TEST(LintR1, BenchIsAllowlisted) {
  const auto r = lintOne("bench/perfmodel_accuracy.cpp", R"cpp(
    #include <chrono>
    using Clock = std::chrono::steady_clock;
  )cpp");
  EXPECT_EQ(countRule(r, "R1"), 0);
  EXPECT_EQ(countRule(r, "R5"), 0);
}

TEST(LintR1, StringAndCommentTrap) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // system_clock and rand() only in a comment; time( too.
    const char* msg = "do not call rand() or srand() or system_clock";
    /* steady_clock random_device */
  )cpp");
  EXPECT_EQ(countRule(r, "R1"), 0);
}

TEST(LintR1, ForkTimeoutMustBeAnEventBudgetNotWallClock) {
  // The what-if fork driver's speculation bound: the classic wall-clock
  // fork timeout is banned in src/ — a fork that times out by wall clock
  // commits a different verdict on a loaded CI box than on a fast laptop.
  const auto bad = lintOne("src/reschedule/whatif/foo.cpp", R"cpp(
    bool forkExpired(const Fork& f) {
      const auto started = std::chrono::steady_clock::now();
      return waited(started) > kForkTimeoutMs;
    }
  )cpp");
  EXPECT_EQ(countRule(bad, "R1"), 1);
  // The virtual stand-in — a per-fork event cap — is deterministic and
  // stays silent.
  const auto good = lintOne("src/reschedule/whatif/foo.cpp", R"cpp(
    bool forkExpired(const ForkOutcome& o, std::uint64_t maxEvents) {
      return maxEvents != 0 && o.events >= maxEvents;
    }
  )cpp");
  EXPECT_EQ(countRule(good, "R1"), 0);
}

TEST(LintR1, Suppressed) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // grads-lint: allow(R1 calibration-only wall clock, never in decisions)
    auto t0 = std::chrono::steady_clock::now();
  )cpp");
  EXPECT_EQ(countRule(r, "R1", /*suppressed=*/false), 0);
  EXPECT_EQ(countRule(r, "R1", /*suppressed=*/true), 1);
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_TRUE(r.suppressions[0].used);
  EXPECT_EQ(r.suppressions[0].rule, "R1");
}

// ---------------------------------------------------------------------------
// R2 — address-order nondeterminism.
// ---------------------------------------------------------------------------

TEST(LintR2, FlagsPointerKeyedContainers) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    std::map<Task*, int> byTask;
    std::unordered_map<Node*, double> byNode;
    std::set<const Obj*> live;
  )cpp");
  EXPECT_EQ(countRule(r, "R2"), 3);
}

TEST(LintR2, SilentOnValueKeys) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    std::map<int, Task*> byId;           // pointer VALUES are fine
    std::unordered_map<std::string, int> byName;
    std::set<std::pair<int, int>> pairs;
    void g() { Set& set = sets_[0]; set.map.find(3); }  // vars named set/map
  )cpp");
  EXPECT_EQ(countRule(r, "R2"), 0);
}

TEST(LintR2, FlagsUnorderedIterationReachingDecisionApis) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    std::unordered_map<int, Item> pending_;
    void drain(Engine& eng) {
      for (auto& [id, item] : pending_) {
        eng.schedule(1.0, item.fn);   // hash order -> event order: bug
      }
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        emit(it->second);
      }
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R2"), 2);
}

TEST(LintR2, SilentOnDecisionFreeIterationAndOrderedContainers) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    std::unordered_map<int, int> counts_;
    std::map<int, Item> ordered_;
    void tally(Engine& eng) {
      int sum = 0;
      for (auto& [k, v] : counts_) sum += v;   // pure fold: fine
      for (auto& [k, v] : ordered_) eng.schedule(1.0, v);  // ordered: fine
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R2"), 0);
}

TEST(LintR2, FlagsPointerComparingPredicate) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    void s(std::vector<Node*>& xs) {
      std::sort(xs.begin(), xs.end(),
                [](const Node* a, const Node* b) { return a < b; });
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R2"), 1);
}

TEST(LintR2, SilentOnFieldComparingPredicate) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    void s(std::vector<Node*>& xs) {
      std::sort(xs.begin(), xs.end(),
                [](const Node* a, const Node* b) { return a->id < b->id; });
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R2"), 0);
}

TEST(LintR2, Suppressed) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // grads-lint: allow(R2 diagnostic dump, order reaches logs only)
    std::unordered_map<Tag*, int> debugCounts;
  )cpp");
  EXPECT_EQ(countRule(r, "R2", false), 0);
  EXPECT_EQ(countRule(r, "R2", true), 1);
}

// ---------------------------------------------------------------------------
// R3 — side effects inside check macros.
// ---------------------------------------------------------------------------

TEST(LintR3, FlagsMutationsInsideChecks) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    void f(int n, std::vector<int>& v) {
      GRADS_REQUIRE(n++ > 0, "increment in check");
      GRADS_ASSERT(v.erase(v.begin()) != v.end(), "erase in check");
      assert(n = 3);
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R3"), 3);
}

TEST(LintR3, SilentOnPureChecksAndMessageExpressions) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    void f(int n, const std::vector<int>& v, const char* caller) {
      GRADS_REQUIRE(n >= 0 && n <= 3, "comparisons are pure");
      GRADS_REQUIRE(!v.empty(), std::string(caller) + ": msg concat is fine");
      GRADS_ASSERT(v.size() == 4, "size() is const");
      static_assert(sizeof(int) == 4);
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R3"), 0);
}

TEST(LintR3, StringTrap) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    const char* doc = "GRADS_REQUIRE(x++, ...) would be a bug";
    // GRADS_ASSERT(v.pop(), "commented out")
  )cpp");
  EXPECT_EQ(countRule(r, "R3"), 0);
}

TEST(LintR3, Suppressed) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    void f(Queue& q) {
      // grads-lint: allow(R3 checked in both build legs by test_sim)
      GRADS_ASSERT(q.pop() != nullptr, "fixture");
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R3", false), 0);
  EXPECT_EQ(countRule(r, "R3", true), 1);
}

// ---------------------------------------------------------------------------
// R4 — raw allocation / std::function on hot paths.
// ---------------------------------------------------------------------------

TEST(LintR4, FlagsRawNewDeleteOutsidePool) {
  // The event engine's node pool allocates through make_unique too.
  for (const char* path : {"src/grid/foo.cpp", "src/sim/engine.cpp"}) {
    const auto r = lintOne(path, R"cpp(
      void f() {
        int* p = new int(3);
        delete p;
      }
    )cpp");
    EXPECT_EQ(countRule(r, "R4"), 2) << path;
  }
}

TEST(LintR4, PoolInternalsAreAllowed) {
  const auto r = lintOne("src/sim/inline_fn.hpp", R"cpp(
    #pragma once
    template <typename D> D* box(D d) { return new D(std::move(d)); }
    template <typename D> void unbox(D* p) { delete p; }
  )cpp");
  EXPECT_EQ(countRule(r, "R4"), 0);
}

TEST(LintR4, SilentOnDeletedFunctionsAndSmartPointers) {
  const auto r = lintOne("src/grid/foo.cpp", R"cpp(
    struct A {
      A(const A&) = delete;
      A& operator=(const A&) = delete;
    };
    auto p = std::make_unique<A>();
  )cpp");
  EXPECT_EQ(countRule(r, "R4"), 0);
}

TEST(LintR4, FlagsStdFunctionInSim) {
  const auto hot = lintOne("src/sim/foo.hpp", R"cpp(
    #pragma once
    struct Q { std::function<void()> cb; };
  )cpp");
  EXPECT_EQ(countRule(hot, "R4"), 1);
  // Outside src/sim, std::function is allowed (cold control paths).
  const auto cold = lintOne("src/core/foo.hpp", R"cpp(
    #pragma once
    struct Q { std::function<void()> cb; };
  )cpp");
  EXPECT_EQ(countRule(cold, "R4"), 0);
}

TEST(LintR4, Suppressed) {
  const auto r = lintOne("src/grid/foo.cpp", R"cpp(
    void f() {
      // grads-lint: allow(R4 interop with C API that takes ownership)
      auto* raw = new Blob();
      take(raw);
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R4", false), 0);
  EXPECT_EQ(countRule(r, "R4", true), 1);
}

// ---------------------------------------------------------------------------
// R5 — include hygiene.
// ---------------------------------------------------------------------------

TEST(LintR5, FlagsBannedHeadersInSrc) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    #include <chrono>
    #include <ctime>
    #include <thread>
    #include <random>
  )cpp");
  EXPECT_EQ(countRule(r, "R5"), 4);
}

TEST(LintR5, HeaderHygiene) {
  const auto r = lintOne("src/core/foo.hpp",
                         "#include \"../grid/node.hpp\"\n"
                         "using namespace std;\n");
  // Missing pragma once + parent-relative include + using-namespace.
  EXPECT_EQ(countRule(r, "R5"), 3);
}

TEST(LintR5, CleanHeaderPasses) {
  const auto r = lintOne("src/core/foo.hpp", R"cpp(#pragma once

#include <vector>

#include "grid/node.hpp"

namespace grads::core {
class Foo {};
}  // namespace grads::core
)cpp");
  EXPECT_EQ(countRule(r, "R5"), 0);
}

TEST(LintR5, LeadingCommentBeforePragmaIsFine) {
  const auto r = lintOne("src/core/foo.hpp",
                         "// License header comment.\n#pragma once\n");
  EXPECT_EQ(countRule(r, "R5"), 0);
}

// ---------------------------------------------------------------------------
// R7 — mutable static / thread_local state.
// ---------------------------------------------------------------------------

TEST(LintR7, FlagsMutableStaticsAtEveryScope) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    static int fileCounter = 0;
    thread_local int tlsSlot = 0;
    int nextTicket() {
      static int next = 0;
      return ++next;
    }
    struct Stats {
      static int hits_;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R7"), 4);
  EXPECT_TRUE(ruleMessageContains(r, "R7", "file/namespace-scope static"));
  EXPECT_TRUE(ruleMessageContains(r, "R7", "function-local static"));
  EXPECT_TRUE(ruleMessageContains(r, "R7", "mutable static data member"));
  EXPECT_TRUE(ruleMessageContains(r, "R7", "thread_local"));
}

TEST(LintR7, ConstAndConstexprStaticsAreExempt) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    static const int kRetries = 3;
    static constexpr double kEpsilon = 1e-9;
    namespace detail {
    static constinit int kSlots = 8;
    }
    static int helper() { return kRetries; }
  )cpp");
  EXPECT_EQ(countRule(r, "R7"), 0);  // values are immutable; helper is a fn
}

TEST(LintR7, ThreadLocalIsFlaggedEvenWhenConst) {
  // Const-ness does not rescue thread_local: the value is per-thread, so the
  // first thread to initialise it pins behaviour invisibly.
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    thread_local const double kSlot = 1.0;
  )cpp");
  EXPECT_EQ(countRule(r, "R7"), 1);
}

TEST(LintR7, BenchAndToolsAreInScopeTestsAreNot) {
  const std::string src = "static int scratch = 0;\n";
  EXPECT_EQ(countRule(lintOne("bench/foo.cpp", src), "R7"), 1);
  EXPECT_EQ(countRule(lintOne("tools/lint/foo.cpp", src), "R7"), 1);
  // tests/ fixtures break rules on purpose — never in scope.
  EXPECT_EQ(countRule(lintOne("tests/foo.cpp", src), "R7"), 0);
}

TEST(LintR7, Suppressed) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // grads-lint: allow(R7 documented singleton - fixture)
    static int registry = 0;
  )cpp");
  EXPECT_EQ(countRule(r, "R7", true), 1);
  EXPECT_EQ(countRule(r, "R7", false), 0);
}

// ---------------------------------------------------------------------------
// R8 — architecture layering DAG.
// ---------------------------------------------------------------------------

TEST(LintR8, UpwardIncludeInvertsTheDag) {
  const auto r = lintOne("src/grid/foo.cpp",
                         "#include \"reschedule/srs.hpp\"\n");
  EXPECT_EQ(countRule(r, "R8"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R8", "inverts the architecture DAG"));
}

TEST(LintR8, DownwardSameLayerAndSystemIncludesAreSilent) {
  const auto r = lintOne("src/reschedule/foo.cpp",
                         "#include <vector>\n"
                         "#include \"grid/node.hpp\"\n"
                         "#include \"reschedule/journal.hpp\"\n"
                         "#include \"util/log.hpp\"\n");
  EXPECT_EQ(countRule(r, "R8"), 0);
}

TEST(LintR8, CompositionRootOverridesOutrankTheirDirectory) {
  // core/app_manager sits above the rescheduler it drives, the rest of
  // core/ does not.
  const std::string inc = "#include \"reschedule/srs.hpp\"\n";
  EXPECT_EQ(countRule(lintOne("src/core/app_manager.cpp", inc), "R8"), 0);
  EXPECT_EQ(countRule(lintOne("src/core/binder.cpp", inc), "R8"), 0);
  EXPECT_EQ(countRule(lintOne("src/core/launch.cpp", inc), "R8"), 1);
}

TEST(LintR8, OnlySrcIsInScope) {
  // bench/tests/tools sit on top of the whole tree and may include anything.
  const auto r = lintOne("bench/foo.cpp",
                         "#include \"metasched/frontend.hpp\"\n");
  EXPECT_EQ(countRule(r, "R8"), 0);
}

TEST(LintR8, Suppressed) {
  const auto r = lintOne("src/grid/foo.cpp",
                         "// grads-lint: allow(R8 transitional edge)\n"
                         "#include \"metasched/frontend.hpp\"\n");
  EXPECT_EQ(countRule(r, "R8", true), 1);
  EXPECT_EQ(countRule(r, "R8", false), 0);
}

// ---------------------------------------------------------------------------
// R9 — snapshot field coverage.
// ---------------------------------------------------------------------------

TEST(LintR9, SeededMissingFieldIsCaught) {
  // The acceptance fixture: one field escapes the snapshot.
  const auto r = lintOne("src/core/counter.hpp", R"cpp(
    #pragma once
    class Counter {
     public:
      void encodeState(core::Codec& c) const { c.put(count_); }
      void decodeState(core::Codec& c) { c.get(count_); }

     private:
      double count_ = 0.0;
      double missed_ = 0.0;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R9", "missed_"));
  EXPECT_TRUE(ruleMessageContains(r, "R9", "Counter::encodeState"));
}

TEST(LintR9, FullyCoveredClassIsSilent) {
  const auto r = lintOne("src/core/counter.hpp", R"cpp(
    #pragma once
    class Counter {
     public:
      void encodeState(core::Codec& c) const {
        c.put(count_);
        c.put(missed_);
      }
      void decodeState(core::Codec& c) {
        c.get(count_);
        c.get(missed_);
      }

     private:
      double count_ = 0.0;
      double missed_ = 0.0;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 0);
}

TEST(LintR9, TransientAnnotationSilencesButNeedsAReason) {
  const auto r = lintOne("src/core/widget.hpp", R"cpp(
    #pragma once
    class Widget {
     public:
      void encodeState(core::Codec& c) const { c.put(id_); }
      void decodeState(core::Codec& c) { c.get(id_); }

     private:
      int id_ = 0;
      sim::Engine* engine_ = nullptr;  // grads: transient(wiring pointer)
      // grads: transient()
      int scratch_ = 0;
    };
  )cpp");
  // engine_ is waived with a reason; scratch_'s empty annotation is itself
  // a finding (and suppresses the coverage complaint).
  EXPECT_EQ(countRule(r, "R9"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R9", "needs a reason"));
  EXPECT_FALSE(ruleMessageContains(r, "R9", "engine_"));
}

TEST(LintR9, OutOfLineDefinitionJoinsAcrossFiles) {
  const auto r = grads::lint::lintSources({
      {"src/core/widget.hpp",
       "#pragma once\n"
       "class Widget {\n"
       " public:\n"
       "  void encodeState(core::Codec& c) const;\n"
       "  void decodeState(core::Codec& c);\n"
       " private:\n"
       "  int kept_ = 0;\n"
       "  int lost_ = 0;\n"
       "};\n"},
      {"src/core/widget.cpp",
       "#include \"core/widget.hpp\"\n"
       "void Widget::encodeState(core::Codec& c) const { c.put(kept_); }\n"
       "void Widget::decodeState(core::Codec& c) { c.get(kept_); }\n"},
  });
  EXPECT_EQ(countRule(r, "R9"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R9", "lost_"));
  // The finding lands on the header's member, not the .cpp definition.
  const auto it = std::find_if(
      r.findings.begin(), r.findings.end(),
      [](const Finding& f) { return f.rule == "R9" && !f.suppressed; });
  ASSERT_NE(it, r.findings.end());
  EXPECT_EQ(it->file, "src/core/widget.hpp");
}

TEST(LintR9, DelegatedEncodeCountsAsCoverage) {
  const auto r = lintOne("src/core/outer.hpp", R"cpp(
    #pragma once
    class Outer {
     public:
      void encodeState(core::Codec& c) const { inner_.encodeState(c); }
      void decodeState(core::Codec& c) { inner_.decodeState(c); }

     private:
      Inner inner_;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 0);
}

TEST(LintR9, FieldListDrivesCoverage) {
  // encodeState/decodeState only call the field list; R9 reads snapshotIo.
  const auto r = lintOne("src/core/counter.hpp", R"cpp(
    #pragma once
    class Counter : public core::Snapshottable {
     public:
      void encodeState(core::SnapshotWriter& w) const override {
        snapshotIo(*this, w);
      }
      void decodeState(core::SnapshotReader& r) override {
        snapshotIo(*this, r);
        rebuilt_ = count_ * 2.0;
      }

     private:
      template <class Self, class Ar>
      static void snapshotIo(Self& s, Ar& a) {
        a(s.count_);
      }
      double count_ = 0.0;
      double missed_ = 0.0;
      double rebuilt_ = 0.0;  // grads: transient(derived from count_ on decode)
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R9", "missed_"));
  EXPECT_TRUE(ruleMessageContains(r, "R9", "Counter::snapshotIo"));
}

TEST(LintR9, NestedRecordMissingFromItsFieldListIsCaught) {
  // A record walked inside its owner's section: it has no encodeState of
  // its own, only a snapshotIo, and R9 still checks it.
  const auto r = grads::lint::lintSources({
      {"src/reschedule/log.hpp",
       "#pragma once\n"
       "struct Entry {\n"
       "  std::string app;\n"
       "  double at = 0.0;\n"
       "  bool settled = false;\n"
       "  template <class Self, class Ar>\n"
       "  static void snapshotIo(Self& s, Ar& a) { a(s.app, s.at); }\n"
       "};\n"
       "class Log : public core::Snapshottable {\n"
       " public:\n"
       "  void encodeState(core::SnapshotWriter& w) const override;\n"
       "  void decodeState(core::SnapshotReader& r) override;\n"
       " private:\n"
       "  template <class Self, class Ar>\n"
       "  static void snapshotIo(Self& s, Ar& a);\n"
       "  std::vector<Entry> entries_;\n"
       "};\n"},
      {"src/reschedule/log.cpp",
       "#include \"reschedule/log.hpp\"\n"
       "template <class Self, class Ar>\n"
       "void Log::snapshotIo(Self& s, Ar& a) { a(s.entries_); }\n"
       "void Log::encodeState(core::SnapshotWriter& w) const {\n"
       "  snapshotIo(*this, w);\n"
       "}\n"
       "void Log::decodeState(core::SnapshotReader& r) {\n"
       "  snapshotIo(*this, r);\n"
       "}\n"},
  });
  EXPECT_EQ(countRule(r, "R9"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R9", "'settled' of 'Entry'"));
  EXPECT_TRUE(ruleMessageContains(r, "R9", "Entry::snapshotIo"));
}

TEST(LintR9, TestFixturesAreOutOfScope) {
  const auto r = lintOne("tests/fixture.cpp", R"cpp(
    class Leaky {
     public:
      void encodeState(core::Codec& c) const { c.put(a_); }
     private:
      int a_ = 0;
      int b_ = 0;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 0);
}

TEST(LintR9, Suppressed) {
  const auto r = lintOne("src/core/gauge.hpp", R"cpp(
    #pragma once
    class Gauge {
     public:
      void encodeState(core::Codec& c) const { c.put(total_); }
      void decodeState(core::Codec& c) { c.get(total_); }

     private:
      double total_ = 0.0;
      // grads-lint: allow(R9 rebuilt by the owner's decode pass)
      double cached_ = 0.0;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9", true), 1);
  EXPECT_EQ(countRule(r, "R9", false), 0);
}

// ---------------------------------------------------------------------------
// R10 — by-reference captures handed to the engine.
// ---------------------------------------------------------------------------

TEST(LintR10, FlagsDefaultRefAndExplicitRefCaptures) {
  const auto r = lintOne("src/grid/foo.cpp", R"cpp(
    void arm(sim::Engine& e, int x) {
      e.schedule(1.0, [&] { go(); });
      e.scheduleDaemon(2.0, [&x] { use(x); });
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R10"), 2);
  EXPECT_TRUE(ruleMessageContains(r, "R10", "Engine::schedule"));
  EXPECT_TRUE(ruleMessageContains(r, "R10", "'&x'"));
}

TEST(LintR10, ValueThisAndInitCapturesAreSilent) {
  const auto r = lintOne("src/grid/foo.cpp", R"cpp(
    class Timer {
     public:
      void arm() {
        engine_->schedule(1.0, [this, n = count_] { tick(n); });
        engine_->scheduleAt(2.0, [count = count_] { report(count); });
      }

     private:
      sim::Engine* engine_ = nullptr;
      int count_ = 0;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R10"), 0);
}

TEST(LintR10, LambdaNestedInsideAnotherCallIsNotAScheduleArg) {
  // The [&] sits at paren depth 2 (argument of makeCb, not of schedule):
  // whatever makeCb does with it is its own contract.
  const auto r = lintOne("src/grid/foo.cpp", R"cpp(
    void arm(sim::Engine& e) {
      e.schedule(1.0, makeCb([&] { go(); }));
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R10"), 0);
}

TEST(LintR10, BenchDriversAreOutOfScope) {
  // bench mains own their frames and join before return — R10 stays
  // src-only.
  const auto r = lintOne("bench/foo.cpp", R"cpp(
    void drive(sim::Engine& e, int x) {
      e.schedule(1.0, [&x] { use(x); });
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R10"), 0);
}

TEST(LintR10, Suppressed) {
  const auto r = lintOne("src/grid/foo.cpp", R"cpp(
    void arm(sim::Engine& e) {
      // grads-lint: allow(R10 frame joined before return - fixture)
      e.schedule(0.0, [&] { go(); });
    }
  )cpp");
  EXPECT_EQ(countRule(r, "R10", true), 1);
  EXPECT_EQ(countRule(r, "R10", false), 0);
}

// ---------------------------------------------------------------------------
// Suppression machinery.
// ---------------------------------------------------------------------------

TEST(LintSuppressions, StaleWaiverIsReportedUnused) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // grads-lint: allow(R1 nothing here actually trips R1)
    int x = 3;
  )cpp");
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_FALSE(r.suppressions[0].used);
  EXPECT_EQ(r.unsuppressedCount(), 0);
}

TEST(LintSuppressions, WaiverForWrongRuleDoesNotSuppress) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // grads-lint: allow(R4 wrong rule id)
    srand(1);
  )cpp");
  EXPECT_EQ(countRule(r, "R1", false), 1);
  EXPECT_EQ(countRule(r, "R1", true), 0);
}

TEST(LintSuppressions, MultiRuleWaiver) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    // grads-lint: allow(R1,R5 fixture exercising both)
    #include <ctime>
  )cpp");
  // The include is R5; R1 part of the waiver goes stale.
  EXPECT_EQ(countRule(r, "R5", true), 1);
  EXPECT_EQ(r.unsuppressedCount(), 0);
  const int stale = static_cast<int>(std::count_if(
      r.suppressions.begin(), r.suppressions.end(),
      [](const auto& s) { return !s.used; }));
  EXPECT_EQ(stale, 1);
}

// ---------------------------------------------------------------------------
// Lexer traps.
// ---------------------------------------------------------------------------

TEST(LintLexer, RawStringsAndDigitSeparators) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    const char* r = R"(srand(1); system_clock; new int;)";
    long big = 1'000'000;  // separator must not start a char literal
    char q = '"';          // quote in char literal must not open a string
    srand(big);
  )cpp");
  // Only the real srand() call — nothing from inside the raw string.
  EXPECT_EQ(countRule(r, "R1"), 1);
}

TEST(LintLexer, MacroDefinitionsAreNotCode) {
  const auto r = lintOne("src/core/foo.hpp",
                         "#pragma once\n"
                         "#define HELPER(x)   \\\n"
                         "  do { srand(x); } while (false)\n");
  // The macro BODY defines the banned call; expansion sites get flagged
  // instead. (GRADS_REQUIRE's own definition stays lintable for the same
  // reason.)
  EXPECT_EQ(countRule(r, "R1"), 0);
}

TEST(LintLexer, UserDefinedLiterals) {
  const auto r = lintOne("src/core/foo.cpp", R"cpp(
    constexpr double kWork = 1'000'000.5;
    auto budget = 2'500_flops;       // UDL suffix glues to the pp-number
    auto label = "qr"_channel;       // string UDL
    srand(1);
  )cpp");
  EXPECT_EQ(countRule(r, "R1"), 1);  // only the real srand survives lexing
}

TEST(LintLexer, NestedTemplateAnglesInMemberDecls) {
  // The member parser must carry `slices_` (and only it) through the nested
  // angle brackets — R9's verdict proves the declarator was found.
  const auto r = lintOne("src/core/table.hpp", R"cpp(
    #pragma once
    class Table {
     public:
      void encodeState(core::Codec& c) const { c.put(names_); }
      void decodeState(core::Codec& c) { c.get(names_); }

     private:
      std::map<std::pair<std::string, int>, std::vector<double>> slices_;
      std::vector<std::string> names_;
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 1);
  EXPECT_TRUE(ruleMessageContains(r, "R9", "slices_"));
}

TEST(LintLexer, BracedDefaultMemberInitializers) {
  // `taps_{1, 2, 3}` must parse as a default member initializer, not a
  // function body — both members are covered, so R9 stays silent.
  const auto r = lintOne("src/core/buf.hpp", R"cpp(
    #pragma once
    class Buf {
     public:
      void encodeState(core::Codec& c) const {
        c.put(taps_);
        c.put(limit_);
      }
      void decodeState(core::Codec& c) {
        c.get(taps_);
        c.get(limit_);
      }

     private:
      std::vector<int> taps_{1, 2, 3};
      double limit_{0.5};
    };
  )cpp");
  EXPECT_EQ(countRule(r, "R9"), 0);
}

// ---------------------------------------------------------------------------
// SARIF emission.
// ---------------------------------------------------------------------------

TEST(Sarif, EmitsRulesResultsAndSuppressions) {
  TreeReport r;
  r.findings.push_back(Finding{"src/core/foo.cpp", 12, "R1", "error",
                               "ambient \"clock\" call", false, {}});
  r.findings.push_back(Finding{"src/util/log.cpp", 11, "R7", "error",
                               "static cfg", true, "logging singleton"});
  r.filesScanned = 2;

  std::ostringstream os;
  grads::lint::writeSarif(os, r);
  const std::string s = os.str();

  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"grads-lint\""), std::string::npos);
  // Every rule id is present in the driver metadata.
  for (const char* id :
       {"R1", "R2", "R3", "R4", "R5", "R7", "R8", "R9", "R10"}) {
    EXPECT_NE(s.find(std::string("{\"id\": \"") + id + "\""),
              std::string::npos)
        << "driver rule " << id;
  }
  EXPECT_EQ(s.find("{\"id\": \"R6\""), std::string::npos);
  // The finding: id, location, line, and JSON-escaped message.
  EXPECT_NE(s.find("\"ruleId\": \"R1\""), std::string::npos);
  EXPECT_NE(s.find("\"uri\": \"src/core/foo.cpp\""), std::string::npos);
  EXPECT_NE(s.find("\"uriBaseId\": \"%SRCROOT%\""), std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(s.find("ambient \\\"clock\\\" call"), std::string::npos);
  // The waived finding carries an inSource suppression with the reason.
  EXPECT_NE(s.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(s.find("\"justification\": \"logging singleton\""),
            std::string::npos);
}

TEST(Sarif, EscapesControlCharactersAndBackslashes) {
  TreeReport r;
  r.findings.push_back(Finding{"src/core/foo.cpp", 0, "R5", "error",
                               "path\\with\nnewline\tand\x01" "ctl", false,
                               {}});
  std::ostringstream os;
  grads::lint::writeSarif(os, r);
  const std::string s = os.str();
  EXPECT_NE(s.find("path\\\\with\\nnewline\\tand\\u0001ctl"),
            std::string::npos);
  // Line 0 is clamped to 1 — SARIF regions are 1-based.
  EXPECT_NE(s.find("\"startLine\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Oracle digest primitives.
// ---------------------------------------------------------------------------

TEST(DigestStream, OrderSensitiveAndPrefixSafe) {
  grads::util::DigestStream a;
  grads::util::DigestStream b;
  a.put(std::uint64_t{1});
  a.put(std::uint64_t{2});
  b.put(std::uint64_t{2});
  b.put(std::uint64_t{1});
  EXPECT_NE(a.digest(), b.digest());  // order matters

  grads::util::DigestStream c;
  c.put(std::uint64_t{1});
  EXPECT_NE(a.digest(), c.digest());  // prefix cannot collide (count folded)
  EXPECT_EQ(a.count(), 2u);
}

TEST(DigestStream, DoubleBitsAreFolded) {
  grads::util::DigestStream a;
  grads::util::DigestStream b;
  a.put(0.0);
  b.put(-0.0);  // distinct bit patterns must yield distinct digests
  EXPECT_NE(a.digest(), b.digest());
}

/// The in-test twin of the determinism probe: the same seeded event churn
/// run twice against fresh engines must fold identical pop streams.
std::uint64_t churnDigest(std::uint64_t seed, int events) {
  grads::sim::Engine eng;
  grads::util::DigestStream ds;
  eng.setPopObserver(
      [](void* ctx, grads::sim::Time t, std::uint64_t key, bool daemon) {
        auto* s = static_cast<grads::util::DigestStream*>(ctx);
        s->put(t);
        s->put(key);
        s->put(static_cast<std::uint64_t>(daemon));
      },
      &ds);
  grads::Rng rng(seed);
  std::vector<grads::sim::Engine::EventHandle> handles;
  for (int i = 0; i < events; ++i) {
    handles.push_back(eng.schedule(rng.exponential(0.5), [] {}));
    if (i % 5 == 2) {
      handles[static_cast<std::size_t>(rng.uniformInt(
                  0, static_cast<std::int64_t>(handles.size() - 1)))]
          .cancel();
    }
  }
  eng.run();
  return ds.digest();
}

TEST(ReplayOracle, IdenticalRunsFoldIdenticalDigests) {
  EXPECT_EQ(churnDigest(42, 2000), churnDigest(42, 2000));
  EXPECT_EQ(churnDigest(7, 2000), churnDigest(7, 2000));
}

TEST(ReplayOracle, DifferentStreamsFoldDifferentDigests) {
  EXPECT_NE(churnDigest(42, 2000), churnDigest(43, 2000));
  EXPECT_NE(churnDigest(42, 2000), churnDigest(42, 2001));
}

TEST(ReplayOracle, ObserverSeesEveryLiveEventOnce) {
  grads::sim::Engine eng;
  struct Count {
    int pops = 0;
  } count;
  eng.setPopObserver(
      [](void* ctx, grads::sim::Time, std::uint64_t, bool) {
        ++static_cast<Count*>(ctx)->pops;
      },
      &count);
  for (int i = 0; i < 10; ++i) eng.schedule(0.1 * i, [] {});
  auto doomed = eng.schedule(0.05, [] {});
  doomed.cancel();  // cancelled corpse must NOT reach the observer
  eng.run();
  EXPECT_EQ(count.pops, 10);
  EXPECT_EQ(eng.processedEvents(), 10u);
}

}  // namespace
