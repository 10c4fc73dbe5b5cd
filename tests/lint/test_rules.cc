// Rule-engine fixtures: one violating ("positive") and one clean
// ("negative") snippet per rule, plus the suppression grammar and the
// seeded-violation case the CI `lint-aiwc` job relies on — if a
// violation stops producing a finding, the gate is decorative and this
// suite is what catches it.

#include "rules.hh"

#include <algorithm>
#include <gtest/gtest.h>

namespace aiwc::lint
{
namespace
{

int
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(fs.begin(), fs.end(),
                      [&](const Finding &f) { return f.rule == rule; }));
}

// --- det-random ------------------------------------------------------------

TEST(LintRules, DetRandomFlagsEntropyAndWallClock)
{
    const auto fs = lintSource("src/core/x.cc",
                               "#include <random>\n"
                               "int f() {\n"
                               "  std::random_device rd;\n"
                               "  srand(42);\n"
                               "  long t = time(nullptr);\n"
                               "  auto n = std::chrono::system_clock::now();\n"
                               "  return rand();\n"
                               "}\n");
    EXPECT_EQ(countRule(fs, "det-random"), 5);
}

TEST(LintRules, DetRandomCleanAndAllowlisted)
{
    // steady_clock and the project Rng are fine anywhere.
    const auto clean = lintSource(
        "src/core/x.cc",
        "auto t = std::chrono::steady_clock::now();\n"
        "double v = rng.uniform();\n");
    EXPECT_EQ(countRule(clean, "det-random"), 0);

    // obs/ and bench/ may read the wall clock.
    const auto obs = lintSource(
        "src/obs/trace.cc",
        "auto w = std::chrono::system_clock::now();\n");
    EXPECT_EQ(countRule(obs, "det-random"), 0);
    const auto bench = lintSource(
        "bench/bench_x.cpp", "long t = time(nullptr);\n");
    EXPECT_EQ(countRule(bench, "det-random"), 0);
}

TEST(LintRules, DetRandomIgnoresStringsAndComments)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "// calls srand() on legacy systems\n"
        "const char *doc = \"never rand() here\";\n"
        "/* time(nullptr) would be wrong */\n");
    EXPECT_EQ(countRule(fs, "det-random"), 0);
}

// --- det-unordered-iter ----------------------------------------------------

TEST(LintRules, UnorderedIterFlagsRangeForOverMember)
{
    const auto fs = lintSource(
        "src/sched/x.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, double> usage_;\n"
        "void dump() {\n"
        "  for (const auto &kv : usage_) { emit(kv); }\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "det-unordered-iter"), 1);
    for (const auto &f : fs) {
        if (f.rule == "det-unordered-iter") {
            EXPECT_EQ(f.line, 4);
        }
    }
}

TEST(LintRules, UnorderedIterFlagsAliasAndIteratorLoop)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "using Index = std::unordered_set<long>;\n"
        "Index index_;\n"
        "void walk() {\n"
        "  for (auto it = index_.begin(); it != index_.end(); ++it) {}\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "det-unordered-iter"), 1);
}

TEST(LintRules, UnorderedIterUsesCompanionHeaderDeclarations)
{
    const std::string header =
        "#pragma once\n"
        "#include <unordered_map>\n"
        "class Collector {\n"
        "  std::unordered_map<int, int> streams_;\n"
        "};\n";
    const std::string source =
        "void Collector::report() {\n"
        "  for (auto &s : streams_) { write(s); }\n"
        "}\n";
    const auto fs = lintSource("src/telemetry/x.cc", source, &header);
    EXPECT_EQ(countRule(fs, "det-unordered-iter"), 1);

    // Without the header the member's type is unknown: no finding.
    const auto alone = lintSource("src/telemetry/x.cc", source);
    EXPECT_EQ(countRule(alone, "det-unordered-iter"), 0);
}

TEST(LintRules, UnorderedIterAllowsOrderedMapsAndLookups)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "std::map<int, double> ordered_;\n"
        "std::unordered_map<int, double> cache_;\n"
        "void ok() {\n"
        "  for (const auto &kv : ordered_) { emit(kv); }\n"
        "  auto it = cache_.find(3);\n"
        "  cache_.erase(it);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "det-unordered-iter"), 0);
}

// --- contract-assert / contract-abort --------------------------------------

TEST(LintRules, ContractAssertFlagsBareAssert)
{
    const auto fs = lintSource("src/sim/x.cc",
                               "void f(int n) { assert(n > 0); }\n");
    EXPECT_EQ(countRule(fs, "contract-assert"), 1);
}

TEST(LintRules, ContractAssertAllowsProjectMacrosAndStaticAssert)
{
    const auto fs = lintSource(
        "src/sim/x.cc",
        "void f(int n) {\n"
        "  AIWC_CHECK(n > 0, \"n\");\n"
        "  AIWC_DCHECK(n < 10);\n"
        "  static_assert(sizeof(int) == 4);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "contract-assert"), 0);
}

TEST(LintRules, ContractAbortFlagsTerminators)
{
    const auto fs = lintSource("src/core/x.cc",
                               "void f() { std::abort(); }\n"
                               "void g() { exit(2); }\n");
    EXPECT_EQ(countRule(fs, "contract-abort"), 2);
}

TEST(LintRules, ContractAbortAllowsCheckImplAndDeclarations)
{
    // check.cc owns process termination.
    const auto impl = lintSource("src/base/check.cc",
                                 "void die() { std::abort(); }\n");
    EXPECT_EQ(countRule(impl, "contract-abort"), 0);

    // `LogNormal abort(...)` is a declaration, not a call.
    const auto decl = lintSource(
        "src/workload/x.cc",
        "const dist::LogNormal abort(median, sigma);\n");
    EXPECT_EQ(countRule(decl, "contract-abort"), 0);

    // Tests may terminate (death tests); the rule is src/-scoped.
    const auto test = lintSource("tests/common/x.cc",
                                 "void boom() { std::abort(); }\n");
    EXPECT_EQ(countRule(test, "contract-abort"), 0);
}

// --- thread-raw ------------------------------------------------------------

TEST(LintRules, ThreadRawFlagsStdThreadAsyncDetach)
{
    const auto fs = lintSource(
        "src/workload/x.cc",
        "void f() {\n"
        "  std::thread t([] {});\n"
        "  auto fut = std::async(g);\n"
        "  t.detach();\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "thread-raw"), 3);
}

TEST(LintRules, ThreadRawAllowsParallelModuleAndThisThread)
{
    const auto pool = lintSource("src/common/parallel.cc",
                                 "std::thread worker([] {});\n");
    EXPECT_EQ(countRule(pool, "thread-raw"), 0);

    const auto ids = lintSource(
        "src/obs/trace.cc",
        "auto id = std::this_thread::get_id();\n"
        "thread_local int depth = 0;\n");
    EXPECT_EQ(countRule(ids, "thread-raw"), 0);
}

// --- metric-name -----------------------------------------------------------

TEST(LintRules, MetricNameRequiresAiwcPrefixAndTwoSegments)
{
    const auto fs = lintSource(
        "src/sched/x.cc",
        "r.counter(\"sched.passes\");\n"          // missing aiwc. prefix
        "r.gauge(\"aiwc.threads\");\n"            // only one segment
        "r.histogram(\"aiwc.Sched.pass_ns\");\n"  // uppercase segment
        );
    EXPECT_EQ(countRule(fs, "metric-name"), 3);
}

TEST(LintRules, MetricNameAcceptsCompliantAndConcatenatedNames)
{
    const auto fs = lintSource(
        "src/sched/x.cc",
        "r.counter(\"aiwc.sched.backfill_hits\");\n"
        "r.histogram(\"aiwc.analyzer.\" + name + \".wall_ns\");\n");
    EXPECT_EQ(countRule(fs, "metric-name"), 0);
}

TEST(LintRules, MetricNameFlagsBadConcatenatedPrefix)
{
    const auto fs = lintSource(
        "src/obs/x.cc",
        "r.counter(\"analyzer.\" + name + \".runs\");\n");
    EXPECT_EQ(countRule(fs, "metric-name"), 1);
}

TEST(LintRules, MetricNameCoversStreamingDirectories)
{
    // The aiwc::sketch / aiwc::stream subsystems register their own
    // metrics; the rule must hold there like everywhere under src/.
    const auto good = lintSource(
        "src/sketch/kll.cc",
        "r.counter(\"aiwc.sketch.compactions\");\n"
        "r.gauge(\"aiwc.sketch.bytes\");\n");
    EXPECT_EQ(countRule(good, "metric-name"), 0);

    const auto bad = lintSource(
        "src/stream/pipeline.cc",
        "r.counter(\"stream.rows_ingested\");\n");  // missing aiwc.
    EXPECT_EQ(countRule(bad, "metric-name"), 1);
}

TEST(LintRules, MetricNameCoversTraceFormatDirectory)
{
    // aiwc::fmt registers the trace encode/decode/reject counters; the
    // naming law applies in src/fmt like everywhere else under src/.
    const auto good = lintSource(
        "src/fmt/trace.cc",
        "r.counter(\"aiwc.fmt.traces_encoded\");\n"
        "r.counter(\"aiwc.fmt.traces_decoded\");\n"
        "r.counter(\"aiwc.fmt.decode_rejects\");\n");
    EXPECT_EQ(countRule(good, "metric-name"), 0);

    const auto bad = lintSource(
        "src/fmt/trace.cc",
        "r.counter(\"fmt.decode_rejects\");\n");  // missing aiwc.
    EXPECT_EQ(countRule(bad, "metric-name"), 1);
}

TEST(LintRules, MetricNameScopedToSrc)
{
    // Registry mechanics tests use arbitrary names on purpose.
    const auto fs = lintSource("tests/obs/test_metrics.cc",
                               "registry.counter(\"zebra\");\n");
    EXPECT_EQ(countRule(fs, "metric-name"), 0);
}

// --- header-pragma-once ----------------------------------------------------

TEST(LintRules, PragmaOnceRequiredInPublicHeaders)
{
    const auto fs = lintSource(
        "src/include/aiwc/core/x.hh",
        "#ifndef AIWC_CORE_X_HH\n#define AIWC_CORE_X_HH\n"
        "int f();\n#endif\n");
    EXPECT_EQ(countRule(fs, "header-pragma-once"), 1);
}

TEST(LintRules, PragmaOnceAfterDocCommentIsFine)
{
    const auto fs = lintSource(
        "src/include/aiwc/core/x.hh",
        "/**\n * @file\n * Doc.\n */\n\n#pragma once\n\nint f();\n");
    EXPECT_EQ(countRule(fs, "header-pragma-once"), 0);

    // Sources and private headers are out of scope.
    const auto cc = lintSource("src/core/x.cc", "int f() { return 0; }\n");
    EXPECT_EQ(countRule(cc, "header-pragma-once"), 0);
}

// --- header-using-ns -------------------------------------------------------

TEST(LintRules, UsingNamespaceAtNamespaceScopeInHeaderFlagged)
{
    const auto fs = lintSource(
        "src/include/aiwc/core/x.hh",
        "#pragma once\n"
        "using namespace std;\n"
        "namespace aiwc {\n"
        "using namespace std::chrono;\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "header-using-ns"), 2);
}

TEST(LintRules, UsingNamespaceInsideFunctionOrAliasIsFine)
{
    const auto fs = lintSource(
        "src/include/aiwc/core/x.hh",
        "#pragma once\n"
        "namespace aiwc {\n"
        "inline int f() {\n"
        "  using namespace std::chrono;\n"
        "  return 1;\n"
        "}\n"
        "namespace fs = std::filesystem;\n"
        "using std::string;\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "header-using-ns"), 0);
}

// --- suppressions ----------------------------------------------------------

TEST(LintRules, SuppressionOnSameLineAndLineAbove)
{
    const auto same = lintSource(
        "src/core/x.cc",
        "void f() { assert(1); }  "
        "// aiwc-lint: allow(contract-assert) -- fixture\n");
    EXPECT_EQ(countRule(same, "contract-assert"), 0);

    const auto above = lintSource(
        "src/core/x.cc",
        "// aiwc-lint: allow(contract-assert) -- fixture\n"
        "void f() { assert(1); }\n");
    EXPECT_EQ(countRule(above, "contract-assert"), 0);
}

TEST(LintRules, SuppressionIsRuleSpecific)
{
    // An allow() for a different rule must not mask the finding.
    const auto fs = lintSource(
        "src/core/x.cc",
        "// aiwc-lint: allow(det-random) -- wrong rule\n"
        "void f() { assert(1); }\n");
    EXPECT_EQ(countRule(fs, "contract-assert"), 1);
}

TEST(LintRules, SuppressionWithoutReasonIsAFinding)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "// aiwc-lint: allow(contract-assert)\n"
        "void f() { assert(1); }\n");
    EXPECT_EQ(countRule(fs, "bad-suppression"), 1);
    // And the unjustified suppression does not take effect.
    EXPECT_EQ(countRule(fs, "contract-assert"), 1);
}

TEST(LintRules, SuppressionUnknownRuleIsAFinding)
{
    // guarded-field and requires-lock were rules once; clang's
    // -Wthread-safety owns those checks now.
    for (const char *rule : {"no-such-rule", "guarded-field", "requires-lock"}) {
        const auto fs = lintSource(
            "src/core/x.cc",
            std::string("// aiwc-lint: allow(") + rule + ") -- reason\n"
            "int x;\n");
        EXPECT_EQ(countRule(fs, "bad-suppression"), 1) << rule;
    }
}

TEST(LintRules, MultiRuleSuppression)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "// aiwc-lint: allow(contract-assert, det-random) -- fixture\n"
        "void f() { assert(rand()); }\n");
    EXPECT_EQ(countRule(fs, "contract-assert"), 0);
    EXPECT_EQ(countRule(fs, "det-random"), 0);
}

TEST(LintRules, SuppressionGrammarInProseIsNotASuppression)
{
    // Documentation that *mentions* the marker mid-comment must neither
    // fire bad-suppression nor suppress anything.
    const auto fs = lintSource(
        "src/core/x.cc",
        "// the grammar is aiwc-lint: allow(<rule>[, ...]) -- <reason>\n"
        "void f() { assert(1); }\n");
    EXPECT_EQ(countRule(fs, "bad-suppression"), 0);
    EXPECT_EQ(countRule(fs, "contract-assert"), 1);
}

TEST(LintRules, SplicedSuppressionCoversThePhysicalNextLine)
{
    // A backslash continuation folds the next physical line into the
    // comment token; the suppression span must still be computed from
    // physical lines (token end_line), so the decl two physical lines
    // below the comment's start is covered.
    const auto fs = lintSource(
        "src/core/x.cc",
        "// aiwc-lint: allow(mutable-global) -- fixture \\\n"
        "   continuation of the reason\n"
        "int counter = 0;\n");
    EXPECT_EQ(countRule(fs, "mutable-global"), 0);
}

TEST(LintRules, ThreadRawAnchorsAtTheTriggeringToken)
{
    // `std::` and `thread` on different physical lines: the finding
    // must cite the line of the banned name, not of the qualifier.
    const auto fs = lintSource("src/workload/x.cc",
                               "void f() {\n"
                               "  std::\n"
                               "      thread t([] {});\n"
                               "}\n");
    ASSERT_EQ(countRule(fs, "thread-raw"), 1);
    EXPECT_EQ(fs[0].line, 3);
}

// --- mutable-global --------------------------------------------------------

TEST(LintRules, MutableGlobalFlagsNamespaceScopeState)
{
    const auto fs = lintSource("src/core/x.cc",
                               "namespace aiwc {\n"
                               "int call_count = 0;\n"
                               "thread_local int depth = 0;\n"
                               "}\n");
    EXPECT_EQ(countRule(fs, "mutable-global"), 2);
}

TEST(LintRules, MutableGlobalAllowsConstantsExternsAndLocals)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "const int kLimit = 8;\n"
        "constexpr double kScale = 1.5;\n"
        "extern int configured_elsewhere;\n"
        "int accessor() { static int slot = 0; return slot; }\n"
        "struct S { int member; };\n");
    EXPECT_EQ(countRule(fs, "mutable-global"), 0);

    // The rule is src/-scoped: test fixtures keep their globals.
    const auto test = lintSource("tests/core/x.cc", "int fixture = 1;\n");
    EXPECT_EQ(countRule(test, "mutable-global"), 0);
}

// --- lock-discipline -------------------------------------------------------

TEST(LintRules, LockDisciplineFlagsManualLockCalls)
{
    const auto fs = lintSource("src/obs/x.cc",
                               "void f() {\n"
                               "  mutex_.lock();\n"
                               "  ptr->unlock();\n"
                               "  if (m_.try_lock()) { m_.unlock(); }\n"
                               "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 4);
}

TEST(LintRules, LockDisciplineAllowsRaiiGuards)
{
    const auto fs = lintSource(
        "src/obs/x.cc",
        "void f() {\n"
        "  std::lock_guard<std::mutex> guard(mutex_);\n"
        "  std::unique_lock<std::mutex> lock(mutex_);\n"
        "  std::scoped_lock lock2(a_, b_);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 0);
}

// --- float-reduce-order ----------------------------------------------------

TEST(LintRules, FloatReduceOrderFlagsReduceAndFloatAccumulate)
{
    const auto fs = lintSource(
        "src/stats/x.cc",
        "double f(const std::vector<double> &v) {\n"
        "  double a = std::reduce(v.begin(), v.end());\n"
        "  double b = std::accumulate(v.begin(), v.end(), 0.0);\n"
        "  return a + b;\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "float-reduce-order"), 2);
}

TEST(LintRules, FloatReduceOrderAllowsIntegersAndExemptModules)
{
    // Integer accumulation is associative: no ordering hazard.
    const auto ints = lintSource(
        "src/stats/x.cc",
        "long f(const std::vector<long> &v) {\n"
        "  return std::accumulate(v.begin(), v.end(), 0L);\n"
        "}\n");
    EXPECT_EQ(countRule(ints, "float-reduce-order"), 0);

    // The deterministic merges live in common/parallel.* and sketch/.
    const auto pool = lintSource(
        "src/common/parallel.cc",
        "double m(const std::vector<double> &v) {\n"
        "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
        "}\n");
    EXPECT_EQ(countRule(pool, "float-reduce-order"), 0);

    const auto sketch = lintSource(
        "src/sketch/kll.cc",
        "double m(const std::vector<double> &v) {\n"
        "  return std::reduce(v.begin(), v.end());\n"
        "}\n");
    EXPECT_EQ(countRule(sketch, "float-reduce-order"), 0);
}

// --- rendering & the CI gate -----------------------------------------------

TEST(LintRules, SeededViolationProducesFailingReport)
{
    // The exact shape the CI lint-aiwc job depends on: a violation in a
    // src/ file yields findings (CLI exit 1) and a JSON report that
    // names the file, rule, and line.
    const auto fs = lintSource("src/core/seeded.cc",
                               "void f() { std::abort(); }\n");
    ASSERT_FALSE(fs.empty());

    const std::string json = renderJson(fs);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"contract-abort\""), std::string::npos);
    EXPECT_NE(json.find("\"file\": \"src/core/seeded.cc\""),
              std::string::npos);

    const std::string human = renderHuman(fs);
    EXPECT_NE(human.find("src/core/seeded.cc:1: contract-abort:"),
              std::string::npos);
}

TEST(LintRules, CleanFileRendersEmptyReport)
{
    const auto fs =
        lintSource("src/core/clean.cc", "int f() { return 3; }\n");
    EXPECT_TRUE(fs.empty());
    EXPECT_NE(renderJson(fs).find("\"count\": 0"), std::string::npos);
    EXPECT_TRUE(renderHuman(fs).empty());
}

TEST(LintRules, FindingsAreSortedAndJsonEscaped)
{
    auto fs = lintSource("src/core/x.cc",
                         "void g() { exit(1); }\n"
                         "void f() { assert(1); }\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_LE(fs[0].line, fs[1].line);

    Finding f{"src/a \"b\".cc", 1, "det-random", "msg with \\ and \""};
    const std::string json = renderJson({f});
    EXPECT_NE(json.find("src/a \\\"b\\\".cc"), std::string::npos);
    EXPECT_NE(json.find("msg with \\\\ and \\\""), std::string::npos);
}

} // namespace
} // namespace aiwc::lint
