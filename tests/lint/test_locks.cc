// Lock-model fixtures for the v3 concurrency rules: the lock-set
// analysis behind lock-discipline's guard tracking (defer/adopt/early
// unlock), the per-file lock-order edge contribution (including
// AIWC_REQUIRES seeds resolved through the companion header), the
// locks.txt spec parser, and the whole-program cycle check with its
// witness path. If an injected out-of-order acquisition stops
// producing a lock-order-cycle, the CI gate is decorative — this suite
// is what catches it.

#include "locks.hh"

#include <algorithm>
#include <gtest/gtest.h>

#include "analysis.hh"
#include "rules.hh"

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

const Finding *
findRule(const std::vector<Finding> &fs, const std::string &rule)
{
    for (const Finding &f : fs)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

// --- lock-discipline: guard-state tracking ---------------------------------

TEST(LintLocks, DeferredGuardNeverLockedIsFlagged)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "void f() {\n"
        "  std::unique_lock<std::mutex> g(m_, std::defer_lock);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 1);
    const Finding *f = findRule(fs, "lock-discipline");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->message.find("defer_lock"), std::string::npos);
}

TEST(LintLocks, DeferredGuardLockedLaterIsClean)
{
    const auto fs = lintSource(
        "src/core/x.cc",
        "void f() {\n"
        "  std::unique_lock<std::mutex> g(m_, std::defer_lock);\n"
        "  g.lock();\n"
        "  g.unlock();\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 0);
}

TEST(LintLocks, DoubleLockOnGuardIsFlagged)
{
    const auto fs = lintSource("src/core/x.cc",
                               "void f() {\n"
                               "  std::unique_lock<std::mutex> g(m_);\n"
                               "  g.lock();\n"
                               "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 1);
    const Finding *f = findRule(fs, "lock-discipline");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->message.find("double lock"), std::string::npos);
}

TEST(LintLocks, UnlockOnReleasedGuardIsFlagged)
{
    const auto fs = lintSource("src/core/x.cc",
                               "void f() {\n"
                               "  std::unique_lock<std::mutex> g(m_);\n"
                               "  g.unlock();\n"
                               "  g.unlock();\n"
                               "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 1);
    const Finding *f = findRule(fs, "lock-discipline");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->line, 4);
}

TEST(LintLocks, AdoptLockAfterStdLockIsClean)
{
    // The std::lock + adopt_lock idiom: std::lock is a free function
    // (not a manual member call), and adopting guards neither
    // re-acquire nor contribute nesting edges.
    const auto fs = lintSource(
        "src/core/x.cc",
        "void f() {\n"
        "  std::lock(a_, b_);\n"
        "  std::lock_guard<std::mutex> ga(a_, std::adopt_lock);\n"
        "  std::lock_guard<std::mutex> gb(b_, std::adopt_lock);\n"
        "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 0);
}

TEST(LintLocks, ManualMutexCallsStayFlagged)
{
    // The v2 contract: manual calls on non-guard receivers are still
    // lock-discipline findings in src/.
    const auto fs = lintSource("src/core/x.cc",
                               "void f() {\n"
                               "  mutex_.lock();\n"
                               "  mutex_.unlock();\n"
                               "}\n");
    EXPECT_EQ(countRule(fs, "lock-discipline"), 2);
}

// --- lock-order edges ------------------------------------------------------

FileAnalysis
analyze(const std::string &path, const std::string &content)
{
    return analyzeSource(path, content);
}

TEST(LintLocks, NestedGuardsEmitAnObservedEdge)
{
    const auto fa = analyze("src/core/x.cc",
                            "class Pair {\n"
                            "  void both() {\n"
                            "    std::lock_guard<std::mutex> l1(ma_);\n"
                            "    std::lock_guard<std::mutex> l2(mb_);\n"
                            "  }\n"
                            "  std::mutex ma_;\n"
                            "  std::mutex mb_;\n"
                            "};\n");
    ASSERT_EQ(fa.lock_edges.size(), 1u);
    EXPECT_EQ(fa.lock_edges[0].from, "Pair::ma_");
    EXPECT_EQ(fa.lock_edges[0].to, "Pair::mb_");
    EXPECT_EQ(fa.lock_edges[0].line, 4);
    EXPECT_FALSE(fa.lock_edges[0].declared);
}

TEST(LintLocks, AcquiredBeforeEmitsADeclaredEdge)
{
    const auto fa = analyze(
        "src/core/x.cc",
        "class Pair {\n"
        "  std::mutex ma_ AIWC_ACQUIRED_BEFORE(mb_);\n"
        "  std::mutex mb_;\n"
        "};\n");
    ASSERT_EQ(fa.lock_edges.size(), 1u);
    EXPECT_EQ(fa.lock_edges[0].from, "Pair::ma_");
    EXPECT_EQ(fa.lock_edges[0].to, "Pair::mb_");
    EXPECT_TRUE(fa.lock_edges[0].declared);
}

TEST(LintLocks, RequiresSeedsAcquisitionEdges)
{
    // Holding ma_ by contract, acquiring mb_ inside is an observed
    // ma_ -> mb_ nesting even with no guard for ma_ in this body.
    const auto fa = analyze("src/core/x.cc",
                            "class Pair {\n"
                            "  void inner() AIWC_REQUIRES(ma_) {\n"
                            "    std::lock_guard<std::mutex> l(mb_);\n"
                            "  }\n"
                            "  std::mutex ma_;\n"
                            "  std::mutex mb_;\n"
                            "};\n");
    ASSERT_EQ(fa.lock_edges.size(), 1u);
    EXPECT_EQ(fa.lock_edges[0].from, "Pair::ma_");
    EXPECT_EQ(fa.lock_edges[0].to, "Pair::mb_");
}

TEST(LintLocks, CompanionRequiresSeedsEdges)
{
    // The contract lives on the declaration in the module header; the
    // out-of-line definition must still start with ma_ held.
    const std::string companion = "class T {\n"
                                  "  void f() AIWC_REQUIRES(ma_);\n"
                                  "  std::mutex ma_;\n"
                                  "  std::mutex mb_;\n"
                                  "};\n";
    const auto fa = analyzeSource(
        "src/core/x.cc",
        "void T::f() {\n"
        "  std::lock_guard<std::mutex> l(mb_);\n"
        "}\n",
        &companion);
    ASSERT_EQ(fa.lock_edges.size(), 1u);
    EXPECT_EQ(fa.lock_edges[0].from, "T::ma_");
    EXPECT_EQ(fa.lock_edges[0].to, "T::mb_");
    EXPECT_EQ(fa.lock_edges[0].line, 2);
}

TEST(LintLocks, EarlyUnlockEndsTheHeldSet)
{
    // g.unlock() drops ma_ mid-scope: acquiring mb_ afterwards nests
    // nothing, even though the guard object is still alive.
    const auto fa = analyze("src/core/x.cc",
                            "class Pair {\n"
                            "  void f() {\n"
                            "    std::unique_lock<std::mutex> g(ma_);\n"
                            "    g.unlock();\n"
                            "    std::lock_guard<std::mutex> l(mb_);\n"
                            "  }\n"
                            "  std::mutex ma_;\n"
                            "  std::mutex mb_;\n"
                            "};\n");
    EXPECT_TRUE(fa.lock_edges.empty());
}

TEST(LintLocks, MutexLock2SameClassPairEmitsNoEdge)
{
    // Two-instance operations (merge, operator=) acquire both locks
    // atomically; a same-node self-edge would be a false cycle.
    const auto fa = analyze("src/core/x.cc",
                            "class P {\n"
                            "  void m(P &o) {\n"
                            "    MutexLock2 l(mu_, o.mu_);\n"
                            "  }\n"
                            "  aiwc::Mutex mu_;\n"
                            "};\n");
    EXPECT_TRUE(fa.lock_edges.empty());
}

TEST(LintLocks, UnresolvableLocksEmitNothing)
{
    // A lock that matches no known mutex field is skipped, not guessed.
    const auto fa = analyze("src/core/x.cc",
                            "void f() {\n"
                            "  std::lock_guard<std::mutex> a(global_mu);\n"
                            "  std::lock_guard<std::mutex> b(other_mu);\n"
                            "}\n");
    EXPECT_TRUE(fa.lock_edges.empty());
}

// --- locks.txt spec --------------------------------------------------------

TEST(LintLocks, LockSpecParsesAliasesAndOrders)
{
    LockSpec spec;
    std::string error;
    ASSERT_TRUE(LockSpec::parse("# comment\n"
                                "lock a Pair::ma_\n"
                                "lock b Pair::mb_\n"
                                "\n"
                                "order a b\n",
                                spec, error))
        << error;
    EXPECT_EQ(spec.locks.size(), 2u);
    EXPECT_EQ(spec.locks.at("a"), "Pair::ma_");
    ASSERT_EQ(spec.orders.size(), 1u);
    EXPECT_EQ(spec.orders[0].from, "Pair::ma_");
    EXPECT_EQ(spec.orders[0].to, "Pair::mb_");
    EXPECT_EQ(spec.orders[0].line, 5);
}

TEST(LintLocks, LockSpecRejectsMalformedSpecs)
{
    LockSpec spec;
    std::string error;
    // order with an undeclared alias
    EXPECT_FALSE(LockSpec::parse("lock a X::m\norder a b\n", spec, error));
    EXPECT_NE(error.find("locks.txt:2"), std::string::npos);
    // node without Class:: qualification
    EXPECT_FALSE(LockSpec::parse("lock a just_a_name\n", spec, error));
    // duplicate alias
    EXPECT_FALSE(
        LockSpec::parse("lock a X::m\nlock a Y::m\n", spec, error));
    // self-loop
    EXPECT_FALSE(
        LockSpec::parse("lock a X::m\norder a a\n", spec, error));
    // unknown directive
    EXPECT_FALSE(LockSpec::parse("mutex a X::m\n", spec, error));
}

// --- whole-program cycle check ---------------------------------------------

TEST(LintLocks, ObservedCycleIsReportedWithWitnessPath)
{
    const auto a = analyze("src/core/a.cc",
                           "class Pair {\n"
                           "  void fwd() {\n"
                           "    std::lock_guard<std::mutex> l1(ma_);\n"
                           "    std::lock_guard<std::mutex> l2(mb_);\n"
                           "  }\n"
                           "  std::mutex ma_;\n"
                           "  std::mutex mb_;\n"
                           "};\n");
    const auto b = analyze("src/core/b.cc",
                           "class Pair {\n"
                           "  void rev() {\n"
                           "    std::lock_guard<std::mutex> l1(mb_);\n"
                           "    std::lock_guard<std::mutex> l2(ma_);\n"
                           "  }\n"
                           "  std::mutex ma_;\n"
                           "  std::mutex mb_;\n"
                           "};\n");
    std::vector<const FileAnalysis *> records{&a, &b};
    std::vector<Finding> out;
    checkLockOrder(records, nullptr, "tools/aiwc-lint/locks.txt", out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "lock-order-cycle");
    // The witness names both hops with their provenance and anchors at
    // an observed acquisition site.
    EXPECT_NE(out[0].message.find("Pair::ma_ -> Pair::mb_"),
              std::string::npos);
    EXPECT_NE(out[0].message.find("Pair::mb_ -> Pair::ma_"),
              std::string::npos);
    EXPECT_NE(out[0].message.find("observed src/core/a.cc:4"),
              std::string::npos);
    EXPECT_NE(out[0].message.find("observed src/core/b.cc:4"),
              std::string::npos);
    EXPECT_TRUE(out[0].file == "src/core/a.cc" ||
                out[0].file == "src/core/b.cc");
}

TEST(LintLocks, ObservedEdgeAgainstDeclaredOrderClosesACycle)
{
    const auto a = analyze("src/core/a.cc",
                           "class Pair {\n"
                           "  void fwd() {\n"
                           "    std::lock_guard<std::mutex> l1(ma_);\n"
                           "    std::lock_guard<std::mutex> l2(mb_);\n"
                           "  }\n"
                           "  std::mutex ma_;\n"
                           "  std::mutex mb_;\n"
                           "};\n");
    LockSpec spec;
    std::string error;
    ASSERT_TRUE(LockSpec::parse("lock a Pair::ma_\n"
                                "lock b Pair::mb_\n"
                                "order b a\n",
                                spec, error))
        << error;
    std::vector<const FileAnalysis *> records{&a};
    std::vector<Finding> out;
    checkLockOrder(records, &spec, "tools/aiwc-lint/locks.txt", out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "lock-order-cycle");
    // Anchored at the observed half, citing the declared half.
    EXPECT_EQ(out[0].file, "src/core/a.cc");
    EXPECT_EQ(out[0].line, 4);
    EXPECT_NE(out[0].message.find("declared tools/aiwc-lint/locks.txt:3"),
              std::string::npos);
}

TEST(LintLocks, ConsistentOrderIsClean)
{
    const auto a = analyze("src/core/a.cc",
                           "class Pair {\n"
                           "  void fwd() {\n"
                           "    std::lock_guard<std::mutex> l1(ma_);\n"
                           "    std::lock_guard<std::mutex> l2(mb_);\n"
                           "  }\n"
                           "  std::mutex ma_;\n"
                           "  std::mutex mb_;\n"
                           "};\n");
    LockSpec spec;
    std::string error;
    ASSERT_TRUE(LockSpec::parse("lock a Pair::ma_\n"
                                "lock b Pair::mb_\n"
                                "order a b\n",
                                spec, error))
        << error;
    std::vector<const FileAnalysis *> records{&a};
    std::vector<Finding> out;
    checkLockOrder(records, &spec, "tools/aiwc-lint/locks.txt", out);
    EXPECT_TRUE(out.empty());
}

// --- the full pipeline -----------------------------------------------------

TEST(LintLocks, ProjectPipelineReportsInjectedInversion)
{
    // End-to-end acceptance: an out-of-order acquisition injected into
    // a tree linted with a spec comes back as a lock-order-cycle.
    std::vector<SourceFile> files;
    SourceFile sf;
    sf.path = "src/core/inverted.cc";
    sf.content = "class Pair {\n"
                 "  void rev() {\n"
                 "    std::lock_guard<std::mutex> l1(mb_);\n"
                 "    std::lock_guard<std::mutex> l2(ma_);\n"
                 "  }\n"
                 "  std::mutex ma_;\n"
                 "  std::mutex mb_;\n"
                 "};\n";
    files.push_back(sf);
    ProjectOptions options;
    options.locks_text = "lock a Pair::ma_\n"
                         "lock b Pair::mb_\n"
                         "order a b\n";
    const auto res = analyzeProject(files, options, nullptr);
    ASSERT_TRUE(res.error.empty()) << res.error;
    EXPECT_EQ(countRule(res.findings, "lock-order-cycle"), 1);
    const Finding *f = findRule(res.findings, "lock-order-cycle");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->file, "src/core/inverted.cc");
}

TEST(LintLocks, ProjectPipelineRejectsBadSpec)
{
    std::vector<SourceFile> files;
    SourceFile sf;
    sf.path = "src/core/x.cc";
    sf.content = "int x = 0;\n";
    files.push_back(sf);
    ProjectOptions options;
    options.locks_text = "order a b\n";
    const auto res = analyzeProject(files, options, nullptr);
    EXPECT_FALSE(res.error.empty());
}

TEST(LintLocks, CacheRoundTripsLockEdges)
{
    AnalysisCache cache;
    FileAnalysis fa = analyze("src/core/x.cc",
                              "class Pair {\n"
                              "  void both() {\n"
                              "    std::lock_guard<std::mutex> l1(ma_);\n"
                              "    std::lock_guard<std::mutex> l2(mb_);\n"
                              "  }\n"
                              "  std::mutex ma_;\n"
                              "  std::mutex mb_;\n"
                              "};\n");
    ASSERT_EQ(fa.lock_edges.size(), 1u);
    const std::uint64_t hash = fa.hash;
    cache.store(std::move(fa));

    AnalysisCache reloaded;
    ASSERT_TRUE(reloaded.load(cache.serialize()));
    const FileAnalysis *hit = reloaded.lookup("src/core/x.cc", hash);
    ASSERT_NE(hit, nullptr);
    ASSERT_EQ(hit->lock_edges.size(), 1u);
    EXPECT_EQ(hit->lock_edges[0].from, "Pair::ma_");
    EXPECT_EQ(hit->lock_edges[0].to, "Pair::mb_");
    EXPECT_EQ(hit->lock_edges[0].line, 4);
    EXPECT_FALSE(hit->lock_edges[0].declared);
}

TEST(LintLocks, OldCacheVersionIsRejected)
{
    // An old header must discard the whole cache: v2 records carry no
    // lock edges, and serving them would silently drop order checking;
    // v3 records carry findings of rules that no longer exist.
    for (const char *old : {"aiwc-lint-cache 2\n", "aiwc-lint-cache 3\n"}) {
        AnalysisCache cache;
        EXPECT_FALSE(cache.load(old)) << old;
        EXPECT_EQ(cache.size(), 0u) << old;
    }
}

} // namespace
} // namespace aiwc::lint
