// Outline-parser edge cases: the mutable-global rule and the
// unused-include symbol index are only as good as the declaration
// shapes the parser recovers — nested namespaces, templates,
// out-of-line members, and the qualifier flags that separate constants
// from state.

#include "outline.hh"

#include <gtest/gtest.h>

namespace aiwc::lint
{
namespace
{

Outline
parse(const std::string &src)
{
    return parseOutline(lex(src));
}

const Decl *
find(const Outline &o, const std::string &name)
{
    for (const Decl &d : o.decls)
        if (d.name == name)
            return &d;
    return nullptr;
}

TEST(LintOutline, NestedNamespacesQualifyNames)
{
    const auto o = parse("namespace a { namespace b { int x = 1; } }\n"
                         "namespace c::d { int y = 2; }\n");
    const Decl *x = find(o, "x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->kind, DeclKind::Variable);
    EXPECT_EQ(x->qualified, "a::b::x");

    const Decl *y = find(o, "y");
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(y->qualified, "c::d::y");
}

TEST(LintOutline, AnonymousNamespaceIsMarked)
{
    const auto o = parse("namespace { int hidden = 0; }\n");
    const Decl *d = find(o, "hidden");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->qualified, "(anonymous)::hidden");
}

TEST(LintOutline, TemplatedClassAndOutOfLineMember)
{
    const auto o = parse(
        "template <typename T, int N>\n"
        "class Ring {\n"
        "  T slots_[N];\n"
        "};\n"
        "int Counter::bump(int by) { return value_ += by; }\n");
    const Decl *ring = find(o, "Ring");
    ASSERT_NE(ring, nullptr);
    EXPECT_EQ(ring->kind, DeclKind::Type);
    // The member variable surfaces as a Field owned by the class, not
    // as a namespace-scope variable (declaredNames skips members).
    const Decl *slots = find(o, "slots_");
    ASSERT_NE(slots, nullptr);
    EXPECT_EQ(slots->kind, DeclKind::Field);
    EXPECT_EQ(slots->owner, "Ring");

    const Decl *bump = find(o, "bump");
    ASSERT_NE(bump, nullptr);
    EXPECT_EQ(bump->kind, DeclKind::Function);
    EXPECT_EQ(bump->line, 5);
}

TEST(LintOutline, QualifierFlagsAreRecorded)
{
    const auto o = parse("const int a = 1;\n"
                         "constexpr double b = 2.0;\n"
                         "extern int c;\n"
                         "thread_local int d = 4;\n"
                         "static int e;\n"
                         "int f = 6;\n");
    EXPECT_TRUE(find(o, "a")->is_const);
    EXPECT_TRUE(find(o, "b")->is_constexpr);
    EXPECT_TRUE(find(o, "c")->is_extern);
    EXPECT_TRUE(find(o, "d")->is_thread_local);
    EXPECT_TRUE(find(o, "e")->is_static);
    const Decl *f = find(o, "f");
    EXPECT_FALSE(f->is_const);
    EXPECT_TRUE(f->has_initializer);
    EXPECT_FALSE(find(o, "e")->has_initializer);
}

TEST(LintOutline, FunctionBodiesAreOpaque)
{
    const auto o = parse("void run() {\n"
                         "  static int calls = 0;\n"
                         "  int local = ++calls;\n"
                         "  (void)local;\n"
                         "}\n");
    ASSERT_NE(find(o, "run"), nullptr);
    EXPECT_EQ(find(o, "run")->kind, DeclKind::Function);
    EXPECT_EQ(find(o, "calls"), nullptr);
    EXPECT_EQ(find(o, "local"), nullptr);
}

TEST(LintOutline, EnumsAndEnumerators)
{
    const auto o = parse("enum Color { Red, Green = 2, Blue };\n"
                         "enum class Mode { Fast, Safe };\n");
    EXPECT_EQ(find(o, "Color")->kind, DeclKind::Type);
    EXPECT_EQ(find(o, "Red")->kind, DeclKind::Enumerator);
    EXPECT_NE(find(o, "Blue"), nullptr);
    // Scoped enumerators are not injected into the namespace.
    EXPECT_EQ(find(o, "Mode")->kind, DeclKind::Type);
    EXPECT_EQ(find(o, "Fast"), nullptr);
}

TEST(LintOutline, AliasesTypedefsAndMacros)
{
    const auto o = parse("#define AIWC_WIDGET(x) (x)\n"
                         "using Vec = std::vector<int>;\n"
                         "typedef unsigned long ulong_t;\n");
    EXPECT_EQ(find(o, "AIWC_WIDGET")->kind, DeclKind::Macro);
    EXPECT_EQ(find(o, "Vec")->kind, DeclKind::Alias);
    EXPECT_EQ(find(o, "ulong_t")->kind, DeclKind::Alias);
}

TEST(LintOutline, FunctionPointerDeclarator)
{
    const auto o = parse("void (*handler)(int) = nullptr;\n");
    const Decl *d = find(o, "handler");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->kind, DeclKind::Variable);
    EXPECT_TRUE(d->has_initializer);
}

TEST(LintOutline, StructWithTrailingInstance)
{
    const auto o = parse("struct Config { int level; } config;\n");
    EXPECT_EQ(find(o, "Config")->kind, DeclKind::Type);
    const Decl *inst = find(o, "config");
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(inst->kind, DeclKind::Variable);
    const Decl *level = find(o, "level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(level->kind, DeclKind::Field);
    EXPECT_EQ(level->owner, "Config");
}

TEST(LintOutline, ThreadAnnotationsAreCaptured)
{
    const auto o = parse(
        "class Registry {\n"
        "  void flushLocked() AIWC_REQUIRES(mutex_);\n"
        "  void render() const AIWC_EXCLUDES(mutex_);\n"
        "  std::mutex mutex_ AIWC_ACQUIRED_BEFORE(inner_.mutex_);\n"
        "  std::mutex other_;\n"
        "  int count_ AIWC_GUARDED_BY(mutex_) = 0;\n"
        "};\n");
    const Decl *flush = find(o, "flushLocked");
    ASSERT_NE(flush, nullptr);
    EXPECT_EQ(flush->kind, DeclKind::Function);
    EXPECT_EQ(flush->owner, "Registry");
    ASSERT_EQ(flush->requires_locks.size(), 1u);
    EXPECT_EQ(flush->requires_locks[0], "mutex_");

    // AIWC_EXCLUDES and AIWC_GUARDED_BY are not captured, only
    // skipped: the declarations around them still parse.
    const Decl *render = find(o, "render");
    ASSERT_NE(render, nullptr);
    EXPECT_EQ(render->kind, DeclKind::Function);
    EXPECT_EQ(render->owner, "Registry");

    const Decl *mutex = find(o, "mutex_");
    ASSERT_NE(mutex, nullptr);
    EXPECT_EQ(mutex->kind, DeclKind::Field);
    EXPECT_EQ(mutex->type_name, "mutex");
    ASSERT_EQ(mutex->acquired_before.size(), 1u);
    EXPECT_EQ(mutex->acquired_before[0], "inner_.mutex_");

    const Decl *count = find(o, "count_");
    ASSERT_NE(count, nullptr);
    EXPECT_EQ(count->kind, DeclKind::Field);
    EXPECT_TRUE(count->has_initializer);
}

TEST(LintOutline, MemberFunctionBodiesAreIndexed)
{
    const auto o = parse("class C {\n"
                         "  int get() const { return v_; }\n"
                         "  int v_ = 0;\n"
                         "};\n");
    const Decl *get = find(o, "get");
    ASSERT_NE(get, nullptr);
    EXPECT_EQ(get->owner, "C");
    EXPECT_GE(get->body_begin, 0);
    EXPECT_GT(get->body_end, get->body_begin);
}

TEST(LintOutline, DeclaredNamesDedupeAndSkipNamespaces)
{
    const auto o = parse("namespace aiwc {\n"
                         "int foo();\n"
                         "int foo(int);\n"
                         "struct Bar {};\n"
                         "}\n");
    const auto names = declaredNames(o);
    ASSERT_EQ(names.size(), 2u);  // foo once, Bar; no "aiwc"
    EXPECT_EQ(names[0], "Bar");
    EXPECT_EQ(names[1], "foo");
}

TEST(LintOutline, GarbageResynchronizes)
{
    // Unparsable input must not wedge the parser or invent decls before
    // the next clean declaration.
    const auto o = parse("??? ->-> ]] (( ;\n"
                         "int after = 1;\n");
    EXPECT_NE(find(o, "after"), nullptr);
}

} // namespace
} // namespace aiwc::lint
