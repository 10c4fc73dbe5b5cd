#include "rules.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "lexer.hh"
#include "locks.hh"
#include "outline.hh"

namespace aiwc::lint
{

namespace
{

// ---------------------------------------------------------------------------
// Path classification. Paths are repo-relative with '/' separators; the
// driver normalizes before calling lintSource.

bool
hasSegment(const std::string &path, const std::string &seg)
{
    const std::string needle = seg + "/";
    if (path.rfind(needle, 0) == 0)
        return true;
    return path.find("/" + needle) != std::string::npos;
}

bool
underSrc(const std::string &path)
{
    return hasSegment(path, "src");
}

bool
isHeader(const std::string &path)
{
    return path.size() > 3 && path.compare(path.size() - 3, 3, ".hh") == 0;
}

bool
isPublicHeader(const std::string &path)
{
    return isHeader(path) && path.find("src/include/") != std::string::npos;
}

/** Files allowed to read wall clocks / entropy: observability and bench. */
bool
determinismAllowlisted(const std::string &path)
{
    return hasSegment(path, "obs") || hasSegment(path, "bench");
}

/** The one module allowed to touch raw threads. */
bool
isParallelModule(const std::string &path)
{
    return path.find("common/parallel.") != std::string::npos;
}

/** The one file allowed to terminate the process. */
bool
isCheckImpl(const std::string &path)
{
    return path == "check.cc" ||
           (path.size() > 9 &&
            path.compare(path.size() - 9, 9, "/check.cc") == 0);
}

// ---------------------------------------------------------------------------
// Token-stream helpers. Rules operate on the "code view": comments and
// preprocessor lines stripped, so banned names in comments, strings
// (their own token kind), or #include paths never fire.

std::vector<Token>
codeView(const std::vector<Token> &tokens)
{
    std::vector<Token> out;
    out.reserve(tokens.size());
    for (const Token &t : tokens)
        if (t.kind != TokenKind::Comment && t.kind != TokenKind::PpDirective)
            out.push_back(t);
    return out;
}

bool
isIdent(const std::vector<Token> &ts, std::size_t i, const char *text)
{
    return i < ts.size() && ts[i].kind == TokenKind::Identifier &&
           ts[i].text == text;
}

bool
isPunct(const std::vector<Token> &ts, std::size_t i, const char *text)
{
    return i < ts.size() && ts[i].kind == TokenKind::Punct &&
           ts[i].text == text;
}

/**
 * Heuristic: is ts[i] (an identifier) used as a free-function call?
 * Declarations (`LogNormal abort(...)`, `int rand(int)`) have a type
 * name directly before; member calls (`x.exit(...)`) have '.' or '->';
 * a "::"-qualified call only counts when the qualifier is `std`.
 */
bool
isFreeCall(const std::vector<Token> &ts, std::size_t i)
{
    if (!isPunct(ts, i + 1, "("))
        return false;
    if (i == 0)
        return true;
    const Token &prev = ts[i - 1];
    if (prev.kind == TokenKind::Identifier) {
        // `return abort();`, `else abort();` are calls, not declarations.
        static const std::set<std::string> call_context = {
            "return", "else", "do", "co_return"};
        return call_context.count(prev.text) > 0;
    }
    if (prev.kind == TokenKind::Punct) {
        if (prev.text == "::")
            return i >= 2 && isIdent(ts, i - 2, "std");
        if (prev.text == "." || prev.text == ">")  // member / -> call
            return false;
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// R1a · det-random

void
ruleDetRandom(const std::string &path, const std::vector<Token> &ts,
              std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != TokenKind::Identifier)
            continue;
        if (ts[i].text == "random_device") {
            out.push_back({path, ts[i].line, "det-random",
                           "std::random_device is hardware entropy; seed "
                           "from the run's configured seed instead"});
        } else if ((ts[i].text == "rand" || ts[i].text == "srand") &&
                   isFreeCall(ts, i)) {
            out.push_back({path, ts[i].line, "det-random",
                           ts[i].text + "() uses hidden global state; use "
                                        "aiwc::common::Rng"});
        } else if (ts[i].text == "time" && isFreeCall(ts, i) &&
                   (isIdent(ts, i + 2, "nullptr") ||
                    isIdent(ts, i + 2, "NULL") ||
                    (i + 2 < ts.size() &&
                     ts[i + 2].kind == TokenKind::Number &&
                     ts[i + 2].text == "0")) &&
                   isPunct(ts, i + 3, ")")) {
            out.push_back({path, ts[i].line, "det-random",
                           "time(nullptr) reads the wall clock; results "
                           "must be a pure function of (input, seed)"});
        } else if (ts[i].text == "system_clock" && isPunct(ts, i + 1, "::") &&
                   isIdent(ts, i + 2, "now")) {
            out.push_back({path, ts[i].line, "det-random",
                           "system_clock::now() reads the wall clock; only "
                           "obs/ and bench/ may observe real time"});
        }
    }
}

// ---------------------------------------------------------------------------
// R1b · det-unordered-iter
//
// Collect names declared with an unordered container type (directly,
// or through a `using X = std::unordered_map<...>` alias), then flag
// range-for loops whose range resolves to such a name and classic for
// loops that call .begin()/.cbegin() on one. Heuristic by design: it
// tracks names, not types, which is exactly enough for this codebase's
// idiom and errs toward firing (a false positive is a one-line
// suppression with a reason).

bool
isUnorderedName(const Token &t)
{
    return t.kind == TokenKind::Identifier &&
           (t.text == "unordered_map" || t.text == "unordered_set" ||
            t.text == "unordered_multimap" || t.text == "unordered_multiset");
}

/** Skip a balanced <...> starting at ts[i] == "<"; returns index past ">". */
std::size_t
skipAngles(const std::vector<Token> &ts, std::size_t i)
{
    int depth = 0;
    while (i < ts.size()) {
        if (isPunct(ts, i, "<"))
            ++depth;
        else if (isPunct(ts, i, ">") && --depth == 0)
            return i + 1;
        else if (isPunct(ts, i, ";"))  // runaway (operator<, etc.)
            return i;
        ++i;
    }
    return i;
}

void
collectUnorderedDecls(const std::vector<Token> &ts,
                      std::set<std::string> &names,
                      std::set<std::string> &aliases)
{
    // Aliases: using X = ... unordered_map< ... > ... ;
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
        if (!isIdent(ts, i, "using") ||
            ts[i + 1].kind != TokenKind::Identifier ||
            !isPunct(ts, i + 2, "="))
            continue;
        for (std::size_t j = i + 3;
             j < ts.size() && !isPunct(ts, j, ";"); ++j) {
            if (isUnorderedName(ts[j])) {
                aliases.insert(ts[i + 1].text);
                break;
            }
        }
    }

    // Direct declarations: [std::]unordered_map<...> [&*const] name term
    for (std::size_t i = 0; i < ts.size(); ++i) {
        std::size_t j;
        if (isUnorderedName(ts[i]) && isPunct(ts, i + 1, "<")) {
            j = skipAngles(ts, i + 1);
        } else if (ts[i].kind == TokenKind::Identifier &&
                   aliases.count(ts[i].text) > 0 &&
                   !(i > 0 && (isPunct(ts, i - 1, ".") ||
                               isPunct(ts, i - 1, "::")))) {
            j = i + 1;
        } else {
            continue;
        }
        while (j < ts.size() &&
               (isPunct(ts, j, "&") || isPunct(ts, j, "*") ||
                isIdent(ts, j, "const") || isIdent(ts, j, "mutable")))
            ++j;
        if (j < ts.size() && ts[j].kind == TokenKind::Identifier &&
            j + 1 < ts.size() && ts[j + 1].kind == TokenKind::Punct) {
            const std::string &after = ts[j + 1].text;
            if (after == ";" || after == "=" || after == "{" ||
                after == "," || after == ")")
                names.insert(ts[j].text);
        }
    }
}

/** Index just past the ')' matching ts[open] == "(". */
std::size_t
matchParen(const std::vector<Token> &ts, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < ts.size(); ++i) {
        if (isPunct(ts, i, "("))
            ++depth;
        else if (isPunct(ts, i, ")") && --depth == 0)
            return i + 1;
    }
    return ts.size();
}

void
ruleUnorderedIter(const std::string &path, const std::vector<Token> &ts,
                  const std::set<std::string> &names,
                  std::vector<Finding> &out)
{
    if (names.empty())
        return;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (!isIdent(ts, i, "for") || !isPunct(ts, i + 1, "("))
            continue;
        const std::size_t open = i + 1;
        const std::size_t end = matchParen(ts, open);

        // Find a range-for ':' at paren depth 1 ("::" is one token, so a
        // bare ':' here is unambiguous).
        std::size_t colon = 0;
        bool classic = false;
        int depth = 0;
        for (std::size_t j = open; j < end; ++j) {
            if (isPunct(ts, j, "("))
                ++depth;
            else if (isPunct(ts, j, ")"))
                --depth;
            else if (depth == 1 && isPunct(ts, j, ";"))
                classic = true;
            else if (depth == 1 && isPunct(ts, j, ":") && colon == 0)
                colon = j;
        }

        if (colon != 0 && !classic) {
            // Range expression: last identifier not used as a call.
            std::string target;
            for (std::size_t j = colon + 1; j + 1 < end; ++j)
                if (ts[j].kind == TokenKind::Identifier &&
                    !isPunct(ts, j + 1, "("))
                    target = ts[j].text;
            if (!target.empty() && names.count(target) > 0)
                out.push_back(
                    {path, ts[i].line, "det-unordered-iter",
                     "range-for over unordered container '" + target +
                         "' iterates in hash order; use std::map or "
                         "extract-and-sort before anything ordered "
                         "depends on it"});
        } else if (classic) {
            for (std::size_t j = open; j + 3 < end; ++j)
                if (ts[j].kind == TokenKind::Identifier &&
                    names.count(ts[j].text) > 0 &&
                    isPunct(ts, j + 1, ".") &&
                    (isIdent(ts, j + 2, "begin") ||
                     isIdent(ts, j + 2, "cbegin")) &&
                    isPunct(ts, j + 3, "(")) {
                    out.push_back(
                        {path, ts[i].line, "det-unordered-iter",
                         "iterator loop over unordered container '" +
                             ts[j].text + "' iterates in hash order; use "
                                          "std::map or extract-and-sort"});
                    break;
                }
        }
    }
}

// ---------------------------------------------------------------------------
// R2 · contract-assert / contract-abort

void
ruleContractAssert(const std::string &path, const std::vector<Token> &ts,
                   std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < ts.size(); ++i)
        if (isIdent(ts, i, "assert") && isFreeCall(ts, i))
            out.push_back({path, ts[i].line, "contract-assert",
                           "bare assert() vanishes in release builds; use "
                           "AIWC_CHECK (always on) or AIWC_DCHECK "
                           "(debug-only) from aiwc/base/check.hh"});
}

void
ruleContractAbort(const std::string &path, const std::vector<Token> &ts,
                  std::vector<Finding> &out)
{
    static const std::set<std::string> terminators = {"abort", "exit",
                                                      "_Exit", "quick_exit"};
    for (std::size_t i = 0; i < ts.size(); ++i)
        if (ts[i].kind == TokenKind::Identifier &&
            terminators.count(ts[i].text) > 0 && isFreeCall(ts, i))
            out.push_back({path, ts[i].line, "contract-abort",
                           ts[i].text + "() bypasses the contract-failure "
                                        "handler; raise AIWC_CHECK instead "
                                        "(termination lives in check.cc)"});
}

// ---------------------------------------------------------------------------
// R3 · thread-raw

void
ruleThreadRaw(const std::string &path, const std::vector<Token> &ts,
              std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (isIdent(ts, i, "std") && isPunct(ts, i + 1, "::") &&
            (isIdent(ts, i + 2, "thread") || isIdent(ts, i + 2, "jthread") ||
             isIdent(ts, i + 2, "async"))) {
            // Anchor at the banned name itself (ts[i + 2]): when the
            // qualifier and the name sit on different physical lines
            // (line continuation or wrapped code), the finding must point
            // at the token that triggered it.
            out.push_back(
                {path, ts[i + 2].line, "thread-raw",
                 "raw std::" + ts[i + 2].text +
                     " breaks the deterministic shard geometry; use "
                     "parallelFor/parallelReduce from "
                     "aiwc/common/parallel.hh"});
        } else if (isIdent(ts, i, "detach") && isPunct(ts, i + 1, "(") &&
                   i > 0 &&
                   (isPunct(ts, i - 1, ".") || isPunct(ts, i - 1, ">"))) {
            out.push_back({path, ts[i].line, "thread-raw",
                           "detach() orphans work past the pool's barrier; "
                           "joined pool workers are the only concurrency "
                           "primitive"});
        }
    }
}

// ---------------------------------------------------------------------------
// R4 · metric-name

bool
isLowerSnake(const std::string &s)
{
    if (s.empty())
        return false;
    for (const char ch : s)
        if (!((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
              ch == '_'))
            return false;
    return true;
}

/** aiwc\.[a-z0-9_]+(\.[a-z0-9_]+)+ — "aiwc." plus >= 2 snake segments. */
bool
isValidMetricName(const std::string &name)
{
    std::vector<std::string> segs;
    std::string cur;
    for (const char ch : name) {
        if (ch == '.') {
            segs.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    segs.push_back(cur);
    if (segs.size() < 3 || segs[0] != "aiwc")
        return false;
    return std::all_of(segs.begin() + 1, segs.end(), isLowerSnake);
}

std::string
literalValue(const std::string &text)
{
    const std::size_t first = text.find('"');
    const std::size_t last = text.rfind('"');
    if (first == std::string::npos || last <= first)
        return "";
    return text.substr(first + 1, last - first - 1);
}

void
ruleMetricName(const std::string &path, const std::vector<Token> &ts,
               std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        if (!(isIdent(ts, i, "counter") || isIdent(ts, i, "gauge") ||
              isIdent(ts, i, "histogram")))
            continue;
        if (!isPunct(ts, i + 1, "(") ||
            ts[i + 2].kind != TokenKind::String)
            continue;
        const std::string name = literalValue(ts[i + 2].text);
        if (isPunct(ts, i + 3, ")")) {
            if (!isValidMetricName(name))
                out.push_back(
                    {path, ts[i + 2].line, "metric-name",
                     "metric name \"" + name +
                         "\" must match aiwc.<layer>.<thing> "
                         "(aiwc\\.[a-z0-9_]+(\\.[a-z0-9_]+)+, see "
                         "CONTRIBUTING.md)"});
        } else if (isPunct(ts, i + 3, "+")) {
            // Concatenated name: statically check the literal prefix.
            const bool prefix_ok =
                name.rfind("aiwc.", 0) == 0 &&
                std::all_of(name.begin(), name.end(), [](char ch) {
                    return (ch >= 'a' && ch <= 'z') ||
                           (ch >= '0' && ch <= '9') || ch == '_' ||
                           ch == '.';
                });
            if (!prefix_ok)
                out.push_back(
                    {path, ts[i + 2].line, "metric-name",
                     "concatenated metric name must start with a literal "
                     "\"aiwc.<layer>.\" prefix, got \"" + name + "\""});
        }
    }
}

// ---------------------------------------------------------------------------
// R5a · header-pragma-once

std::string
collapse(const std::string &s)
{
    std::string out;
    for (const char ch : s)
        if (ch != ' ' && ch != '\t' && ch != '\r')
            out.push_back(ch);
    return out;
}

void
rulePragmaOnce(const std::string &path, const std::vector<Token> &tokens,
               std::vector<Finding> &out)
{
    for (const Token &t : tokens) {
        if (t.kind == TokenKind::Comment)
            continue;
        if (t.kind == TokenKind::PpDirective &&
            collapse(t.text) == "#pragmaonce")
            return;
        out.push_back({path, t.line, "header-pragma-once",
                       "public headers must open with #pragma once (before "
                       "any other directive or declaration)"});
        return;
    }
    out.push_back({path, 1, "header-pragma-once",
                   "empty header is missing #pragma once"});
}

// ---------------------------------------------------------------------------
// R5b · header-using-ns

void
ruleUsingNamespace(const std::string &path, const std::vector<Token> &ts,
                   std::vector<Finding> &out)
{
    std::vector<bool> ns_scope;  // brace stack: true = namespace/extern
    bool pending_ns = false;     // `namespace ...` seen, '{' not yet
    bool pending_extern = false; // `extern "..."` seen, '{' not yet

    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token &t = ts[i];
        if (t.kind == TokenKind::Identifier) {
            if (t.text == "using" && isIdent(ts, i + 1, "namespace")) {
                const bool at_ns_scope =
                    std::all_of(ns_scope.begin(), ns_scope.end(),
                                [](bool ns) { return ns; });
                if (at_ns_scope)
                    out.push_back(
                        {path, t.line, "header-using-ns",
                         "`using namespace` at namespace scope in a header "
                         "leaks into every includer; qualify names or move "
                         "it inside a function"});
                ++i;  // don't re-read `namespace` as a scope opener
            } else if (t.text == "namespace") {
                pending_ns = true;
            } else if (t.text == "extern" &&
                       i + 1 < ts.size() &&
                       ts[i + 1].kind == TokenKind::String) {
                pending_extern = true;
            }
            continue;
        }
        if (t.kind != TokenKind::Punct)
            continue;
        if (t.text == "{") {
            ns_scope.push_back(pending_ns || pending_extern);
            pending_ns = pending_extern = false;
        } else if (t.text == "}") {
            if (!ns_scope.empty())
                ns_scope.pop_back();
        } else if (t.text == ";" || t.text == "=") {
            pending_ns = pending_extern = false;  // alias / declaration
        }
    }
}

// ---------------------------------------------------------------------------
// R6 · mutable-global (outline-driven)
//
// Namespace-scope state that is neither const, constexpr, nor an extern
// re-declaration is the canonical determinism hazard: it survives across
// calls, is shared across threads, and makes results depend on call
// order. thread_local still counts — per-thread state makes results
// depend on the shard geometry, which the repo's determinism contract
// explicitly forbids.

void
ruleMutableGlobal(const std::string &path, const Outline &outline,
                  std::vector<Finding> &out)
{
    for (const Decl &d : outline.decls) {
        if (d.kind != DeclKind::Variable)
            continue;
        if (d.is_const || d.is_constexpr || d.is_extern)
            continue;
        out.push_back(
            {path, d.line, "mutable-global",
             "mutable namespace-scope state '" + d.name +
                 "' makes results order- and thread-dependent; make it "
                 "const/constexpr, or gate access through a function-local "
                 "static and suppress with a written reason"});
    }
}

// ---------------------------------------------------------------------------
// R7 · lock-discipline
//
// The v3 lock-set pass in locks.cc owns it: it tracks RAII guard
// scopes (including std::defer_lock / adopt_lock and explicit
// .lock()/.unlock() on guard objects) and flags manual mutex calls.
// Per-access and per-call annotation checks are clang's
// -Wthread-safety. See locks.hh.

// ---------------------------------------------------------------------------
// R8 · float-reduce-order
//
// Floating-point addition is not associative: std::reduce's unspecified
// operand grouping, and std::accumulate over floats combined in a
// caller-chosen order, both let summation order leak into digests. The
// deterministic merge lives in common/parallel.* (shard-index-order
// reduce) and sketch/ (pinned merge order), so those trees are exempt.

bool
floatReduceExempt(const std::string &path)
{
    return isParallelModule(path) || hasSegment(path, "sketch");
}

/** Does any token in [begin, end) look floating-point? */
bool
anyFloatish(const std::vector<Token> &ts, std::size_t begin, std::size_t end)
{
    for (std::size_t i = begin; i < end && i < ts.size(); ++i) {
        const Token &t = ts[i];
        if (t.kind == TokenKind::Identifier &&
            (t.text == "float" || t.text == "double"))
            return true;
        if (t.kind == TokenKind::Number && t.text.rfind("0x", 0) != 0 &&
            t.text.rfind("0X", 0) != 0) {
            if (t.text.find('.') != std::string::npos)
                return true;
            const char last = t.text.back();
            if (last == 'f' || last == 'F')
                return true;
            if (t.text.find('e') != std::string::npos ||
                t.text.find('E') != std::string::npos)
                return true;
        }
    }
    return false;
}

void
ruleFloatReduceOrder(const std::string &path, const std::vector<Token> &ts,
                     std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
        if (!isIdent(ts, i, "std") || !isPunct(ts, i + 1, "::"))
            continue;
        const bool is_reduce = isIdent(ts, i + 2, "reduce");
        const bool is_accumulate = isIdent(ts, i + 2, "accumulate");
        if ((!is_reduce && !is_accumulate) || !isPunct(ts, i + 3, "("))
            continue;
        if (is_reduce) {
            out.push_back(
                {path, ts[i + 2].line, "float-reduce-order",
                 "std::reduce combines operands in unspecified order; for "
                 "floating-point data use parallelReduce (shard-index-order "
                 "merge) or a sequential std::accumulate over integers"});
        } else if (anyFloatish(ts, i + 4, matchParen(ts, i + 3))) {
            out.push_back(
                {path, ts[i + 2].line, "float-reduce-order",
                 "std::accumulate over floating-point data bakes the "
                 "traversal order into the sum; use parallelReduce or an "
                 "explicitly ordered Kahan/pairwise summation"});
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions: // aiwc-lint: allow(rule[, rule...]) -- reason

struct SuppressionTable {
    // (line, rule) pairs a valid suppression covers.
    std::set<std::pair<int, std::string>> allowed;
};

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    std::size_t e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

void
parseSuppressions(const std::string &path, const std::vector<Token> &tokens,
                  SuppressionTable &table, std::vector<Finding> &out)
{
    static const std::string marker = "aiwc-lint:";
    for (const Token &t : tokens) {
        if (t.kind != TokenKind::Comment)
            continue;
        const std::size_t at = t.text.find(marker);
        if (at == std::string::npos)
            continue;
        // A suppression is a comment that *begins* with the marker
        // (after the comment opener). A marker mid-text is prose
        // describing the grammar — documentation, not a directive.
        const bool at_start = std::all_of(
            t.text.begin(), t.text.begin() + static_cast<long>(at),
            [](char ch) {
                return ch == '/' || ch == '*' || ch == '!' || ch == ' ' ||
                       ch == '\t' || ch == '\n' || ch == '\r';
            });
        if (!at_start)
            continue;
        std::string rest = trim(t.text.substr(at + marker.size()));
        // Block comments may close on the same line; drop the marker.
        const std::size_t close_comment = rest.find("*/");
        if (close_comment != std::string::npos)
            rest = trim(rest.substr(0, close_comment));

        if (rest.rfind("allow(", 0) != 0) {
            out.push_back({path, t.line, "bad-suppression",
                           "suppression must be `aiwc-lint: allow(<rule>) "
                           "-- <reason>`"});
            continue;
        }
        const std::size_t close = rest.find(')');
        if (close == std::string::npos) {
            out.push_back({path, t.line, "bad-suppression",
                           "unclosed allow(...) in suppression"});
            continue;
        }

        std::vector<std::string> rules;
        std::stringstream list(rest.substr(6, close - 6));
        std::string item;
        bool rules_ok = true;
        while (std::getline(list, item, ',')) {
            item = trim(item);
            const auto &known = knownRules();
            if (std::find(known.begin(), known.end(), item) == known.end()) {
                out.push_back({path, t.line, "bad-suppression",
                               "unknown rule '" + item +
                                   "' in suppression (see --list-rules)"});
                rules_ok = false;
                break;
            }
            rules.push_back(item);
        }
        if (!rules_ok)
            continue;
        if (rules.empty()) {
            out.push_back({path, t.line, "bad-suppression",
                           "allow() names no rule"});
            continue;
        }

        const std::string after = trim(rest.substr(close + 1));
        if (after.rfind("--", 0) != 0 || trim(after.substr(2)).empty()) {
            out.push_back({path, t.line, "bad-suppression",
                           "suppression requires a written reason: "
                           "`-- <why this is safe>`"});
            continue;
        }

        // Cover every physical line the comment spans plus the next line,
        // so both end-of-line and line-above placement work. end_line (not
        // a count of '\n' in the text) is what makes this robust: a line
        // comment extended by a backslash continuation spans physical
        // lines whose newlines were spliced out of the token text.
        for (int line = t.line; line <= t.end_line + 1; ++line)
            for (const std::string &rule : rules)
                table.allowed.insert({line, rule});
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out.push_back(ch);
            }
        }
    }
    return out;
}

} // namespace

const std::vector<std::string> &
knownRules()
{
    static const std::vector<std::string> rules = {
        "bad-suppression",    "contract-abort",     "contract-assert",
        "det-random",         "det-unordered-iter", "float-reduce-order",
        "header-pragma-once", "header-using-ns",    "include-cycle",
        "layer-violation",    "lock-discipline",    "lock-order-cycle",
        "metric-name",        "mutable-global",     "thread-raw",
        "unused-include",
    };
    return rules;
}

const std::string &
ruleDescription(const std::string &rule)
{
    static const std::map<std::string, std::string> descriptions = {
        {"bad-suppression",
         "Suppression comments must name a known rule and carry a reason."},
        {"contract-abort",
         "Process termination is check.cc's job; raise AIWC_CHECK instead."},
        {"contract-assert",
         "Use AIWC_CHECK/AIWC_DCHECK, not assert(), in src/."},
        {"det-random",
         "No wall-clock or hardware randomness in result-producing code."},
        {"det-unordered-iter",
         "Never iterate unordered containers where order can reach output."},
        {"float-reduce-order",
         "Floating-point reductions must have a pinned combination order."},
        {"header-pragma-once",
         "Public headers open with #pragma once."},
        {"header-using-ns",
         "No `using namespace` at namespace scope in headers."},
        {"include-cycle",
         "The project include graph must stay acyclic."},
        {"layer-violation",
         "Includes must respect the module DAG in tools/aiwc-lint/layers.txt."},
        {"lock-discipline",
         "Mutexes are held via RAII guards, never manual lock()/unlock()."},
        {"lock-order-cycle",
         "The whole-program lock-acquisition graph must stay acyclic "
         "(tools/aiwc-lint/locks.txt)."},
        {"metric-name",
         "Metric names match aiwc.<layer>.<thing> (lower_snake segments)."},
        {"mutable-global",
         "No mutable namespace-scope state in src/."},
        {"thread-raw",
         "All concurrency goes through the deterministic pool."},
        {"unused-include",
         "Every project #include must supply a name the file uses."},
    };
    static const std::string unknown = "Unknown rule.";
    const auto it = descriptions.find(rule);
    return it == descriptions.end() ? unknown : it->second;
}

std::uint64_t
contentHash(const std::string &content)
{
    // FNV-1a 64: deterministic, dependency-free, fast enough that the
    // hash never shows up in the cold-run profile.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char ch : content) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

FileAnalysis
analyzeSource(const std::string &path, const std::string &content,
              const std::string *companion_header)
{
    FileAnalysis fa;
    fa.path = path;
    fa.hash = contentHash(content);

    const std::vector<Token> tokens = lex(content);
    const std::vector<Token> code = codeView(tokens);

    SuppressionTable table;
    parseSuppressions(path, tokens, table, fa.findings);

    if (!determinismAllowlisted(path))
        ruleDetRandom(path, code, fa.findings);

    const Outline outline = parseOutline(tokens);

    if (underSrc(path)) {
        std::set<std::string> names;
        std::set<std::string> aliases;
        collectUnorderedDecls(code, names, aliases);
        if (companion_header != nullptr)
            collectUnorderedDecls(codeView(lex(*companion_header)), names,
                                  aliases);
        ruleUnorderedIter(path, code, names, fa.findings);

        ruleContractAssert(path, code, fa.findings);
        if (!isCheckImpl(path))
            ruleContractAbort(path, code, fa.findings);
        ruleMetricName(path, code, fa.findings);

        ruleMutableGlobal(path, outline, fa.findings);
        if (!floatReduceExempt(path))
            ruleFloatReduceOrder(path, code, fa.findings);
    }

    // The lock-set pass runs everywhere (the annotation model is only
    // visible where the macros are used, so it is silent elsewhere);
    // the manual-call discipline is project law for src/ only.
    {
        Outline companion_outline;
        if (companion_header != nullptr)
            companion_outline = parseOutline(lex(*companion_header));
        analyzeLocks(path, tokens, outline,
                     companion_header != nullptr ? &companion_outline
                                                 : nullptr,
                     underSrc(path), fa.findings, fa.lock_edges);
    }

    if (!isParallelModule(path))
        ruleThreadRaw(path, code, fa.findings);

    if (isPublicHeader(path))
        rulePragmaOnce(path, tokens, fa.findings);
    if (isHeader(path))
        ruleUsingNamespace(path, code, fa.findings);

    std::sort(fa.findings.begin(), fa.findings.end());

    fa.suppressions.assign(table.allowed.begin(), table.allowed.end());
    fa.includes = extractIncludes(tokens);

    fa.declared = declaredNames(outline);
    for (const Decl &d : outline.decls)
        if (d.kind == DeclKind::Function &&
            d.name.rfind("operator", 0) == 0)
            fa.declares_operator = true;

    // The used-name index: every identifier in the code view, plus
    // identifier-shaped words inside preprocessor directives so macro
    // uses in #if/#ifdef and nested #defines still count.
    std::set<std::string> used;
    for (const Token &t : tokens) {
        if (t.kind == TokenKind::Identifier) {
            used.insert(t.text);
        } else if (t.kind == TokenKind::PpDirective) {
            // #include paths would make every include self-justifying;
            // only non-include directives contribute used names.
            const std::size_t d = t.text.find_first_not_of(" \t", 1);
            if (d != std::string::npos &&
                t.text.compare(d, 7, "include") == 0)
                continue;
            std::string word;
            for (std::size_t i = 0; i <= t.text.size(); ++i) {
                const char ch = i < t.text.size() ? t.text[i] : ' ';
                if (std::isalnum(static_cast<unsigned char>(ch)) ||
                    ch == '_') {
                    word.push_back(ch);
                } else {
                    if (!word.empty() &&
                        !std::isdigit(
                            static_cast<unsigned char>(word[0])))
                        used.insert(word);
                    word.clear();
                }
            }
        }
    }
    fa.used.assign(used.begin(), used.end());
    return fa;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content,
           const std::string *companion_header)
{
    FileAnalysis fa = analyzeSource(path, content, companion_header);
    const std::set<std::pair<int, std::string>> allowed(
        fa.suppressions.begin(), fa.suppressions.end());

    std::vector<Finding> findings;
    for (Finding &f : fa.findings)
        if (allowed.count({f.line, f.rule}) == 0)
            findings.push_back(std::move(f));
    std::sort(findings.begin(), findings.end());
    return findings;
}

std::string
renderHuman(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    for (const Finding &f : findings)
        os << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
           << "\n";
    return os.str();
}

std::string
renderJson(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    os << "{\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i == 0 ? "" : ",") << "\n    {\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << jsonEscape(f.rule)
           << "\", \"message\": \"" << jsonEscape(f.message) << "\"}";
    }
    if (!findings.empty())
        os << "\n  ";
    os << "],\n  \"count\": " << findings.size() << "\n}\n";
    return os.str();
}

} // namespace aiwc::lint
