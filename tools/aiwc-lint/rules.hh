/**
 * @file
 * aiwc-lint rule engine: the repo's project law, executable.
 *
 * Each rule encodes an invariant the test suite can only check
 * dynamically (and therefore only for the inputs it happens to run):
 *
 *  - det-random          no wall-clock / libc / hardware randomness in
 *                        result-producing code (allowlist: obs/, bench/)
 *  - det-unordered-iter  no range-for or iterator loop over
 *                        std::unordered_map/std::unordered_set in src/ —
 *                        hash order must never reach reports or digests
 *  - contract-assert     src/ uses AIWC_CHECK/AIWC_DCHECK, not assert()
 *  - contract-abort      no abort()/exit() outside base/check.cc
 *  - thread-raw          no std::thread/std::jthread/std::async/.detach()
 *                        outside common/parallel.* — all concurrency goes
 *                        through the deterministic pool
 *  - metric-name         metric names registered in src/ match
 *                        aiwc.<layer>.<thing> (see CONTRIBUTING.md)
 *  - header-pragma-once  every src/include header opens with #pragma once
 *  - header-using-ns     no `using namespace` at namespace scope in headers
 *  - bad-suppression     malformed / reason-less suppression comments
 *
 * v2 adds whole-program rules on top of the outline parser and the
 * include graph (see outline.hh, graph.hh):
 *
 *  - mutable-global      non-const, non-constexpr namespace-scope state
 *                        in src/ — the canonical determinism hazard;
 *                        sanctioned singletons carry suppressions
 *  - lock-discipline     manual .lock()/.unlock() calls; mutexes are
 *                        held via lock_guard/scoped_lock/unique_lock
 *                        construction only
 *  - float-reduce-order  std::accumulate over floating-point data and
 *                        std::reduce outside common/parallel.* and
 *                        sketch/, where merge order is contractually
 *                        pinned
 *  - layer-violation     a direct #include crossing module boundaries
 *                        the layers.txt DAG does not allow
 *  - include-cycle       any #include cycle among project files
 *  - unused-include      a project header none of whose declared names
 *                        appear in the including file (IWYU-lite)
 *
 * v3 adds the whole-program lock-order graph (see locks.hh and
 * aiwc/base/thread_annotations.hh); per-access and per-call checks of
 * the annotations are left to clang's -Wthread-safety:
 *
 *  - lock-order-cycle    a cycle in the whole-program lock-acquisition
 *                        graph (observed nestings + ACQUIRED_BEFORE +
 *                        AIWC_REQUIRES-seeded acquisitions + the
 *                        tools/aiwc-lint/locks.txt spec)
 *
 * Suppression syntax, checked by the engine itself:
 *
 *     // aiwc-lint: allow(<rule>[, <rule>...]) -- <reason>
 *
 * on the offending line or the line directly above it. The reason is
 * mandatory; a suppression without one is itself a finding.
 *
 * Rules are lexer-based heuristics, not semantic analysis: they see
 * tokens, one file at a time (plus the module's public header for
 * declaration context). The bias is deliberate — false positives are
 * cheap to suppress with a written reason; false negatives silently
 * rot the paper's reproducibility story.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph.hh"

namespace aiwc::lint
{

struct Finding {
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    bool operator<(const Finding &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        return message < o.message;
    }
    bool operator==(const Finding &o) const
    {
        return file == o.file && line == o.line && rule == o.rule &&
               message == o.message;
    }
};

/**
 * One observed or declared lock-acquisition ordering: while `from` was
 * held, `to` was acquired (observed in a function body), or the code
 * declared `from` before `to` via AIWC_ACQUIRED_BEFORE. Nodes are
 * "Class::field" names resolved against the file + companion outlines;
 * acquisitions whose mutex cannot be resolved to a unique field emit
 * no edge (the analysis only asserts what it can name). The
 * whole-program lock-order graph (locks.cc) merges these with the
 * locks.txt spec and reports cycles.
 */
struct LockEdge {
    std::string from;
    std::string to;
    int line = 0;          //!< acquisition site (or annotation line)
    bool declared = false; //!< AIWC_ACQUIRED_BEFORE, not an observation
};

/** Names of all rules, sorted — the vocabulary `allow(...)` accepts. */
const std::vector<std::string> &knownRules();

/** One-line description of a rule (SARIF rule metadata). */
const std::string &ruleDescription(const std::string &rule);

/**
 * Everything whole-program analysis needs to know about one file,
 * derivable from its content alone — which is what makes the record
 * cacheable under a content hash. Cross-file rules (layer-violation,
 * include-cycle, unused-include) run over these records each run;
 * only record *construction* is cached.
 */
struct FileAnalysis {
    std::string path;
    std::uint64_t hash = 0;          //!< FNV-1a 64 of the file content
    std::vector<Finding> findings;   //!< per-file rules, pre-suppression
    /** (physical line, rule) pairs valid suppressions cover. */
    std::vector<std::pair<int, std::string>> suppressions;
    std::vector<IncludeEdge> includes;  //!< resolved = "" until resolve
    std::vector<std::string> declared;  //!< top-level names, sorted unique
    std::vector<std::string> used;      //!< identifiers seen, sorted unique
    std::vector<LockEdge> lock_edges;   //!< lock-order graph contribution
    bool declares_operator = false;  //!< header defines operators (IWYU-exempt)
};

/** FNV-1a 64-bit content hash (the incremental cache key). */
std::uint64_t contentHash(const std::string &content);

/**
 * Run the lexer, the outline parser, and every per-file rule over one
 * in-memory source file. The returned record's findings still include
 * suppressed ones — the driver filters after cross-file rules attach
 * their findings, so one suppression table covers both.
 */
FileAnalysis analyzeSource(const std::string &path,
                           const std::string &content,
                           const std::string *companion_header = nullptr);

/**
 * Lint one in-memory source file. `path` (repo-relative, '/'-separated)
 * selects which rules apply; `companion_header`, when given, is lexed
 * for unordered-container member declarations so loops in a .cc over
 * members declared in its module header are still caught. Suppressions
 * are already applied; what returns is reportable.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content,
                                const std::string *companion_header = nullptr);

/** `file:line: rule: message` lines, sorted, one per finding. */
std::string renderHuman(const std::vector<Finding> &findings);

/** Machine-readable report: {"findings":[...],"count":N}. */
std::string renderJson(const std::vector<Finding> &findings);

} // namespace aiwc::lint
