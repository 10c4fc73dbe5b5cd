/**
 * @file
 * aiwc-lint v3: the static concurrency model.
 *
 * Clang's -Wthread-safety owns the per-access and per-call checks
 * (AIWC_GUARDED_BY, AIWC_REQUIRES at call sites, AIWC_EXCLUDES). This
 * pass checks what clang cannot: the whole-program acquisition order,
 * and manual calls on libstdc++ mutexes that carry no annotations.
 * Three layers:
 *
 *  1. A per-function *lock-set analysis* (analyzeLocks). Walking each
 *     function body's token range, it tracks RAII guard scopes
 *     (std::lock_guard / std::scoped_lock / std::unique_lock and the
 *     project's aiwc::MutexLock / MutexLock2), including
 *     std::defer_lock / std::adopt_lock tags and explicit
 *     .lock()/.unlock() calls *on the guard object*. The function's
 *     AIWC_REQUIRES contract seeds the entry lock-set; annotations on
 *     out-of-line definitions resolve through the companion-header
 *     outline. One per-file rule reads the guard state:
 *       - lock-discipline   manual mutex calls, deferred guards never
 *                           locked, double-locked / not-held guards
 *
 *  2. A per-file *lock-order contribution*: every acquisition made
 *     while another resolved lock is held emits an observed LockEdge;
 *     AIWC_ACQUIRED_BEFORE annotations emit declared ones.
 *
 *  3. A whole-program *lock-order graph* (checkLockOrder): the union
 *     of all files' edges and the checked-in tools/aiwc-lint/locks.txt
 *     spec. Any cycle — including an observed acquisition that runs
 *     against the declared order — is a lock-order-cycle finding with
 *     the full witness path, each hop labeled with its provenance.
 *
 * Like every aiwc-lint rule this is a heuristic over tokens, not a
 * points-to analysis: lock identity inside a function is the final
 * identifier of the lock expression (`other.mutex_` and `mutex_` are
 * the same *order-graph node* but distinct dynamic locks — which is
 * exactly the granularity a static order check wants), and graph nodes
 * are "Class::field" names resolved against the known mutex-typed
 * fields. What cannot be resolved is skipped, never guessed.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "outline.hh"
#include "rules.hh"

namespace aiwc::lint
{

/**
 * The lock-order spec parsed from tools/aiwc-lint/locks.txt:
 *
 *     # comment
 *     lock <alias> <Class::field>
 *     order <alias-held-first> <alias-acquired-second>
 *
 * Aliases are file-local names for graph nodes; `order` edges join the
 * observed edges in one graph, so an acquisition that contradicts the
 * declared order closes a cycle and is reported as one.
 */
struct LockSpec {
    struct Order {
        std::string from;  //!< node name (resolved from alias)
        std::string to;
        int line = 0;      //!< locks.txt line of the order directive
    };

    std::map<std::string, std::string> locks;  //!< alias -> Class::field
    std::vector<Order> orders;

    /** Parse the spec text; returns false and sets `error` on failure. */
    static bool parse(const std::string &text, LockSpec &out,
                      std::string &error);
};

/**
 * Run the lock-set pass over one file. `tokens` is the *raw* lexer
 * output (function body ranges recorded by the outline index into it);
 * `outline` is this file's outline and `companion` the module header's
 * (nullptr when there is none). `discipline` gates the lock-discipline
 * findings (project law applies to src/ only); lock-order edges are
 * always produced.
 */
void analyzeLocks(const std::string &path, const std::vector<Token> &tokens,
                  const Outline &outline, const Outline *companion,
                  bool discipline, std::vector<Finding> &findings,
                  std::vector<LockEdge> &edges);

/**
 * Whole-program lock-order check: merge every record's lock edges with
 * the spec (`spec` may be nullptr when no locks.txt exists) and report
 * each cycle once as a lock-order-cycle finding. Findings anchor at
 * the first observed edge's file:line when the cycle contains one, and
 * at `spec_path` otherwise.
 */
void checkLockOrder(const std::vector<const FileAnalysis *> &records,
                    const LockSpec *spec, const std::string &spec_path,
                    std::vector<Finding> &out);

} // namespace aiwc::lint
