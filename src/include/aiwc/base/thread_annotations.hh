// Capability annotation macros for static thread-safety analysis.
//
// Under clang these expand to the thread-safety attributes that power
// -Wthread-safety; the clang CI leg owns every per-access and per-call
// check (GUARDED_BY, REQUIRES, EXCLUDES). Under every other compiler
// they expand to nothing. aiwc-lint reads AIWC_REQUIRES and
// AIWC_ACQUIRED_BEFORE from source for the one thing clang cannot
// check, the whole-program lock-order graph (lock-order-cycle).
//
// Style guide (see CONTRIBUTING.md "Concurrency annotations"):
//   - Every mutex-protected member is AIWC_GUARDED_BY(its mutex).
//   - Private helpers called only under a lock are AIWC_REQUIRES(it).
//   - Cross-mutex acquisition order is declared with
//     AIWC_ACQUIRED_BEFORE on the outer mutex and mirrored in
//     tools/aiwc-lint/locks.txt, the machine-checked source of truth.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define AIWC_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef AIWC_THREAD_ANNOTATION
#define AIWC_THREAD_ANNOTATION(x)
#endif

// Type annotations: a capability (mutex-like) type and an RAII scope
// that acquires one.
#define AIWC_CAPABILITY(name) AIWC_THREAD_ANNOTATION(capability(name))
#define AIWC_SCOPED_CAPABILITY AIWC_THREAD_ANNOTATION(scoped_lockable)

// Member annotations.
#define AIWC_GUARDED_BY(m) AIWC_THREAD_ANNOTATION(guarded_by(m))
#define AIWC_PT_GUARDED_BY(m) AIWC_THREAD_ANNOTATION(pt_guarded_by(m))
#define AIWC_ACQUIRED_BEFORE(...) \
  AIWC_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define AIWC_ACQUIRED_AFTER(...) \
  AIWC_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function annotations.
#define AIWC_REQUIRES(...) \
  AIWC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define AIWC_EXCLUDES(...) AIWC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define AIWC_ACQUIRE(...) \
  AIWC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define AIWC_RELEASE(...) \
  AIWC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define AIWC_TRY_ACQUIRE(...) \
  AIWC_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define AIWC_RETURN_CAPABILITY(m) AIWC_THREAD_ANNOTATION(lock_returned(m))

// Escape hatch: disables the clang analysis for one function. Pair it
// with an aiwc-lint suppression and a written invariant — both
// checkers should be silenced deliberately or not at all.
#define AIWC_NO_THREAD_SAFETY_ANALYSIS \
  AIWC_THREAD_ANNOTATION(no_thread_safety_analysis)
