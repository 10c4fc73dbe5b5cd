// Annotated mutex, RAII lock, and condition variable.
//
// Thin wrappers over the std primitives that carry the capability
// annotations from thread_annotations.hh, so clang's -Wthread-safety
// can reason about lock scopes (libstdc++'s std::mutex and
// std::lock_guard are unannotated and invisible to it). aiwc-lint's
// lock-order graph recognizes MutexLock/MutexLock2 alongside the std
// guards, and its lock-discipline rule covers the unannotated std
// mutexes clang cannot see.
//
// The project-law lock-discipline rule bans manual .lock()/.unlock()
// calls in src/; the implementations here are the one sanctioned
// boundary where the RAII types meet the raw primitive.
#pragma once

#include <condition_variable>
#include <mutex>

#include "aiwc/base/thread_annotations.hh"

namespace aiwc {

class CondVar;

// A standard-layout exclusive mutex carrying the "mutex" capability.
class AIWC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() AIWC_ACQUIRE() {
    mu_.lock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: Mutex forwards to the std primitive.
  }
  void unlock() AIWC_RELEASE() {
    mu_.unlock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: Mutex forwards to the std primitive.
  }
  bool try_lock() AIWC_TRY_ACQUIRE(true) {
    return mu_.try_lock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: Mutex forwards to the std primitive.
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scope holding one Mutex for its lifetime (std::lock_guard
// shape, visible to both static checkers).
class AIWC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex &m) AIWC_ACQUIRE(m) : mu_(m) {
    mu_.lock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: the guard itself drives the mutex.
  }
  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;
  ~MutexLock() AIWC_RELEASE() {
    mu_.unlock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: the guard itself drives the mutex.
  }

 private:
  Mutex &mu_;
};

// RAII scope holding two Mutexes, acquired deadlock-free via
// std::lock (std::scoped_lock shape). Used by the symmetric two-object
// operations (StreamPipeline::merge and assignment); note the
// deadlock-avoidance is dynamic, so same-class self-edges are exempt
// from the static lock-order graph (see tools/aiwc-lint/locks.txt).
class AIWC_SCOPED_CAPABILITY MutexLock2 {
 public:
  MutexLock2(Mutex &a, Mutex &b) AIWC_ACQUIRE(a, b) : a_(a), b_(b) {
    std::lock(a_, b_);
  }
  MutexLock2(const MutexLock2 &) = delete;
  MutexLock2 &operator=(const MutexLock2 &) = delete;
  ~MutexLock2() AIWC_RELEASE() {
    a_.unlock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: the guard itself drives the mutex.
    b_.unlock();  // aiwc-lint: allow(lock-discipline) -- RAII/raw boundary: the guard itself drives the mutex.
  }

 private:
  Mutex &a_;
  Mutex &b_;
};

// Condition variable bound to Mutex. wait() REQUIRES the mutex, so
// clang keeps the caller's lock-set coherent across the wait; the
// predicate re-check must be an explicit while loop at the call site
// (a predicate lambda would be analyzed as an unannotated function).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  void wait(Mutex &m) AIWC_REQUIRES(m) { cv_.wait(m.mu_); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace aiwc
