#pragma once

// Compile-time concurrency verification (DESIGN.md §13).
//
// Two layers, both zero-cost in Release builds:
//
//  1. Clang Thread Safety Analysis attributes (Hutchins et al., "C/C++
//     Thread Safety Analysis").  Every piece of cross-thread shared
//     state in src/ is declared SF_GUARDED_BY its mutex, every helper
//     that expects the lock held is SF_REQUIRES it, and the clang build
//     (CI job `static-analysis`) runs with -Werror=thread-safety, so a
//     lock-scope mistake is a compile error, not a TSan lottery ticket.
//     Under GCC the attributes expand to nothing.
//
//  2. A lock-order registry.  Every sf::Mutex is constructed with a
//     LockRank; a thread may only acquire a mutex of strictly greater
//     rank than any it already holds.  The ordering is enforced two
//     ways: statically by tools/lint/check_lock_order.py, which builds
//     the acquisition graph from SF_REQUIRES/scoped-lock sites and
//     fails on cycles or rank inversions, and dynamically (Debug /
//     SF_CHECK_INVARIANTS builds only) by a per-thread held-rank stack
//     that throws std::logic_error on the first out-of-order lock().
//
// Locking discipline: shared state takes an sf::Mutex (never a raw
// std::mutex — check_lock_order.py rejects those in src/), is locked
// with sf::MutexLock (never std::lock_guard / std::unique_lock, which
// the analysis cannot see through), and waits on sf::CondVar.  State
// that is *thread-confined* rather than locked (per-rank caches, the
// sequential service epoch structures) is guarded by an sf::ThreadChecker
// capability instead: methods open with serial_.assert_held() and the
// members are SF_GUARDED_BY(serial_), so any new code path that touches
// the state without restating the confinement claim fails the analysis.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if SF_CHECK_INVARIANTS
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>
#endif

// ---------------------------------------------------------------------------
// Attribute macros (clang-only; no-ops elsewhere)
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SF_THREAD_ANNOTATION
#define SF_THREAD_ANNOTATION(x)  // not clang: attributes compile away
#endif

// On types: this class is a capability (a mutex, a thread role).
#define SF_CAPABILITY(x) SF_THREAD_ANNOTATION(capability(x))
// On types: RAII object that acquires in its ctor, releases in its dtor.
#define SF_SCOPED_CAPABILITY SF_THREAD_ANNOTATION(scoped_lockable)

// On data members: may only be read/written while holding the capability.
#define SF_GUARDED_BY(x) SF_THREAD_ANNOTATION(guarded_by(x))
// On pointer members: the *pointee* is guarded by the capability.
#define SF_PT_GUARDED_BY(x) SF_THREAD_ANNOTATION(pt_guarded_by(x))

// On mutex declarations: documents the acquisition order between two
// mutexes (the in-language half of the lock-order registry).
#define SF_ACQUIRED_BEFORE(...) SF_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SF_ACQUIRED_AFTER(...) SF_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// On functions: caller must hold the capability (exclusively / shared).
#define SF_REQUIRES(...) SF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SF_REQUIRES_SHARED(...) \
  SF_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// On functions: acquires / releases the capability.
#define SF_ACQUIRE(...) SF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SF_ACQUIRE_SHARED(...) \
  SF_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define SF_RELEASE(...) SF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SF_RELEASE_SHARED(...) \
  SF_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define SF_TRY_ACQUIRE(...) \
  SF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// On functions: caller must NOT hold the capability (deadlock guard).
#define SF_EXCLUDES(...) SF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On functions: asserts (rather than acquires) that the capability is
// held — the escape hatch for thread-confined state, where "holding"
// means "running on the owning thread", not "holding a lock".
#define SF_ASSERT_CAPABILITY(...) \
  SF_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))

// On functions returning a reference to a capability.
#define SF_RETURN_CAPABILITY(x) SF_THREAD_ANNOTATION(lock_returned(x))

// Last resort; every use needs a comment explaining why the analysis
// cannot see the invariant (DESIGN.md §13 waiver policy).
#define SF_NO_THREAD_SAFETY_ANALYSIS \
  SF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sf {

// ---------------------------------------------------------------------------
// Lock-order registry
// ---------------------------------------------------------------------------

// Global acquisition order for every sf::Mutex in src/.  A thread may
// acquire a mutex only if its rank is strictly greater than the rank of
// every sf::Mutex it already holds (so two mutexes of the same rank can
// never nest).  tools/lint/check_lock_order.py parses this enum and the
// Mutex declarations and rejects acquisition edges that run against it;
// Debug builds also enforce it at runtime (first violation throws).
//
// Keep the values sparse so a new subsystem can slot between existing
// ranks without renumbering.
enum class LockRank : int {
  kUnranked = -1,   // exempt from ordering (tests, fixtures only)
  kCancelSet = 10,  // QueryCancelSet — service control plane -> tracer
  kQueryBoard = 20,  // QueryBoard per-query termination board (rank_host)
  kFailureBoard = 30,  // ThreadRuntime first-failure slot
  kMailbox = 40,    // per-rank Context mailboxes
  kLoader = 50,     // AsyncBlockLoader queues + entry map
  kTraceBlocks = 55,  // trace_all's shared block memo (fetches take
                      // kDataset inside it)
  kDataset = 60,    // BlockedDataset lazy block memoization
  kChecker = 70,    // InvariantChecker global model (leaf: its hooks
                    // must be called with no other sf::Mutex held)
};

#if SF_CHECK_INVARIANTS
namespace detail {
// Ranks of the sf::Mutexes this thread currently holds, in acquisition
// order.  Only ranked mutexes participate.
inline thread_local std::vector<int> held_lock_ranks;
}  // namespace detail
#endif

// std::mutex wrapper the thread-safety analysis can see (CAPABILITY), a
// node in the lock-order registry, and — in Debug builds — a runtime
// rank-order assertion on every acquisition.
class SF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(static_cast<int>(rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SF_ACQUIRE() {
    check_order();
    mu_.lock();
    note_acquired();
  }

  void unlock() SF_RELEASE() {
    note_released();
    mu_.unlock();
  }

  bool try_lock() SF_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    note_acquired();
    return true;
  }

  int rank() const { return rank_; }

 private:
  friend class CondVar;

#if SF_CHECK_INVARIANTS
  void check_order() const {
    if (rank_ < 0) return;
    for (int held : detail::held_lock_ranks) {
      if (held >= rank_) {
        throw std::logic_error(
            "lock-order violation: acquiring sf::Mutex rank " +
            std::to_string(rank_) + " while holding rank " +
            std::to_string(held) +
            " (see LockRank in core/thread_annotations.hpp)");
      }
    }
  }
  void note_acquired() {
    if (rank_ >= 0) detail::held_lock_ranks.push_back(rank_);
  }
  void note_released() {
    if (rank_ < 0) return;
    auto& held = detail::held_lock_ranks;
    auto it = std::find(held.rbegin(), held.rend(), rank_);
    if (it != held.rend()) held.erase(std::next(it).base());
  }
#else
  void check_order() const {}
  void note_acquired() {}
  void note_released() {}
#endif

  std::mutex mu_;
  int rank_ = static_cast<int>(LockRank::kUnranked);
};

// Scoped locker for sf::Mutex — the only way annotated code takes a
// lock (std::lock_guard over sf::Mutex would compile but blinds the
// analysis; check_lock_order.py flags it).
class SF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to sf::Mutex.  Waits are annotated
// SF_REQUIRES(mu): the analysis treats the lock as held across the wait
// (the internal release/reacquire is invisible, which is the standard
// contract — guarded state must be re-checked after every wake anyway).
// Deliberately no predicate overloads: a predicate lambda reading
// guarded state is analyzed out of context and trips the analysis, so
// callers write the while-loop themselves.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) SF_REQUIRES(mu) {
    // Adopt the already-held mutex, let the condvar release/reacquire
    // it, then relinquish ownership back to the caller's scope.  The
    // held-rank stack is left untouched: the thread is blocked for the
    // whole window in which the lock is logically released, so it can
    // acquire nothing out of order meanwhile.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& dur)
      SF_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, dur);
    lock.release();
    return status;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Capability token for *thread-confined* state (Chromium's
// SEQUENCE_CHECKER pattern): data owned by one logical thread at a time
// — a rank's BlockCache, the service's sequential epoch structures —
// with ownership handed off only at quiescent points (before threads
// launch / after they join).  Members are declared
// SF_GUARDED_BY(serial_) and every public method opens with
// serial_.assert_held(), which satisfies the analysis for the method
// body; private helpers take SF_REQUIRES(serial_) so they cannot be
// called from a context that skipped the claim.  Purely compile-time:
// the runtime cross-thread cases are TSan's job (CI `tsan`).
class SF_CAPABILITY("thread role") ThreadChecker {
 public:
  void assert_held() const SF_ASSERT_CAPABILITY() {}
};

}  // namespace sf
