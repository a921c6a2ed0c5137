#ifndef BG3_COMMON_THREAD_ANNOTATIONS_H_
#define BG3_COMMON_THREAD_ANNOTATIONS_H_

#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.h"

/// Clang thread-safety-analysis attribute macros plus annotated mutex
/// wrappers. Building with Clang and -Wthread-safety (see the
/// BG3_THREAD_SAFETY_ANALYSIS CMake option) turns lock-discipline
/// violations — touching a BG3_GUARDED_BY member without its mutex, calling
/// a BG3_REQUIRES function unlocked, releasing a mutex twice — into compile
/// warnings (errors under BG3_WERROR). Under GCC the attributes expand to
/// nothing and the wrappers behave exactly like the std types they wrap.
///
/// Usage conventions in this codebase:
///  - members protected by a mutex are declared BG3_GUARDED_BY(mu_);
///  - `...Locked()` methods are declared BG3_REQUIRES(mu_) (or, for
///    per-page latches, BG3_REQUIRES(leaf->latch));
///  - scoped locking prefers MutexLock / ReaderMutexLock / WriterMutexLock,
///    which the analysis tracks natively;
///  - code that must hand a held lock around (std::unique_lock idiom, e.g.
///    BwTree::FindAndLatchLeaf) calls Mutex::AssertHeld() right after the
///    acquisition the analysis cannot see.

#if defined(__clang__)
#define BG3_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define BG3_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define BG3_CAPABILITY(x) BG3_THREAD_ANNOTATION(capability(x))
#define BG3_SCOPED_CAPABILITY BG3_THREAD_ANNOTATION(scoped_lockable)

#define BG3_GUARDED_BY(x) BG3_THREAD_ANNOTATION(guarded_by(x))
#define BG3_PT_GUARDED_BY(x) BG3_THREAD_ANNOTATION(pt_guarded_by(x))

#define BG3_ACQUIRED_BEFORE(...) \
  BG3_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define BG3_ACQUIRED_AFTER(...) \
  BG3_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define BG3_REQUIRES(...) \
  BG3_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define BG3_REQUIRES_SHARED(...) \
  BG3_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

#define BG3_ACQUIRE(...) BG3_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define BG3_ACQUIRE_SHARED(...) \
  BG3_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define BG3_RELEASE(...) BG3_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define BG3_RELEASE_SHARED(...) \
  BG3_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define BG3_RELEASE_GENERIC(...) \
  BG3_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

#define BG3_TRY_ACQUIRE(...) \
  BG3_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define BG3_TRY_ACQUIRE_SHARED(...) \
  BG3_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

#define BG3_EXCLUDES(...) BG3_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define BG3_ASSERT_CAPABILITY(x) BG3_THREAD_ANNOTATION(assert_capability(x))
#define BG3_ASSERT_SHARED_CAPABILITY(x) \
  BG3_THREAD_ANNOTATION(assert_shared_capability(x))

#define BG3_RETURN_CAPABILITY(x) BG3_THREAD_ANNOTATION(lock_returned(x))

#define BG3_NO_THREAD_SAFETY_ANALYSIS \
  BG3_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- blocking-discipline annotations (bg3-lint, DESIGN.md §5.6) -------------
//
// BG3_BLOCKING marks a function that can stall the calling thread for an
// unbounded or I/O-scale time: cloud-store RPCs, WAL appends/flushes,
// retry/backoff sleeps, admission-queue waits.
// BG3_NO_BLOCKING is the dual assertion: the function promises never to
// block, and bg3-lint's latch-discipline pass errors if its body (or
// anything it transitively calls) reaches a BG3_BLOCKING function.
//
// The pass's core rule: no path may reach a BG3_BLOCKING call while a
// bg3::Mutex / bg3::SharedMutex capability is held (RAII guard in scope,
// explicit Lock(), or a BG3_REQUIRES precondition). Holding a latch across
// a cloud RPC turns one slow shard into a pile-up of blocked threads — the
// exact failure mode the overload layer (§5.5) exists to prevent.
//
// Under Clang the markers also emit `annotate` attributes so AST tooling
// can read them; under GCC they expand to nothing. Either way bg3-lint's
// text frontend recognizes the literal tokens in the declaration.
#if defined(__clang__)
#define BG3_BLOCKING __attribute__((annotate("bg3_blocking")))
#define BG3_NO_BLOCKING __attribute__((annotate("bg3_no_blocking")))
#else
#define BG3_BLOCKING     // recognized textually by bg3-lint
#define BG3_NO_BLOCKING  // recognized textually by bg3-lint
#endif

namespace bg3 {

/// std::mutex with thread-safety annotations. Exposes both the annotated
/// CamelCase interface and the std BasicLockable one, so std::unique_lock /
/// std::lock_guard over a bg3::Mutex still compile (the analysis cannot see
/// through std lock holders; pair them with AssertHeld()).
class BG3_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Enrolls this mutex in debug-build lock-rank checking (see
  /// common/lock_rank.h; ranks come from the generated lock_rank_gen.h).
  /// Call once, from the owning object's constructor, before concurrent
  /// use. `name` must outlive the mutex (string literal).
  void SetRank(int rank, const char* name) {
    rank_ = rank;
    name_ = name;
  }

  void Lock() BG3_ACQUIRE() {
    lock_rank::NoteAcquire(rank_, name_);
    mu_.lock();
  }
  void Unlock() BG3_RELEASE() {
    mu_.unlock();
    lock_rank::NoteRelease(rank_);
  }
  bool TryLock() BG3_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::NoteTryAcquire(rank_, name_);
    return true;
  }

  // BasicLockable / Lockable, for std lock holders.
  void lock() BG3_ACQUIRE() {
    lock_rank::NoteAcquire(rank_, name_);
    mu_.lock();
  }
  void unlock() BG3_RELEASE() {
    mu_.unlock();
    lock_rank::NoteRelease(rank_);
  }
  bool try_lock() BG3_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::NoteTryAcquire(rank_, name_);
    return true;
  }

  /// Declares to the analysis that the calling thread already holds this
  /// mutex (acquired through a path it cannot track). No runtime effect.
  void AssertHeld() const BG3_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
  int rank_ = lock_rank::kUnranked;
  const char* name_ = "Mutex";
};

/// std::shared_mutex with thread-safety annotations (same dual interface).
class BG3_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  /// Same contract as Mutex::SetRank; shared and exclusive acquisitions
  /// of a SharedMutex check the same rank.
  void SetRank(int rank, const char* name) {
    rank_ = rank;
    name_ = name;
  }

  void Lock() BG3_ACQUIRE() {
    lock_rank::NoteAcquire(rank_, name_);
    mu_.lock();
  }
  void Unlock() BG3_RELEASE() {
    mu_.unlock();
    lock_rank::NoteRelease(rank_);
  }
  bool TryLock() BG3_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::NoteTryAcquire(rank_, name_);
    return true;
  }
  void ReaderLock() BG3_ACQUIRE_SHARED() {
    lock_rank::NoteAcquire(rank_, name_);
    mu_.lock_shared();
  }
  void ReaderUnlock() BG3_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank::NoteRelease(rank_);
  }

  // std compatibility (std::shared_lock / std::unique_lock).
  void lock() BG3_ACQUIRE() {
    lock_rank::NoteAcquire(rank_, name_);
    mu_.lock();
  }
  void unlock() BG3_RELEASE() {
    mu_.unlock();
    lock_rank::NoteRelease(rank_);
  }
  bool try_lock() BG3_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::NoteTryAcquire(rank_, name_);
    return true;
  }
  void lock_shared() BG3_ACQUIRE_SHARED() {
    lock_rank::NoteAcquire(rank_, name_);
    mu_.lock_shared();
  }
  void unlock_shared() BG3_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_rank::NoteRelease(rank_);
  }
  bool try_lock_shared() BG3_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    lock_rank::NoteTryAcquire(rank_, name_);
    return true;
  }

  void AssertHeld() const BG3_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const BG3_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
  int rank_ = lock_rank::kUnranked;
  const char* name_ = "SharedMutex";
};

/// RAII exclusive lock over a Mutex, tracked by the analysis.
class BG3_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) BG3_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() BG3_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII exclusive lock over a SharedMutex.
class BG3_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) BG3_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() BG3_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class BG3_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) BG3_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() BG3_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

}  // namespace bg3

#endif  // BG3_COMMON_THREAD_ANNOTATIONS_H_
