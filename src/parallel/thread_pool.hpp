#pragma once
/// \file thread_pool.hpp
/// Minimal fixed-size thread pool plus `parallel_for`, used by the
/// experiment harness to run Monte-Carlo instance sweeps concurrently and by
/// the O(n^2) EMST builder to parallelize its distance scans.
///
/// Design notes (HPC-parallel house style): explicit parallelism with plain
/// std::thread, no detached threads, join-on-destruction (RAII), exceptions
/// from tasks are captured and rethrown on the calling thread.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace dirant::par {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, >= 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task.  Tasks must not enqueue into the same pool and wait.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.  Rethrows the first
  /// captured task exception, if any.
  void wait_idle();

  /// Allocation-free pooled fan-out: runs `fn(ctx, i)` for every i in
  /// [0, count), with workers AND the calling thread claiming indices off a
  /// shared atomic counter.  Unlike `submit`, no per-task closure is heap-
  /// allocated — the job is one function pointer + context installed in a
  /// fixed slot — so the zero-allocation steady-state paths (pooled audits,
  /// the sharded certify build, parallel Borůvka rounds) can fan out
  /// without touching the allocator.  Blocks until every index has run;
  /// rethrows the first captured exception.  One job at a time per pool:
  /// job bodies must not call run_job/submit/wait_idle on the same pool.
  void run_job(void (*fn)(void*, int), void* ctx, int count);

  /// Test seam: a worker calls `hook` after it has copied a job's
  /// description and released the lock, just before its first claim — the
  /// window in which that job can finish and the next one be installed.
  /// Tests use it to stall a worker there; null (the default) skips it.
  void set_claim_stall_for_testing(void (*hook)());

 private:
  void worker_loop();
  /// Claim-and-run loop shared by workers and the run_job caller.  Claims
  /// succeed only while the job generation is still `gen`.  Returns the
  /// number of indices this thread completed.
  int drain_job(void (*fn)(void*, int), void* ctx, int count,
                std::uint32_t gen);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::uint64_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;

  // Fixed run_job slot.  fn/ctx/count/gen are written under mu_ before
  // workers are woken.  A worker copies them under mu_ but claims after
  // unlocking, so by its first claim that job may be over and the next one
  // installed.  Every claim therefore goes through `job_claim_`, which
  // packs (generation << 32 | next index): the CAS fails once the
  // generation moves on, so a stale copy never runs another job's indices
  // nor reports them against that job's `job_remaining_`.
  void (*job_fn_)(void*, int) = nullptr;
  void* job_ctx_ = nullptr;
  int job_count_ = 0;
  std::uint32_t job_gen_ = 0;      ///< current job's generation (under mu_)
  int job_remaining_ = 0;          ///< indices not yet completed (under mu_)
  std::atomic<std::uint64_t> job_claim_{0};  ///< (generation, next index)
  void (*claim_stall_)() = nullptr;          ///< test seam (under mu_)
};

/// Shared process-wide pool (lazily constructed).
ThreadPool& global_pool();

/// Session thread-knob policy, shared by PlanSession::set_threads and
/// AuditSession::set_threads: clamps `threads` to >= 1 and makes `pool`
/// match — reset when serial (<= 1), spawn or resize to exactly that many
/// workers otherwise.  Returns the clamped count.
int ensure_pool(std::unique_ptr<ThreadPool>& pool, int threads);

/// Runs fn(i) for i in [begin, end) across the pool in contiguous chunks.
/// Blocks until complete; rethrows the first task exception.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t min_chunk = 1);

/// Runs `body(i)` for i in [0, count): through `pool->run_job` when the pool
/// can actually run them concurrently, inline otherwise.  The callable is
/// passed by address into a capture-free trampoline, so the pooled fan-out
/// performs zero heap allocations (submit()'s std::function closures do
/// not fit the small-buffer optimisation for multi-capture lambdas).  Both
/// execution modes run the identical body in index order or interleaved —
/// callers own determinism by making each index's work independent.
template <typename F>
void run_indexed(ThreadPool* pool, int count, F&& body) {
  if (pool == nullptr || pool->thread_count() <= 1 || count <= 1) {
    for (int i = 0; i < count; ++i) body(i);
    return;
  }
  using Body = std::remove_reference_t<F>;
  void* ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
  pool->run_job([](void* c, int i) { (*static_cast<Body*>(c))(i); }, ctx,
                count);
}

}  // namespace dirant::par
