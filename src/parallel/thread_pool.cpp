#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dirant::par {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    DIRANT_ASSERT_MSG(!stopping_, "submit on stopping pool");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

namespace {

constexpr std::uint64_t kClaimIndexMask = 0xffffffffu;

int claim_index(std::uint64_t claim) {
  return static_cast<int>(claim & kClaimIndexMask);
}

}  // namespace

void ThreadPool::run_job(void (*fn)(void*, int), void* ctx, int count) {
  if (count <= 0) return;
  std::uint32_t gen;
  {
    std::lock_guard lock(mu_);
    DIRANT_ASSERT_MSG(!stopping_, "run_job on stopping pool");
    DIRANT_ASSERT_MSG(job_fn_ == nullptr, "nested run_job on one pool");
    job_fn_ = fn;
    job_ctx_ = ctx;
    job_count_ = count;
    job_remaining_ = count;
    gen = ++job_gen_;
    job_claim_.store(static_cast<std::uint64_t>(gen) << 32,
                     std::memory_order_relaxed);
  }
  cv_task_.notify_all();
  // The calling thread claims indices too: a busy or single-worker pool
  // still makes progress, and the common case finishes without a context
  // switch when the job is smaller than the worker count.
  const int mine = drain_job(fn, ctx, count, gen);
  std::unique_lock lock(mu_);
  if ((job_remaining_ -= mine) > 0) {
    cv_idle_.wait(lock, [this] { return job_remaining_ == 0; });
  }
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
  job_count_ = 0;
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void ThreadPool::set_claim_stall_for_testing(void (*hook)()) {
  std::lock_guard lock(mu_);
  claim_stall_ = hook;
}

int ThreadPool::drain_job(void (*fn)(void*, int), void* ctx, int count,
                          std::uint32_t gen) {
  int done = 0;
  std::uint64_t claim = job_claim_.load(std::memory_order_relaxed);
  while (true) {
    if (static_cast<std::uint32_t>(claim >> 32) != gen) return done;
    const int i = claim_index(claim);
    if (i >= count) return done;
    if (!job_claim_.compare_exchange_weak(claim, claim + 1,
                                          std::memory_order_relaxed)) {
      continue;  // `claim` now holds the current value
    }
    try {
      fn(ctx, i);
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    ++done;
    claim = job_claim_.load(std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      const auto job_open = [this] {
        return job_fn_ != nullptr &&
               claim_index(job_claim_.load(std::memory_order_relaxed)) <
                   job_count_;
      };
      cv_task_.wait(lock, [&] {
        return stopping_ || !queue_.empty() || job_open();
      });
      if (job_open()) {
        // Copy the job under the lock; the claims below check that it is
        // still the current one.  While it is, job_remaining_ cannot reach
        // zero before this worker reports, so the copy stays live.
        auto* fn = job_fn_;
        void* ctx = job_ctx_;
        const int count = job_count_;
        const std::uint32_t gen = job_gen_;
        auto* stall = claim_stall_;
        lock.unlock();
        if (stall != nullptr) stall();
        const int done = drain_job(fn, ctx, count, gen);
        lock.lock();
        if (done > 0 && (job_remaining_ -= done) == 0) {
          cv_idle_.notify_all();
        }
        continue;
      }
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

int ensure_pool(std::unique_ptr<ThreadPool>& pool, int threads) {
  threads = std::max(1, threads);
  if (threads <= 1) {
    pool.reset();
  } else if (!pool || pool->thread_count() != static_cast<unsigned>(threads)) {
    pool = std::make_unique<ThreadPool>(static_cast<unsigned>(threads));
  }
  return threads;
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t min_chunk) {
  if (begin >= end) return;
  auto& pool = global_pool();
  const std::int64_t n = end - begin;
  const std::int64_t chunks =
      std::min<std::int64_t>(4 * pool.thread_count(),
                             std::max<std::int64_t>(1, n / std::max<std::int64_t>(1, min_chunk)));
  const std::int64_t step = (n + chunks - 1) / chunks;
  for (std::int64_t lo = begin; lo < end; lo += step) {
    const std::int64_t hi = std::min(end, lo + step);
    pool.submit([lo, hi, &fn] {
      for (std::int64_t i = lo; i < hi; ++i) fn(i);
    });
  }
  pool.wait_idle();
}

}  // namespace dirant::par
