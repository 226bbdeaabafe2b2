// ThreadPool::run_job claims: a worker copies a job's description under the
// pool lock and claims indices after releasing it.  If that job finishes in
// between and the next one is installed, the stale copy must not claim the
// new job's indices (running them with the old body and reporting them
// against the new job's count).  The claim-stall seam makes that window
// deterministic.  scripts/check.sh also runs this suite under tsan.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace par = dirant::par;

namespace {

using Clock = std::chrono::steady_clock;

// Spin (yielding) until `ready()` holds or `limit` passes.
template <class F>
bool wait_for(F&& ready, std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  while (!ready()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The seam is a plain function pointer, so its state is global.
std::atomic<int> g_stall_calls{0};
std::atomic<bool> g_stalled{false};
std::atomic<bool> g_release{false};

// Stall only the first claim: hold the worker between its copy of the job
// and its first claim until the test releases it.
void stall_first_claim() {
  if (g_stall_calls.fetch_add(1) != 0) return;
  g_stalled = true;
  wait_for([] { return g_release.load(); }, std::chrono::seconds(10));
}

struct Job {
  std::array<std::atomic<int>, 2> runs{};
  void (*on_index)(Job&, int) = nullptr;
  Job* other = nullptr;
};

void run_index(void* ctx, int i) {
  Job& job = *static_cast<Job*>(ctx);
  if (job.on_index != nullptr) job.on_index(job, i);
  ++job.runs[i];
}

}  // namespace

TEST(ThreadPool, StaleWorkerDoesNotClaimTheNextJob) {
  g_stall_calls = 0;
  g_stalled = false;
  g_release = false;
  par::ThreadPool pool(1);
  pool.set_claim_stall_for_testing(&stall_first_claim);

  // Job A: the caller runs index 0 and holds it until the worker has
  // copied job A and stalled before claiming; then the caller runs index 1
  // too, so job A is complete while the worker still holds its copy.
  Job a;
  a.on_index = [](Job&, int i) {
    if (i == 0) {
      EXPECT_TRUE(
          wait_for([] { return g_stalled.load(); }, std::chrono::seconds(10)));
    }
  };
  pool.run_job(&run_index, &a, 2);

  // Job B: the caller takes index 0, releases the stale worker, and waits
  // until index 1 has run somewhere — or until job A's body runs a third
  // time, which is the fault.
  Job b;
  b.other = &a;
  b.on_index = [](Job& self, int i) {
    if (i != 0) return;
    g_release = true;
    wait_for(
        [&] { return self.runs[1].load() > 0 || self.other->runs[0] +
                                                        self.other->runs[1] >
                                                    2; },
        std::chrono::seconds(5));
  };
  pool.run_job(&run_index, &b, 2);

  EXPECT_EQ(a.runs[0].load(), 1);
  EXPECT_EQ(a.runs[1].load(), 1);
  EXPECT_EQ(b.runs[0].load(), 1);
  EXPECT_EQ(b.runs[1].load(), 1);
  EXPECT_GE(g_stall_calls.load(), 1);
  pool.set_claim_stall_for_testing(nullptr);
}

TEST(ThreadPool, BackToBackTinyJobsRunEachIndexOnce) {
  // Jobs of 1-8 indices back to back keep workers waking into jobs that are
  // already over: each index must still run exactly once, under its own job.
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(8);
  for (int round = 0; round < 3000; ++round) {
    const int count = 1 + round % 8;
    for (auto& h : hits) h = 0;
    struct Ctx {
      std::vector<std::atomic<int>>* hits;
      int count;
    } ctx{&hits, count};
    pool.run_job(
        [](void* c, int i) {
          auto& x = *static_cast<Ctx*>(c);
          ASSERT_LT(i, x.count);
          ++(*x.hits)[i];
        },
        &ctx, count);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(hits[i].load(), i < count ? 1 : 0) << "round " << round;
    }
  }
}
