#include "core/batch.hpp"

#include <chrono>

#include "common/assert.hpp"
#include "core/session.hpp"
#include "parallel/thread_pool.hpp"

namespace dirant::core {

namespace {

using Clock = std::chrono::steady_clock;

void run_one(const std::vector<geom::Point>& pts, const ProblemSpec& spec,
             const BatchOptions& options, PlanSession& session,
             BatchItem& out) {
  const auto t0 = Clock::now();
  out.result = session.orient(pts, spec);  // copy out of the session arena
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (options.certify) {
    // Worker sessions keep their default of one thread: serial,
    // allocation-free certify.
    out.certificate = session.certify(pts, spec);
  }
}

}  // namespace

std::vector<BatchItem> orient_batch(
    std::span<const std::vector<geom::Point>> instances,
    const ProblemSpec& spec, const BatchOptions& options) {
  for (const auto& pts : instances) {
    DIRANT_ASSERT_MSG(!pts.empty(), "empty sensor set in batch");
  }
  std::vector<BatchItem> items(instances.size());
  if (instances.empty()) return items;

  if (!options.parallel || instances.size() == 1) {
    PlanSession session;  // one warm pipeline for the whole run
    for (size_t i = 0; i < instances.size(); ++i) {
      run_one(instances[i], spec, options, session, items[i]);
    }
    return items;
  }

  par::parallel_for(
      0, static_cast<std::int64_t>(instances.size()),
      [&](std::int64_t i) {
        // One session per worker: instances in the same chunk stream
        // through that worker's warm pipeline (EMST scratch, orienter
        // arena, certification buffers), so nothing crosses threads and
        // nothing allocates after each worker's first instance — only the
        // per-item result copy-out touches the heap.
        thread_local PlanSession session;
        run_one(instances[static_cast<size_t>(i)], spec, options, session,
                items[static_cast<size_t>(i)]);
      },
      std::max<std::int64_t>(1, options.min_chunk));
  return items;
}

}  // namespace dirant::core
