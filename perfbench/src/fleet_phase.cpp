// Fleet phase: repeated core::orient_batch calls with certification on the
// global pool, k = 1..5 across calls.  Traced runs add a serial call per k
// and time each k's orienter alone on a warm serial session.

#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "common/constants.hpp"
#include "core/batch.hpp"
#include "mst/engine.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

core::ProblemSpec fleet_spec(int k) {
  // One Table 1 row per k, none of them the rows plan_200k runs:
  // k=1 pi (one antenna, mid spread), k=2 2pi/3 (Theorem 3.2), k=3..5 at
  // zero spread (Theorems 5 and 6, the folklore k=5 row).
  switch (k) {
    case 1: return {1, dirant::kPi};
    case 2: return {2, 2.0 * dirant::kPi / 3.0};
    default: return {k, 0.0};
  }
}

namespace {

double g_cold_call_ms = -1.0;  ///< the process's first orient_batch call

bool all_certified(const std::vector<core::BatchItem>& items) {
  for (const auto& it : items) {
    if (!certificate_holds(it.certificate)) return false;
  }
  return true;
}

}  // namespace

FleetPhase::FleetPhase(const FleetConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), best_call_ms_(5, 1e300) {
  int idx = 0;
  for (const auto d : geom::kAllDistributions) {
    for (int j = 0; j < cfg_.per_dist; ++j, ++idx) {
      geom::Rng rng(mix_seed(seed, 200 + idx));
      instances_.push_back(geom::make_instance(d, cfg_.n, rng));
    }
  }
  std::vector<core::BatchItem> items;
  const double ms = time_ms([&] {
    items = core::orient_batch(instances_, fleet_spec(1),
                               {.parallel = true, .certify = true});
  });
  if (!all_certified(items)) {
    throw std::runtime_error("fleet set-up: a certificate does not hold");
  }
  if (g_cold_call_ms < 0.0) g_cold_call_ms = ms;
}

void FleetPhase::slice(Context& ctx) {
  for (int r = 0; r < kRoundsPerSlice; ++r) round(ctx);
}

void FleetPhase::round(Context& ctx) {
  for (int j = 0; j < 5; ++j) {
    const int k = 1 + (round_ + j) % 5;
    const core::ProblemSpec spec = fleet_spec(k);
    std::vector<core::BatchItem> items;
    ctx.ledger.run("fleet", [&] {
      const double ms = time_ms([&] {
        items = core::orient_batch(instances_, spec,
                                   {.parallel = true, .certify = true});
      });
      call_ms_ += ms;
      best_call_ms_[k - 1] = std::min(best_call_ms_[k - 1], ms);
      ctx.ops_ms += ms;
      if (round_ == 0) traced_ms_ += ms;
      for (const auto& it : items) {
        busy_ms_ += it.wall_ms;
        if (round_ == 0) {
          ctx.digest[kFleetOut].add(it.result.orientation);
          ctx.digest[kFleetOut].add(it.certificate);
        }
      }
      return all_certified(items);
    });
    if (!ctx.trace || round_ > 0) continue;
    ctx.ledger.run("fleet trace", [&] {
      std::vector<core::BatchItem> serial;
      serial_ms_ += time_ms([&] {
        serial = core::orient_batch(instances_, spec,
                                    {.parallel = false, .certify = true});
      });
      bool same = serial.size() == items.size();
      for (size_t i = 0; same && i < serial.size(); ++i) {
        Digest a, b;
        a.add(serial[i].result.orientation);
        a.add(serial[i].certificate);
        b.add(items[i].result.orientation);
        b.add(items[i].certificate);
        same = a.hash() == b.hash();
      }
      return same;
    });
  }
  ++round_;
}

void FleetPhase::finish(Context& ctx) {
  Metrics& m = ctx.metrics;
  if (!ctx.trace) {
    // Best call per k (see PlanPhase::finish for why best-of).
    double best_ms = 0.0;
    for (double ms : best_call_ms_) best_ms += ms;
    m.set("fleet_instances_per_s",
          5.0 * static_cast<double>(instances_.size()) / (best_ms / 1000.0),
          "1/s");
    return;
  }
  const double workers = dirant::par::global_pool().thread_count();
  m.set("core.batch_cold_ms", g_cold_call_ms, "ms");
  m.set("core.batch_busy_ratio", busy_ms_ / (call_ms_ * workers), "ratio");
  m.set("core.batch_t4_over_t1", traced_ms_ / serial_ms_, "ratio");

  // Each k's orienter alone: one instance per distribution, trees built
  // once, a warm-up pass, then the timed pass on a warm serial session.
  std::vector<dirant::mst::Tree> trees;
  for (size_t i = 0; i < instances_.size(); i += cfg_.per_dist) {
    trees.push_back(dirant::mst::EmstEngine::shared().degree5(instances_[i]));
  }
  core::PlanSession session;
  for (int k = 1; k <= 5; ++k) {
    const core::ProblemSpec spec = fleet_spec(k);
    std::vector<double> ms;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t t = 0; t < trees.size(); ++t) {
        const auto& pts = instances_[t * cfg_.per_dist];
        const double one =
            time_ms([&] { session.orient_on_tree(pts, trees[t], spec); });
        if (pass == 1) ms.push_back(one);
      }
    }
    m.set("core.fleet_orient_ms.k" + std::to_string(k), median(ms), "ms");
  }
}

}  // namespace perfbench
