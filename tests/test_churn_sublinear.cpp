// Sub-linear churn acceptance suite (PR: localized MST repair +
// dirty-subtree re-orientation + frontier-bounded recertification).
//
//   * DelaunayEdgePool guards, tested directly: the degree-cap
//     invalidation on erase, the oversized guard + reseed semantics, and
//     the disconnected-pool contract violation that sim::ChurnEngine maps
//     to the "pool-disconnected" escalation.
//   * The lazy-star pool against MaterializedPool, a test-local copy of the
//     pool that writes every insert out eagerly: random interleavings of
//     seed / insert / erase / batched erase must agree on validity, size,
//     the oversized guard and the edge set after every operation.
//   * The engine's escalation reasons on insert-heavy batches: many moves
//     end "pool-invalid", a recover wave "pool-oversized", and a single
//     insert stays on the pool path — each matching a from-scratch plan.
//   * A 100%-move parity sweep: every event in every batch is a kMove,
//     and after each batch the engine must match a from-scratch
//     orient()+certify() bit for bit at every thread count — mobility is
//     the hardest case for the warm frontier orienter (positions,
//     targets and ccw child orders all shift).
//   * The locality guarantee itself: under small fail batches the
//     localized repair + warm frontier orienter must carry >= 90% of the
//     steps (the rest being the first recording batch and deterministic
//     escalations), with affected regions far below n.
//
// Everything here is deterministic: schedules are fixed functions of
// (seed, batch), and every escalation decision is a pure function of the
// event sequence — so the counter assertions are exact replays, not
// statistical expectations.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"
#include "mst/emst.hpp"
#include "mst/repair.hpp"
#include "sim/churn.hpp"
#include "thread_counts.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace mst = dirant::mst;
namespace sim = dirant::sim;
using dirant::contract_violation;
using dirant::kPi;
using dirant::test::for_each_thread_count;

namespace {

std::vector<geom::Point> make_points(int n, int seed) {
  geom::Rng rng(seed);
  return geom::make_instance(geom::Distribution::kUniformSquare, n, rng);
}

// ---------------------------------------------------------------------
// DelaunayEdgePool guards, directly.
// ---------------------------------------------------------------------

// A star pool: node 0 adjacent to `leaves` neighbours (ids 1..leaves).
std::vector<std::pair<int, int>> star_edges(int leaves) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  return edges;
}

// Every one of nodes 0..n-1 present.
std::vector<char> all_present(int n) { return std::vector<char>(n, 1); }

TEST(EdgePool, EraseAboveDegreeCapInvalidates) {
  // Erasing a node whose pool degree exceeds the cap must invalidate the
  // pool (the O(deg^2) neighbour closure is the thing being refused), not
  // throw and not silently drop candidates.
  mst::DelaunayEdgePool pool;  // default degree_cap = 64
  const auto edges = star_edges(70);
  const auto present = all_present(71);
  pool.seed(edges, nullptr, present);
  ASSERT_TRUE(pool.valid());
  pool.erase_node(0);
  EXPECT_FALSE(pool.valid()) << "degree 70 > cap 64 must invalidate";
  // Operations on an invalid pool are no-ops until reseeded.
  pool.erase_node(1);
  EXPECT_FALSE(pool.valid());
  pool.seed(edges, nullptr, present);
  EXPECT_TRUE(pool.valid()) << "seed must restore validity";
}

TEST(EdgePool, EraseBelowDegreeCapClosesNeighbours) {
  // Below the cap the erase keeps the superset invariant by adding all
  // pairs of the erased node's former neighbours.
  mst::DelaunayEdgePool pool;
  const int leaves = 10;
  pool.seed(star_edges(leaves), nullptr, all_present(leaves + 1));
  pool.erase_node(0);
  ASSERT_TRUE(pool.valid());
  // 0's edges are gone; the closure is the complete graph on 1..leaves.
  EXPECT_EQ(static_cast<int>(pool.edges().size()),
            leaves * (leaves - 1) / 2);
  for (const auto& [u, v] : pool.edges()) {
    EXPECT_NE(u, 0);
    EXPECT_NE(v, 0);
    EXPECT_LT(u, v);
  }
}

TEST(EdgePool, OversizedGuardAgainstAliveCount) {
  // size > size_factor * alive + size_slack (defaults 6.0 / 32).  The
  // guard is the caller's reseed trigger: sim::ChurnEngine escalates with
  // "pool-oversized" and reseeds from a fresh triangulation.
  mst::DelaunayEdgePool pool;
  pool.seed(star_edges(70), nullptr, all_present(71));  // 70 edges
  EXPECT_TRUE(pool.oversized(2)) << "70 > 6*2 + 32";
  EXPECT_FALSE(pool.oversized(10)) << "70 <= 6*10 + 32";
  // Reseeding replaces the bloated candidate set wholesale.
  pool.seed(star_edges(5), nullptr, all_present(6));
  EXPECT_EQ(pool.edges().size(), 5u);
  EXPECT_FALSE(pool.oversized(2));
}

TEST(EdgePool, DisconnectedCandidateSetThrowsForKruskal) {
  // A pool that lost connectivity cannot yield a spanning tree; Kruskal
  // over it throws the contract violation sim::ChurnEngine catches and
  // maps to the "pool-disconnected" full-rebuild escalation.
  const std::vector<geom::Point> pts{
      {0.0, 0.0}, {1.0, 0.0}, {10.0, 0.0}, {11.0, 0.0}};
  const std::vector<std::pair<int, int>> split{{0, 1}, {2, 3}};
  EXPECT_THROW(mst::kruskal_emst(pts, split), contract_violation);
  const std::vector<std::pair<int, int>> connected{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(mst::kruskal_emst(pts, connected).edges.size(), 3u);
}

// ---------------------------------------------------------------------
// Lazy stars vs the materialising pool.
// ---------------------------------------------------------------------

// The pool as it was before inserts became lazy: insert_node writes
// v × alive into the sorted list at once.  Kept as the oracle the lazy
// pool must match operation for operation (validity, size, edge set).
class MaterializedPool {
 public:
  explicit MaterializedPool(mst::EdgePoolConfig cfg = {}) : cfg_(cfg) {}

  void seed(std::span<const std::pair<int, int>> edges) {
    pool_.clear();
    for (const auto& [a, b] : edges) {
      pool_.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(pool_.begin(), pool_.end());
    pool_.erase(std::unique(pool_.begin(), pool_.end()), pool_.end());
    valid_ = true;
  }

  bool valid() const { return valid_; }
  std::size_t size() const { return pool_.size(); }
  bool oversized(int alive_count) const {
    return static_cast<double>(pool_.size()) >
           cfg_.size_factor * alive_count + cfg_.size_slack;
  }
  const std::vector<std::pair<int, int>>& edges() const { return pool_; }

  void erase_node(int w) {
    if (!valid_) return;
    std::vector<int> nbrs;
    std::vector<std::pair<int, int>> kept;
    for (const auto& e : pool_) {
      if (e.first == w) {
        nbrs.push_back(e.second);
      } else if (e.second == w) {
        nbrs.push_back(e.first);
      } else {
        kept.push_back(e);
      }
    }
    pool_.swap(kept);
    if (static_cast<int>(nbrs.size()) > cfg_.degree_cap) {
      valid_ = false;
      return;
    }
    std::vector<std::pair<int, int>> additions;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      for (size_t j = i + 1; j < nbrs.size(); ++j) {
        additions.emplace_back(std::min(nbrs[i], nbrs[j]),
                               std::max(nbrs[i], nbrs[j]));
      }
    }
    merge(additions);
  }

  // Per erased component (through pool edges): all pairs of its surviving
  // boundary; a boundary above the cap invalidates.
  void erase_nodes(std::span<const int> ws) {
    if (!valid_ || ws.empty()) return;
    if (ws.size() == 1) {
      erase_node(ws.front());
      return;
    }
    const auto local = [&](int u) {
      const auto it = std::find(ws.begin(), ws.end(), u);
      return it == ws.end() ? -1 : static_cast<int>(it - ws.begin());
    };
    std::vector<int> uf(ws.size());
    for (size_t i = 0; i < uf.size(); ++i) uf[i] = static_cast<int>(i);
    const auto find = [&](int x) {
      while (uf[x] != x) x = uf[x];
      return x;
    };
    std::vector<std::pair<int, int>> kept, boundary;
    for (const auto& e : pool_) {
      const int lu = local(e.first), lv = local(e.second);
      if (lu < 0 && lv < 0) {
        kept.push_back(e);
      } else if (lu >= 0 && lv >= 0) {
        uf[find(lu)] = find(lv);
      } else if (lu >= 0) {
        boundary.emplace_back(lu, e.second);
      } else {
        boundary.emplace_back(lv, e.first);
      }
    }
    pool_.swap(kept);
    for (auto& [l, survivor] : boundary) l = find(l);
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    std::vector<std::pair<int, int>> additions;
    for (size_t i = 0, j = 0; i < boundary.size(); i = j) {
      while (j < boundary.size() && boundary[j].first == boundary[i].first) {
        ++j;
      }
      if (static_cast<int>(j - i) > cfg_.degree_cap) {
        valid_ = false;
        return;
      }
      for (size_t a = i; a < j; ++a) {
        for (size_t b = a + 1; b < j; ++b) {
          additions.emplace_back(
              std::min(boundary[a].second, boundary[b].second),
              std::max(boundary[a].second, boundary[b].second));
        }
      }
    }
    merge(additions);
  }

  void insert_node(int v, std::span<const char> alive) {
    if (!valid_) return;
    std::vector<std::pair<int, int>> additions;
    for (int u = 0; u < static_cast<int>(alive.size()); ++u) {
      if (u != v && alive[u]) {
        additions.emplace_back(std::min(u, v), std::max(u, v));
      }
    }
    merge(additions);
  }

 private:
  void merge(std::vector<std::pair<int, int>>& additions) {
    std::sort(additions.begin(), additions.end());
    const auto mid = pool_.insert(pool_.end(), additions.begin(),
                                  additions.end());
    std::inplace_merge(pool_.begin(), mid, pool_.end());
    pool_.erase(std::unique(pool_.begin(), pool_.end()), pool_.end());
  }

  std::vector<std::pair<int, int>> pool_;
  bool valid_ = false;
  mst::EdgePoolConfig cfg_;
};

TEST(EdgePool, LazyStarsMatchMaterializedPool) {
  // Random interleavings of seed / insert / erase / batched erase (plus
  // moves = erase + insert of one node, and engine-style edges() reads that
  // write the stars out) drive both pools; after every operation they must
  // agree on validity and, while valid, on size, the oversized guard and
  // the edge set.  The lazy pool is compared through a copy so the
  // comparison itself never writes its stars out.  Erase targets favour
  // nodes inserted since the last write-out, so recover-then-fail and
  // move-after-recover of one node happen often.  At the default cap of
  // 64, n = 40 keeps a star's degree under the cap and n = 300 puts it
  // over; up to 80 inserts per sequence put the star count itself on both
  // sides of the cap.
  struct Coverage {
    int star_erased_kept = 0;     // star erased, pool stays valid
    int star_erased_invalid = 0;  // star erased, pool invalidated
    int stars_over_cap = 0;       // erase with more stars than the cap
    int erase_with_stars = 0;     // valid erase while stars are pending
    int batch_with_star = 0;      // batched erase containing a star
    int stars_tip_cap = 0;        // stars <= cap < stars + explicit degree
    int oversized = 0;            // valid pool over its size guard
  } cov;
  geom::Rng rng(20261019);
  const auto pick = [&rng](int k) { return static_cast<int>(rng() % k); };
  for (int n : {40, 80, 300}) {
    for (int seq = 0; seq < 40; ++seq) {
      // Odd sequences use a cap of 8, so that star counts just under the
      // cap, which only the explicit neighbours push over it, are common.
      mst::EdgePoolConfig cfg;
      cfg.degree_cap = seq % 2 == 0 ? 64 : 8;
      mst::DelaunayEdgePool lazy(cfg);
      MaterializedPool oracle(cfg);
      std::vector<char> alive(n, 0);
      std::vector<int> recent;  // inserted since the last write-out
      const auto present_nodes = [&] {
        std::vector<int> p;
        for (int u = 0; u < n; ++u) {
          if (alive[u]) p.push_back(u);
        }
        return p;
      };
      const int dead_in_ten = 1 + pick(5);  // 10%..50% dead at each seed
      const auto reseed = [&] {
        // A sparse random graph over a random alive set.
        for (int u = 0; u < n; ++u) alive[u] = pick(10) >= dead_in_ten;
        const auto p = present_nodes();
        std::vector<std::pair<int, int>> edges;
        for (size_t i = 0; i + 1 < p.size(); ++i) {
          for (int k = 0; k < 3; ++k) {
            const int j = static_cast<int>(i) + 1 +
                          pick(static_cast<int>(p.size() - i - 1));
            edges.emplace_back(p[i], p[j]);
          }
        }
        lazy.seed(edges, nullptr, alive);
        oracle.seed(edges);
        recent.clear();
      };
      const auto compare = [&](const char* op) {
        ASSERT_EQ(lazy.valid(), oracle.valid()) << op << " n=" << n
                                                << " seq=" << seq;
        if (!lazy.valid()) return;
        const int alive_count =
            static_cast<int>(std::count(alive.begin(), alive.end(), 1));
        ASSERT_EQ(lazy.size(), oracle.size()) << op;
        ASSERT_EQ(lazy.oversized(alive_count), oracle.oversized(alive_count))
            << op;
        cov.oversized += oracle.oversized(alive_count) ? 1 : 0;
        mst::DelaunayEdgePool copy = lazy;
        const auto got = copy.edges();
        ASSERT_TRUE(std::equal(got.begin(), got.end(), oracle.edges().begin(),
                               oracle.edges().end()))
            << op << " n=" << n << " seq=" << seq;
      };
      // Erase target: a recent insert half the time, else any alive node.
      const auto pick_alive = [&] {
        if (!recent.empty() && pick(2) == 0) {
          return recent[pick(static_cast<int>(recent.size()))];
        }
        const auto p = present_nodes();
        return p.empty() ? -1 : p[pick(static_cast<int>(p.size()))];
      };
      // After an erase: a star erase that leaves the pool valid wrote every
      // star out; otherwise only w leaves the pending set.
      const auto forget = [&](int w, bool star) {
        if (star && lazy.valid()) {
          recent.clear();
        } else {
          recent.erase(std::remove(recent.begin(), recent.end(), w),
                       recent.end());
        }
      };
      const auto recover_one = [&] {
        std::vector<int> dead;
        for (int u = 0; u < n; ++u) {
          if (!alive[u]) dead.push_back(u);
        }
        if (dead.empty()) return false;
        const int v = dead[pick(static_cast<int>(dead.size()))];
        const bool was_valid = lazy.valid();
        alive[v] = 1;
        lazy.insert_node(v);
        oracle.insert_node(v, alive);
        if (was_valid) recent.push_back(v);
        return true;
      };
      const auto note_erase = [&](bool star, bool was_valid, int stars) {
        if (!was_valid) return;
        if (star) {
          (lazy.valid() ? cov.star_erased_kept : cov.star_erased_invalid)++;
        }
        const int cap = lazy.config().degree_cap;
        if (stars > cap) ++cov.stars_over_cap;
        if (stars > 0 && lazy.valid()) ++cov.erase_with_stars;
        if (!star && stars > 0 && stars <= cap && !lazy.valid()) {
          ++cov.stars_tip_cap;
        }
      };
      reseed();
      compare("seed");
      if (HasFatalFailure()) return;
      // An opening recover burst stacks up pending stars; every fourth
      // sequence spends its whole budget there, past the degree cap.
      const bool long_burst = seq % 4 == 0;
      int insert_budget = long_burst ? 60 + pick(21) : pick(81);
      for (int burst = long_burst ? insert_budget : pick(insert_budget + 1);
           burst > 0; --burst) {
        if (!recover_one()) break;
        --insert_budget;
        compare("burst");
        if (HasFatalFailure()) return;
      }
      for (int op = 0; op < 160; ++op) {
        const int r = pick(100);
        const bool was_valid = lazy.valid();
        const int stars = static_cast<int>(recent.size());
        if (!was_valid && r < 30) {
          reseed();
          compare("reseed");
        } else if (r < 45 && insert_budget > 0) {
          if (!recover_one()) continue;
          --insert_budget;
          compare("insert");
        } else if (r < 60 && insert_budget > 0) {
          // Move: erase then re-insert the same node.
          const int v = pick_alive();
          if (v < 0) continue;
          const bool star = was_valid &&
                            std::find(recent.begin(), recent.end(), v) !=
                                recent.end();
          alive[v] = 0;
          lazy.erase_node(v);
          oracle.erase_node(v);
          note_erase(star, was_valid, stars);
          forget(v, star);
          compare("move-erase");
          alive[v] = 1;
          --insert_budget;
          const bool still_valid = lazy.valid();
          lazy.insert_node(v);
          oracle.insert_node(v, alive);
          if (still_valid) recent.push_back(v);
          compare("move-insert");
        } else if (r < 80) {
          const int w = pick_alive();
          if (w < 0) continue;
          const bool star = was_valid &&
                            std::find(recent.begin(), recent.end(), w) !=
                                recent.end();
          alive[w] = 0;
          lazy.erase_node(w);
          oracle.erase_node(w);
          note_erase(star, was_valid, stars);
          forget(w, star);
          compare("erase");
        } else if (r < 92) {
          // Batched fails: 2..6 distinct alive nodes.
          std::vector<int> ws;
          const int want = 2 + pick(5);
          for (int t = 0; t < 4 * want && static_cast<int>(ws.size()) < want;
               ++t) {
            const int w = pick_alive();
            if (w >= 0 && std::find(ws.begin(), ws.end(), w) == ws.end()) {
              ws.push_back(w);
            }
          }
          if (ws.empty()) continue;
          bool star = false;
          for (int w : ws) {
            star = star || std::find(recent.begin(), recent.end(), w) !=
                               recent.end();
            alive[w] = 0;
          }
          lazy.erase_nodes(ws);
          oracle.erase_nodes(ws);
          if (was_valid && star) ++cov.batch_with_star;
          note_erase(star && ws.size() == 1, was_valid, stars);
          for (int w : ws) forget(w, star);
          compare("erase_nodes");
        } else {
          // An engine-style read: writes the stars out.
          if (lazy.valid()) {
            const auto got = lazy.edges();
            ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                   oracle.edges().begin(),
                                   oracle.edges().end()));
          }
          recent.clear();
          compare("read");
        }
        if (HasFatalFailure()) return;  // compare() stops only itself
        if (!lazy.valid()) recent.clear();
      }
    }
  }
  EXPECT_GT(cov.star_erased_kept, 0);
  EXPECT_GT(cov.star_erased_invalid, 0);
  EXPECT_GT(cov.stars_over_cap, 0);
  EXPECT_GT(cov.erase_with_stars, 0);
  EXPECT_GT(cov.batch_with_star, 0);
  EXPECT_GT(cov.stars_tip_cap, 0);
  EXPECT_GT(cov.oversized, 0);
}

// ---------------------------------------------------------------------
// Engine-level parity + locality counters.
// ---------------------------------------------------------------------

void expect_matches_from_scratch(sim::ChurnEngine& eng,
                                 const core::ProblemSpec& spec, int threads,
                                 int batch) {
  std::vector<geom::Point> survivors;
  survivors.reserve(eng.compact_to_orig().size());
  for (int u : eng.compact_to_orig()) survivors.push_back(eng.positions()[u]);

  core::PlanSession fresh;
  fresh.set_threads(threads);
  const auto& ref = fresh.orient(survivors, spec);
  const auto& got = eng.last_result();
  ASSERT_EQ(static_cast<int>(survivors.size()), eng.alive_count());
  EXPECT_EQ(got.measured_radius, ref.measured_radius) << "batch " << batch;
  EXPECT_EQ(got.lmax, ref.lmax) << "batch " << batch;
  for (int c = 0; c < eng.alive_count(); ++c) {
    ASSERT_TRUE(ref.orientation.node_equals(c, got.orientation, c))
        << "batch " << batch << " node " << c << " threads " << threads;
  }
  const auto& cert = fresh.certify(survivors, spec);
  const auto& cb = eng.last_report().certificate;
  EXPECT_EQ(cb.strongly_connected, cert.strongly_connected);
  EXPECT_EQ(cb.scc_count, cert.scc_count);
  EXPECT_EQ(cb.max_radius, cert.max_radius);
  EXPECT_EQ(cb.max_spread_sum, cert.max_spread_sum);
  EXPECT_EQ(cb.max_antennas, cert.max_antennas);
}

TEST(ChurnSublinear, AllMoveBatchesMatchFromScratchAtEveryThreadCount) {
  // 100% mobility: one node relocates per batch (delete+insert in the
  // pool, a detach/re-hang + position-dirty closure for the warm
  // orienter).  Pool inserts cost O(alive) edges, so sustained movement
  // periodically trips the oversized guard — escalation and reseed are
  // part of the sweep, and parity must hold straight through them.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(500, 9100);
  const int batches = 10;
  for_each_thread_count([&](int t) {
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    bool saw_warm = false, saw_reseed = false;
    for (int b = 1; b <= batches; ++b) {
      // Deterministic single-move batch: node (97*b) mod n hops by a
      // small diagonal; every event is a kMove by construction.
      const int node = (97 * b) % static_cast<int>(pts.size());
      geom::Point to = eng.positions()[node];
      to.x += (b % 2 == 0 ? 0.013 : -0.009);
      to.y += 0.007;
      const std::vector<sim::ChurnEvent> events{
          {sim::ChurnEventKind::kMove, node, to}};
      const auto& rep = eng.step(events);
      ASSERT_EQ(static_cast<int>(rep.events.size()), 1);
      EXPECT_TRUE(rep.events[0].applied);
      saw_warm |= rep.warm_orient;
      saw_reseed |= rep.escalation != nullptr;
      expect_matches_from_scratch(eng, spec, t, b);
    }
    EXPECT_TRUE(saw_warm)
        << "move batches never reached the warm frontier orienter";
    EXPECT_TRUE(saw_reseed)
        << "sustained moves were expected to trip the oversized reseed";
  });
}

TEST(ChurnSublinear, LocalizedPathCoversSmallFailBatches) {
  // The locality contract: under small-batch attrition (<= 8 events — the
  // workload the sub-linear path exists for), >= 90% of steps must stay on
  // BOTH warm layers — localized MST repair (no pool Kruskal) and the warm
  // frontier orienter (no O(n) traversal) — with affected regions far
  // below n.  The only permitted exceptions are the first batch (which
  // records the plan memory) and deterministic mst-region fallbacks when
  // the poisson draw overshoots the small-batch regime.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(10000, 777);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  const int batches = 30;
  int small_batches = 0, warm_localized = 0;
  int max_region = 0;
  std::vector<sim::ChurnEvent> events;
  for (int b = 1; b <= batches; ++b) {
    events.clear();
    eng.poisson_schedule(321, b, 0.0005, 0.0, 0.0, 0.0, events);
    const auto& rep = eng.step(events);
    int applied = 0;
    for (const auto& ev : rep.events) applied += ev.applied ? 1 : 0;
    if (applied <= 8) ++small_batches;
    if (rep.localized_mst && rep.warm_orient) {
      if (applied <= 8) ++warm_localized;
      max_region = std::max(max_region, rep.mst_region);
      EXPECT_GT(rep.mst_region, 0);
      // The repair layer's own documented walk budget bounds the region.
      EXPECT_LE(rep.mst_region, 256 + eng.alive_count() / 4);
      EXPECT_LE(rep.orient_planned, 64)
          << "warm re-plan left the affected frontier";
    }
    EXPECT_TRUE(rep.certificate.ok()) << "batch " << b;
  }
  ASSERT_GE(small_batches, batches / 2)
      << "schedule drifted out of the small-batch regime";
  EXPECT_GE(10 * warm_localized, 9 * small_batches)
      << "sub-linear path covered fewer than 90% of small-batch steps";
  EXPECT_GT(max_region, 0);
  EXPECT_LE(max_region, static_cast<int>(pts.size()) / 3)
      << "affected region is no longer local at n=10000";
}

TEST(ChurnSublinear, WarmStepCountersSmoke) {
  // Counter-level smoke for the steady state: after the recording batch,
  // small fail batches must report the whole sub-linear ladder — localized
  // repair ran (localized_mst, mst_region > 0), the warm frontier orienter
  // produced the plan (warm_orient, implies incremental_orient), and only
  // a handful of vertices were re-planned.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(300, 2026);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  for (int b = 1; b <= 6; ++b) {
    // One deterministic fail per batch (distinct, initially-alive ids).
    const std::vector<sim::ChurnEvent> events{
        {sim::ChurnEventKind::kFail, 10 * b, {}}};
    const auto& rep = eng.step(events);
    ASSERT_TRUE(rep.events[0].applied) << "batch " << b;
    ASSERT_EQ(rep.escalation, nullptr) << "batch " << b;
    EXPECT_TRUE(rep.incremental_orient) << "batch " << b;
    if (b == 1) {
      // The repair layer is seeded by the first pool-Kruskal batch and the
      // plan memory by its recording traversal — batch 1 is the ladder's
      // warm-up, not a sub-linear step.
      EXPECT_FALSE(rep.localized_mst);
      EXPECT_STREQ(rep.mst_fallback, "mst-unseeded");
      EXPECT_FALSE(rep.warm_orient);
    } else {
      EXPECT_TRUE(rep.localized_mst) << "batch " << b;
      EXPECT_GT(rep.mst_region, 0) << "batch " << b;
      EXPECT_TRUE(rep.warm_orient) << "batch " << b;
      EXPECT_GT(rep.orient_planned, 0) << "batch " << b;
      EXPECT_LT(rep.orient_planned, 64) << "batch " << b;
    }
  }
}

TEST(ChurnSublinear, OversizedPoolReseedsAndRecovers) {
  // A recover wave inserts ~alive candidate edges per node and blows the
  // pool past its size guard; the engine must escalate with
  // "pool-oversized", reseed from a fresh triangulation, and return to
  // the incremental path on the next light batch — with exact parity
  // throughout.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(150, 5150);
  sim::ChurnEngine eng;
  eng.init(pts, spec);
  bool saw_oversized = false;
  std::vector<sim::ChurnEvent> events;
  for (int b = 1; b <= 4; ++b) {
    events.clear();
    if (b == 1) {
      eng.poisson_schedule(55, b, 0.2, 0.0, 0.0, 0.0, events);  // attrition
    } else if (b == 2) {
      eng.poisson_schedule(55, b, 0.0, 0.9, 0.0, 0.0, events);  // recover wave
    } else {
      eng.poisson_schedule(55, b, 0.01, 0.0, 0.0, 0.0, events);  // light
    }
    const auto& rep = eng.step(events);
    if (rep.escalation != nullptr) {
      saw_oversized |= std::string_view(rep.escalation) == "pool-oversized";
    }
    expect_matches_from_scratch(eng, spec, 1, b);
  }
  EXPECT_TRUE(saw_oversized) << "recover wave never tripped the size guard";
  EXPECT_EQ(eng.last_report().escalation, nullptr)
      << "engine did not return to the incremental path after the reseed";
  EXPECT_TRUE(eng.last_report().incremental_plan);
}

// The escalation reasons of insert-heavy batches are a function of the
// pool's exact size and degrees, so lazy stars must leave every one as the
// materialising pool had it.

TEST(ChurnSublinear, ManyMovesInOneBatchEndPoolInvalid) {
  // Each move leaves a pending star; once a later mover's degree (its
  // explicit neighbours plus every star) passes the cap of 64, its erase
  // invalidates the pool.
  const core::ProblemSpec spec{2, kPi};
  const auto pts = make_points(400, 7001);
  for_each_thread_count([&](int t) {
    sim::ChurnEngine eng;
    eng.set_threads(t);
    eng.init(pts, spec);
    std::vector<sim::ChurnEvent> events;
    for (int i = 0; i < 72; ++i) {
      const int node = 5 * i;
      geom::Point to = eng.positions()[node];
      to.x += 0.004;
      events.push_back({sim::ChurnEventKind::kMove, node, to});
    }
    const auto& rep = eng.step(events);
    for (const auto& ev : rep.events) ASSERT_TRUE(ev.applied);
    ASSERT_NE(rep.escalation, nullptr);
    EXPECT_STREQ(rep.escalation, "pool-invalid") << "threads " << t;
    expect_matches_from_scratch(eng, spec, t, 1);
  });
}

// Fails `failed` (batch 1), then recovers the first `recovered` of them
// (batch 2); returns batch 2's escalation reason.
const char* recover_wave_escalation(const std::vector<geom::Point>& pts,
                                    int failed, int recovered, int threads) {
  const core::ProblemSpec spec{2, kPi};
  sim::ChurnEngine eng;
  eng.set_threads(threads);
  eng.init(pts, spec);
  std::vector<sim::ChurnEvent> events;
  for (int i = 0; i < failed; ++i) {
    events.push_back({sim::ChurnEventKind::kFail, 11 * i + 3, {}});
  }
  eng.step(events);
  expect_matches_from_scratch(eng, spec, threads, 1);
  events.resize(recovered);
  for (auto& e : events) e.kind = sim::ChurnEventKind::kRecover;
  const auto& rep = eng.step(events);
  for (const auto& ev : rep.events) EXPECT_TRUE(ev.applied);
  expect_matches_from_scratch(eng, spec, threads, 2);
  return rep.escalation;
}

TEST(ChurnSublinear, RecoverWaveEndsPoolOversized) {
  // Four stars over ~300 nodes put the pool past 6·alive + 32.
  const auto pts = make_points(300, 7002);
  for_each_thread_count([&](int t) {
    const char* esc = recover_wave_escalation(pts, 12, 4, t);
    ASSERT_NE(esc, nullptr);
    EXPECT_STREQ(esc, "pool-oversized") << "threads " << t;
  });
}

TEST(ChurnSublinear, SingleInsertTakesThePoolPath) {
  // One star stays under the size guard: the batch re-plans from the pool
  // (its stars written out) without escalating.
  const auto pts = make_points(300, 7003);
  for_each_thread_count([&](int t) {
    EXPECT_EQ(recover_wave_escalation(pts, 12, 1, t), nullptr)
        << "threads " << t;
  });
}

}  // namespace
