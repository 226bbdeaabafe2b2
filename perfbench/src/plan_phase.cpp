// Planning phase: PlanSession::orient -> certify, then an AuditSession
// audit, on instance pairs (k = 2, k = 3) at one size.  Traced runs time
// every stage of the same instances again through the layers' own entry
// points, from outside the library.

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "antenna/transmission.hpp"
#include "bench.hpp"
#include "common/constants.hpp"
#include "delaunay/delaunay.hpp"
#include "graph/scc.hpp"
#include "mst/engine.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

namespace mst = dirant::mst;
namespace graph = dirant::graph;
namespace antenna = dirant::antenna;

core::ProblemSpec plan_spec(int k) { return {k, dirant::kPi}; }

namespace {

constexpr int kFloodSources = 4;   ///< evenly spaced flood sources
constexpr int kFailureTrials = 4;  ///< a short failure_resilience

/// Same edge set: Kruskal and Borůvka emit the one MST in different orders.
bool same_tree(const mst::Tree& a, const mst::Tree& b) {
  const auto keys = [](const mst::Tree& t) {
    std::vector<std::pair<int, int>> k;
    for (const auto& e : t.edges) k.emplace_back(std::min(e.u, e.v),
                                                 std::max(e.u, e.v));
    std::sort(k.begin(), k.end());
    return k;
  };
  return a.n == b.n && keys(a) == keys(b);
}

bool same_digraph(const graph::Digraph& a, const graph::Digraph& b) {
  if (a.size() != b.size() || a.edge_count() != b.edge_count()) return false;
  for (int u = 0; u < a.size(); ++u) {
    const auto x = a.out(u), y = b.out(u);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

bool same_failure(const sim::FailureStats& a, const sim::FailureStats& b) {
  return a.trials == b.trials && a.mean_largest_scc == b.mean_largest_scc &&
         a.worst_largest_scc == b.worst_largest_scc;
}

/// make_instance's clustered family without its quadratic min-separation
/// pass: the same Gaussian blobs, with points closer than 1e-9 to an
/// earlier point dropped through a sort on x.
std::vector<geom::Point> clustered(int n, geom::Rng& rng) {
  const double side = std::sqrt(static_cast<double>(n));
  auto pts = geom::gaussian_clusters(n, std::max(1, n / 24), 2.0 * side, 1.0,
                                     rng);
  constexpr double kSep = 1e-9;
  std::vector<int> order(pts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return pts[a].x < pts[b].x; });
  std::vector<char> drop(pts.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    for (size_t j = i + 1;
         j < order.size() && pts[order[j]].x - pts[order[i]].x < kSep; ++j) {
      const double dx = pts[order[j]].x - pts[order[i]].x;
      const double dy = pts[order[j]].y - pts[order[i]].y;
      if (dx * dx + dy * dy < kSep * kSep) {
        drop[std::max(order[i], order[j])] = 1;
      }
    }
  }
  std::vector<geom::Point> out;
  out.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!drop[i]) out.push_back(pts[i]);
  }
  return out;
}

std::uint64_t orientation_hash(const antenna::Orientation& o) {
  Digest d;
  d.add(o);
  return d.hash();
}

}  // namespace

/// Trace-only state: a second copy of every stage's working memory, so
/// the traced calls run warm without touching the measured sessions.
struct PlanPhase::Tracer {
  Tracer() { a4.set_threads(4); }

  dirant::par::ThreadPool pool{4};
  dirant::delaunay::Triangulator triangulator;
  dirant::delaunay::Triangulation triangulation;
  mst::EmstScratch emst1, emst4;
  mst::Tree tree1, tree4, tree5;
  mst::DegreeRepairScratch repair;
  core::PlanSession orienter;  // serial
  antenna::TransmissionScratch tx1, tx4;
  graph::SccScratch scc1;
  sim::AuditSession a1, a4;

  std::vector<double> triangulate_ms, edges, emst_self_ms, repair_ms,
      emst_ratio, orient_k2, orient_k3, digraph1, digraph4, digraph_edges,
      scc1_ms, scc4_ms, failure1, failure4, coverage;
  long long warm_allocs = 0;
};

PlanPhase::PlanPhase(const PlanConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), failure_seed_(mix_seed(seed, 7)) {
  const int d = static_cast<int>(cfg_.dists.size());
  for (int p = 0; p < d; ++p) {
    for (int j = 0; j < 2; ++j) {
      geom::Rng rng(mix_seed(seed, 100 + 2 * p + j));
      const geom::Distribution dist = cfg_.dists[(p + j) % d];
      instances_.push_back(
          {dist == geom::Distribution::kClusters
               ? clustered(cfg_.n, rng)
               : geom::make_instance(dist, cfg_.n, rng),
           plan_spec(2 + j)});
    }
  }
  best_plan_ms_.assign(instances_.size(), 1e300);
  best_audit_ms_.assign(instances_.size(), 1e300);
  session_.set_threads(cfg_.threads);
  audit_.set_threads(cfg_.threads);
  // Cold first calls: size every session buffer.
  const Instance& first = instances_.front();
  const auto& res = session_.orient(first.pts, first.spec);
  if (!certificate_holds(session_.certify(first.pts, first.spec))) {
    throw std::runtime_error("plan set-up: certificate does not hold");
  }
  audit_.load(first.pts, res.orientation);
  if (audit_.scc_count() != 1) {
    throw std::runtime_error("plan set-up: audit finds more than one SCC");
  }
  audit_.flood(0);
  audit_.failure_resilience(0.1, kFailureTrials, failure_seed_);
}

PlanPhase::~PlanPhase() = default;

void PlanPhase::trace(Context& ctx, const Instance& inst, double main_ms,
                      bool record) {
  Tracer& t = *tracer_;
  const auto& pts = inst.pts;
  const auto& engine = mst::EmstEngine::shared();
  const bool parallel = cfg_.threads > 1;
  ctx.ledger.run("plan trace", [&] {
    const double tri =
        time_ms([&] { t.triangulator.triangulate(pts, t.triangulation); });
    const double emst1 =
        time_ms([&] { engine.emst(pts, t.tree1, t.emst1, 1, nullptr); });
    const double emst4 =
        time_ms([&] { engine.emst(pts, t.tree4, t.emst4, 4, &t.pool); });
    t.tree5 = parallel ? t.tree4 : t.tree1;
    const double repair =
        time_ms([&] { mst::enforce_max_degree(pts, t.tree5, 5, t.repair); });
    const double orient =
        time_ms([&] { t.orienter.orient_on_tree(pts, t.tree5, inst.spec); });
    const auto& o = session_.last_result().orientation;
    graph::Digraph g1, g4;
    const double dg1 = time_ms([&] {
      g1 = antenna::induced_digraph_fast(pts, o, dirant::kAngleTol,
                                         dirant::kRadiusAbsTol, t.tx1, 1);
    });
    const double dg4 = time_ms([&] {
      g4 = antenna::induced_digraph_fast(pts, o, dirant::kAngleTol,
                                         dirant::kRadiusAbsTol, t.tx4, 4,
                                         &t.pool);
    });
    int sccs1 = 0, sccs4 = 0;
    const double s1 = time_ms([&] { sccs1 = graph::scc_count(g1, t.scc1); });
    t.a4.bind(g4);
    const double s4 = time_ms([&] { sccs4 = t.a4.scc_count(); });
    t.a1.bind(g1);
    sim::FailureStats f1, f4;
    const double fail1 = time_ms([&] {
      f1 = t.a1.failure_resilience(0.1, kFailureTrials, failure_seed_);
    });
    const double fail4 = time_ms([&] {
      f4 = t.a4.failure_resilience(0.1, kFailureTrials, failure_seed_);
    });
    t.a1.unbind();
    t.a4.unbind();
    const bool ok = same_tree(t.tree1, t.tree4) &&
                    same_tree(t.tree5, session_.last_tree()) &&
                    orientation_hash(t.orienter.last_result().orientation) ==
                        orientation_hash(o) &&
                    same_digraph(g1, g4) && sccs1 == 1 && sccs4 == 1 &&
                    same_failure(f1, f4);
    const int edge_count = g1.edge_count();
    std::move(g1).release(t.tx1.offsets, t.tx1.targets);
    std::move(g4).release(t.tx4.offsets, t.tx4.targets);
    if (!record) {
      t.orienter.certify(pts, inst.spec);  // warms the serial certify
      return ok;
    }
    if (t.triangulate_ms.empty()) {
      t.warm_allocs =
          count_allocations([&] { t.orienter.certify(pts, inst.spec); });
    }
    const double emst = parallel ? emst4 : emst1;
    t.triangulate_ms.push_back(tri);
    t.edges.push_back(static_cast<double>(t.triangulation.edges.size()));
    t.emst_self_ms.push_back(emst - tri);
    t.emst_ratio.push_back(emst4 / emst1);
    t.repair_ms.push_back(repair);
    (inst.spec.k == 2 ? t.orient_k2 : t.orient_k3).push_back(orient);
    t.digraph1.push_back(dg1);
    t.digraph4.push_back(dg4);
    t.digraph_edges.push_back(edge_count);
    t.scc1_ms.push_back(s1);
    t.scc4_ms.push_back(s4);
    t.failure1.push_back(fail1);
    t.failure4.push_back(fail4);
    const double stages =
        emst + repair + orient + (parallel ? dg4 + s4 : dg1 + s1);
    t.coverage.push_back(stages / main_ms);
    return ok;
  });
}

void PlanPhase::slice(Context& ctx) {
  const Instance& inst = instances_[next_];
  const int n = static_cast<int>(inst.pts.size());
  double orient_ms = 0.0, certify_ms = 0.0, audit_ms = 0.0;
  ctx.ledger.run("plan", [&] {
    const auto a = Clock::now();
    const core::Result& res = session_.orient(inst.pts, inst.spec);
    const auto b = Clock::now();
    const core::Certificate& cert = session_.certify(inst.pts, inst.spec);
    certify_ms = ms_since(b);
    orient_ms = std::chrono::duration<double, std::milli>(b - a).count();
    if (round_ == 0) {
      ctx.digest[kPlanOut].add(res.orientation);
      ctx.digest[kPlanOut].add(cert);
    }
    return certificate_holds(cert);
  });
  ctx.ledger.run("audit", [&] {
    const auto a = Clock::now();
    audit_.load(inst.pts, session_.last_result().orientation);
    const auto b = Clock::now();
    const int sccs = audit_.scc_count();
    bool delivered = true;
    const auto c = Clock::now();
    for (int s = 0; s < kFloodSources; ++s) {
      const auto r = audit_.flood(static_cast<int>(
          static_cast<long long>(s) * n / kFloodSources));
      delivered = delivered && r.reached == n;
      if (round_ == 0) ctx.digest[kPlanOut].value(r.rounds);
    }
    const auto d = Clock::now();
    const auto f =
        audit_.failure_resilience(0.1, kFailureTrials, failure_seed_);
    audit_ms = ms_since(a);
    load_ms_.push_back(
        std::chrono::duration<double, std::milli>(b - a).count());
    flood_ms_.push_back(
        std::chrono::duration<double, std::milli>(d - c).count());
    if (round_ == 0) {
      ctx.digest[kPlanOut].value(f.mean_largest_scc);
      ctx.digest[kPlanOut].value(f.worst_largest_scc);
    }
    return sccs == 1 && delivered && f.trials == kFailureTrials;
  });
  ctx.ops_ms += orient_ms + certify_ms + audit_ms;
  certify_ms_.push_back(certify_ms);
  best_plan_ms_[next_] = std::min(best_plan_ms_[next_], orient_ms + certify_ms);
  best_audit_ms_[next_] = std::min(best_audit_ms_[next_], audit_ms);
  if (ctx.trace && round_ == 0) {
    if (!tracer_) {
      tracer_ = std::make_unique<Tracer>();
      trace(ctx, inst, 0.0, false);  // warms the trace-only state
    }
    trace(ctx, inst, orient_ms + certify_ms, true);
  }
  if (++next_ < instances_.size()) return;
  next_ = 0;
  ++round_;
}

void PlanPhase::finish(Context& ctx) {
  Metrics& m = ctx.metrics;
  if (!ctx.trace) {
    // Best-of-rounds per instance: load from other tenants of the machine
    // only ever slows a call down, and it comes in spells of seconds.
    double nodes = 0.0, plan_ms = 0.0, audit_ms = 0.0;
    for (size_t i = 0; i < instances_.size(); ++i) {
      nodes += static_cast<double>(instances_[i].pts.size());
      plan_ms += best_plan_ms_[i];
      audit_ms += best_audit_ms_[i];
    }
    m.set("plan_certify_nodes_per_s", nodes / (plan_ms / 1000.0), "1/s");
    m.set("audit_nodes_per_s", nodes / (audit_ms / 1000.0), "1/s");
    return;
  }
  const Tracer& t = *tracer_;
  m.set("delaunay.triangulate_ms", median(t.triangulate_ms), "ms");
  m.set("delaunay.edges", median(t.edges), "count");
  m.set("mst.emst_self_ms", median(t.emst_self_ms), "ms");
  m.set("mst.degree_repair_ms", median(t.repair_ms), "ms");
  m.set("mst.emst_t4_over_t1", median(t.emst_ratio), "ratio");
  m.set("core.orient_ms.k2", median(t.orient_k2), "ms");
  m.set("core.orient_ms.k3", median(t.orient_k3), "ms");
  m.set("core.certify_ms", median(certify_ms_), "ms");
  m.set("core.warm_allocs", static_cast<double>(t.warm_allocs), "count");
  m.set("antenna.digraph_ms.t1", median(t.digraph1), "ms");
  m.set("antenna.digraph_ms.t4", median(t.digraph4), "ms");
  m.set("antenna.edges", median(t.digraph_edges), "count");
  m.set("graph.scc_ms.t1", median(t.scc1_ms), "ms");
  m.set("graph.scc_ms.t4", median(t.scc4_ms), "ms");
  m.set("audit.load_ms", median(load_ms_), "ms");
  m.set("audit.flood_ms", median(flood_ms_), "ms");
  m.set("audit.failure_ms.t1", median(t.failure1), "ms");
  m.set("audit.failure_ms.t4", median(t.failure4), "ms");
  m.set("plan.stage_coverage", median(t.coverage), "ratio");
}

}  // namespace perfbench
