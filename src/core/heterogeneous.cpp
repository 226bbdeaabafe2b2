#include "core/heterogeneous.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "core/lemma1.hpp"
#include "core/session.hpp"

namespace dirant::core {

using geom::Point;

void orient_heterogeneous(std::span<const Point> pts, const mst::Tree& tree,
                          std::span<const NodeBudget> budgets,
                          OrienterScratch& scratch, Result& res,
                          HeterogeneousReport& report) {
  DIRANT_ASSERT(budgets.size() == pts.size());
  const int n = static_cast<int>(pts.size());
  const auto& adj = scratch.adjacency;
  scratch.adjacency.build(tree);
  DIRANT_ASSERT_MSG(adj.max_degree() <= 5, "needs a degree-5 MST");

  int max_k = 1;
  for (const auto& b : budgets) max_k = std::max(max_k, b.k);
  reset_result(res, n, std::min(max_k, 6), Algorithm::kHeterogeneous,
               /*bound_factor=*/1.0, tree.lmax());
  report.feasible = false;
  report.deficient.clear();
  report.missing_spread.clear();

  bool feasible = true;
  for (int u = 0; u < n; ++u) {
    const auto nbrs = adj.neighbors(u);
    const int d = static_cast<int>(nbrs.size());
    if (d == 0) continue;
    const auto& b = budgets[u];
    DIRANT_ASSERT(b.k >= 1);
    auto& targets = scratch.targets;
    targets.clear();
    if (targets.capacity() < static_cast<size_t>(d)) targets.reserve(d);
    for (int v : nbrs) targets.push_back(pts[v]);
    lemma1_cover(pts[u], targets, b.k, scratch.lemma1, scratch.cover);
    double spread = 0.0;
    for (const auto& s : scratch.cover) spread += s.width;
    if (spread > b.phi + 1e-9) {
      feasible = false;
      report.deficient.push_back(u);
      report.missing_spread.push_back(spread - b.phi);
      res.cases.bump("deficient");
      continue;
    }
    for (const auto& s : scratch.cover) res.orientation.add(u, s);
    res.cases.bump("deg" + std::to_string(d) + "-k" + std::to_string(b.k));
  }
  report.feasible = feasible;
  res.measured_radius = res.orientation.max_radius();
}

HeterogeneousResult orient_heterogeneous(std::span<const Point> pts,
                                         const mst::Tree& tree,
                                         std::span<const NodeBudget> budgets) {
  HeterogeneousResult out;
  OrienterScratch scratch;
  HeterogeneousReport report;
  orient_heterogeneous(pts, tree, budgets, scratch, out.result, report);
  out.feasible = report.feasible;
  out.deficient = std::move(report.deficient);
  out.missing_spread = std::move(report.missing_spread);
  return out;
}

}  // namespace dirant::core
