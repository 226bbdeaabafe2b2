#include "core/theorem2.hpp"

#include <algorithm>
#include <array>
#include <string_view>

#include "common/assert.hpp"
#include "core/lemma1.hpp"
#include "core/session.hpp"

namespace dirant::core {

using geom::Point;

namespace {

// Case label per vertex degree.
constexpr std::array<std::string_view, 6> kDegreeNames = {
    "deg0", "deg1", "deg2", "deg3", "deg4", "deg5"};

}  // namespace

void orient_theorem2(std::span<const Point> pts, const mst::Tree& tree, int k,
                     OrienterScratch& scratch, Result& out) {
  DIRANT_ASSERT(k >= 1 && k <= 5);
  const auto& adj = scratch.adjacency;
  scratch.adjacency.build(tree);
  DIRANT_ASSERT_MSG(adj.max_degree() <= 5, "theorem 2 needs a degree-5 MST");
  const int n = static_cast<int>(pts.size());
  reset_result(out, n, k,
               k == 5 ? Algorithm::kFiveZero : Algorithm::kTheorem2,
               /*bound_factor=*/1.0, tree.lmax());

  // Each vertex's cover depends only on its own neighbour list, in tree
  // edge order.  Input-id order keeps the orientation writes sequential;
  // a preorder walk would save the neighbour reads but scatter the writes.
  CaseTally<int, kDegreeNames.size()> tally{kDegreeNames};
  auto& targets = scratch.targets;
  for (int u = 0; u < n; ++u) {
    const auto nbrs = adj.neighbors(u);
    if (nbrs.empty()) continue;
    targets.clear();
    if (targets.capacity() < nbrs.size()) targets.reserve(nbrs.size());
    for (int v : nbrs) targets.push_back(pts[v]);
    lemma1_cover(pts[u], targets, k, scratch.lemma1, scratch.cover);
    double spread = 0.0;
    for (const auto& s : scratch.cover) {
      out.orientation.add(u, s);
      spread += s.width;
    }
    const int d = static_cast<int>(nbrs.size());
    DIRANT_ASSERT_MSG(spread <= lemma1_sufficient_spread(d, k) + 1e-9,
                      "Lemma 1 spread bound violated");
    tally.bump(d);
  }
  tally.flush(out.cases);
  out.measured_radius = out.orientation.max_radius();
}

Result orient_theorem2(std::span<const Point> pts, const mst::Tree& tree,
                       int k) {
  Result res;
  OrienterScratch scratch;
  orient_theorem2(pts, tree, k, scratch, res);
  return res;
}

Result orient_five_antennae(std::span<const Point> pts,
                            const mst::Tree& tree) {
  return orient_theorem2(pts, tree, 5);
}

}  // namespace dirant::core
