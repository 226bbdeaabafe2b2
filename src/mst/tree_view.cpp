#include "mst/tree_view.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/constants.hpp"
#include "geometry/angle.hpp"

namespace dirant::mst {

void TreeAdjacency::build(const Tree& t) {
  const int n = t.n;
  off_.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& e : t.edges) {
    ++off_[e.u + 1];
    ++off_[e.v + 1];
  }
  max_degree_ = 0;
  for (int u = 0; u < n; ++u) {
    max_degree_ = std::max(max_degree_, off_[u + 1]);
    off_[u + 1] += off_[u];
  }
  // Fill through off_[u] as a cursor (edge order within each list), then
  // shift the cursors — now each list's end — back to starts.
  nbr_.resize(static_cast<size_t>(off_[n]));
  for (const auto& e : t.edges) {
    nbr_[off_[e.u]++] = e.v;
    nbr_[off_[e.v]++] = e.u;
  }
  for (int u = n; u > 0; --u) off_[u] = off_[u - 1];
  off_[0] = 0;
}

void TreeView::rebuild(std::span<const geom::Point> pts,
                       const TreeAdjacency& adj, int root) {
  const int n = adj.size();
  DIRANT_ASSERT(root >= 0 && root < n);
  DIRANT_ASSERT(static_cast<int>(pts.size()) == n);
  orig_.resize(n);
  parent_.resize(n);
  pts_.resize(n);
  view_of_.resize(n);

  // Stack DFS pushing children in list order: a vertex gets its view id
  // when popped.  A stack entry carries the parent's view and input ids, so
  // the children are the list minus the parent's input id and nothing else
  // is read per neighbour.  On a tree every vertex is pushed once; a cycle
  // would push one again, which the bound catches.
  int next = 0;
  stack_.clear();
  stack_.push_back({root, -1, -1});
  while (!stack_.empty()) {
    const Pending e = stack_.back();
    stack_.pop_back();
    DIRANT_ASSERT_MSG(next < n, "tree has a cycle");
    const int v = next++;
    orig_[v] = e.u;
    view_of_[e.u] = v;
    parent_[v] = e.parent_view;
    pts_[v] = pts[e.u];
    for (int w : adj.neighbors(e.u)) {
      if (w != e.parent_input) stack_.push_back({w, v, e.u});
    }
  }
  DIRANT_ASSERT_MSG(next == n, "tree is not connected");

  // Child lists from the parent array alone.  Siblings are pushed in list
  // order and popped in reverse, so their view ids fall along the list:
  // appending children in descending view id restores list order.  Same
  // cursor trick as TreeAdjacency::build.
  kid_off_.assign(static_cast<size_t>(n) + 1, 0);
  for (int v = 1; v < n; ++v) ++kid_off_[parent_[v] + 1];
  for (int v = 0; v < n; ++v) kid_off_[v + 1] += kid_off_[v];
  kid_.resize(static_cast<size_t>(std::max(0, n - 1)));
  for (int w = n - 1; w >= 1; --w) kid_[kid_off_[parent_[w]]++] = w;
  for (int v = n; v > 0; --v) kid_off_[v] = kid_off_[v - 1];
  kid_off_[0] = 0;
}

void TreeView::rebuild_at_leaf(std::span<const geom::Point> pts,
                               const TreeAdjacency& adj) {
  const int n = adj.size();
  DIRANT_ASSERT(n >= 1);
  int leaf = 0;
  if (n > 1) {
    leaf = -1;
    for (int u = 0; u < n && leaf < 0; ++u) {
      if (adj.degree(u) == 1) leaf = u;
    }
    DIRANT_ASSERT_MSG(leaf >= 0, "tree without a leaf");
  }
  rebuild(pts, adj, leaf);
}

void children_ccw_from(const TreeView& view, int v, double ref_theta,
                       std::vector<int>& out) {
  out.clear();
  const auto pts = view.points();
  const auto kids = view.children(v);
  // Stable insertion sort by ccw offset: child lists of degree-bounded
  // trees are tiny and this allocates nothing (beyond `out`'s capacity).
  constexpr size_t kSmall = 8;
  double small_offs[kSmall];
  std::vector<double> big_offs;
  double* offs = small_offs;
  if (kids.size() > kSmall) {  // unbounded-degree caller
    big_offs.resize(kids.size());
    offs = big_offs.data();
  }
  for (int c : kids) {
    const double th = geom::angle_to(pts[v], pts[c]);
    double d = geom::ccw_delta(ref_theta, th);
    if (d == 0.0) d = dirant::kTwoPi;  // a child exactly on the ray goes last
    int i = static_cast<int>(out.size());
    out.push_back(c);
    while (i > 0 && offs[i - 1] > d) {
      out[i] = out[i - 1];
      offs[i] = offs[i - 1];
      --i;
    }
    out[i] = c;
    offs[i] = d;
  }
}

}  // namespace dirant::mst
