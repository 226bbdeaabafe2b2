#pragma once
/// \file tree_view.hpp
/// Flat (CSR) views of a spanning tree.
///
/// `TreeAdjacency` is the tree's neighbour lists in its own vertex ids;
/// the per-vertex orienters (Theorem 2, the heterogeneous planner) and the
/// traffic engine's tree routes read it directly.  `TreeView` is what the
/// rooted orienters traverse (the paper's inductions root the tree — at a
/// degree-one vertex for Theorem 3 — and take children counterclockwise):
/// the tree rooted at a vertex and relabelled in DFS preorder, with a
/// contiguous copy of the points, so a traversal walks memory in tree order
/// instead of input order.
///
/// Order contract: every neighbour list keeps the order of `Tree::edges`;
/// a child list is the neighbour list minus the parent, in that order; and
/// the preorder is the stack DFS that pushes children in that order.
/// Orienters break ties by that list order (a stable ccw sort, Lemma 1's
/// target order), never by a view id, so a plan over the view is
/// bit-identical to one over the input ids; they write results back at
/// `input_id(v)`.

#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "mst/tree.hpp"

namespace dirant::mst {

class TreeAdjacency {
 public:
  /// Rebuild for `t`, recycling capacity (allocation-free once warm on
  /// same-size trees).
  void build(const Tree& t);

  int size() const { return static_cast<int>(off_.size()) - 1; }
  std::span<const int> neighbors(int u) const {
    return {nbr_.data() + off_[u], nbr_.data() + off_[u + 1]};
  }
  int degree(int u) const { return off_[u + 1] - off_[u]; }
  int max_degree() const { return max_degree_; }

 private:
  std::vector<int> off_{0};
  std::vector<int> nbr_;
  int max_degree_ = 0;
};

class TreeView {
 public:
  /// Root the tree whose adjacency is `adj` (over `pts`) at input vertex
  /// `root`.  Recycles capacity (allocation-free once warm).
  void rebuild(std::span<const geom::Point> pts, const TreeAdjacency& adj,
               int root);
  /// Root it at its lowest-index leaf (the paper's choice, §1.2).
  void rebuild_at_leaf(std::span<const geom::Point> pts,
                       const TreeAdjacency& adj);

  int size() const { return static_cast<int>(orig_.size()); }
  /// The root's view id: preorder starts there.
  static constexpr int root() { return 0; }
  int input_id(int v) const { return orig_[v]; }
  int view_id(int u) const { return view_of_[u]; }
  /// Points in view order: points()[v] == pts[input_id(v)].
  std::span<const geom::Point> points() const { return pts_; }
  /// Parent view ids, -1 at the root.
  std::span<const int> parents() const { return parent_; }
  int parent(int v) const { return parent_[v]; }
  std::span<const int> children(int v) const {
    return {kid_.data() + kid_off_[v], kid_.data() + kid_off_[v + 1]};
  }

 private:
  std::vector<int> orig_, view_of_, parent_;
  std::vector<geom::Point> pts_;
  std::vector<int> kid_off_, kid_;
  struct Pending {
    int u, parent_view, parent_input;
  };
  std::vector<Pending> stack_;
};

/// Children of view vertex `v` sorted by ccw angle measured from the
/// reference direction `ref_theta` (exclusive sweep: the child with the
/// smallest positive ccw offset comes first; a child exactly on the ray
/// goes last; equal offsets keep child-list order).  This is the paper's
/// "u(1) is the first neighbour of u when rotating the ray u->p".  Fills
/// `out` (cleared first) with view ids; allocation-free once warm.
void children_ccw_from(const TreeView& view, int v, double ref_theta,
                       std::vector<int>& out);

}  // namespace dirant::mst
