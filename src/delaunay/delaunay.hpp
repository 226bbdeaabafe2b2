#pragma once
/// \file delaunay.hpp
/// Delaunay triangulation (Bowyer–Watson with walking point location).
/// Primary consumer: the large-n EMST path (the EMST is a subgraph of the
/// Delaunay graph), as suggested by the reproduction plan ("CGAL aids
/// MST/spanner construction" — this module replaces CGAL).
///
/// Robustness: in-circle and orientation tests go through geometry/exact.hpp
/// (double filter, then float128).  A large finite super-triangle hosts the
/// construction; ties (cocircular points) resolve arbitrarily but
/// deterministically.  For adversarially degenerate inputs the EMST driver
/// cross-checks connectivity and falls back to Prim.

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/point.hpp"

namespace dirant::delaunay {

/// A triangulation result: triangles as index triples (ccw), plus the unique
/// undirected edge list.
struct Triangulation {
  std::vector<std::array<int, 3>> triangles;
  std::vector<std::pair<int, int>> edges;  ///< u < v, unique, unordered list
};

/// Reusable Bowyer–Watson builder.  All working memory (point copy, triangle
/// soup, cavity marks/stacks, insertion order) lives on the object and keeps
/// its capacity across calls, so a warm Triangulator triangulating inputs of
/// stable size allocates nothing — the property core::PlanSession builds on.
/// The duplicate-merge fallback (exact duplicate points in the input) is the
/// one path that still allocates; it only runs on degenerate inputs.
///
/// Memory layout: the point copy is stored in Hilbert insertion order, so
/// consecutive insertions touch neighbouring points and triangles, and the
/// vertex ids inside the soup are Hilbert ranks; `emit` maps them back to
/// the caller's ids.  A cavity's dead triangle slots are reused by the
/// triangles that refill it, so the soup holds ~2n records rather than one
/// per triangle ever created.  Neither changes the triangulation: every
/// predicate reads the same coordinates in the same vertex order.
class Triangulator {
 public:
  /// Triangulate `pts` into `out`, recycling `out`'s vectors.  Semantics are
  /// identical to the free function `triangulate`.
  void triangulate(std::span<const geom::Point> pts, Triangulation& out);

 private:
  struct Tri {
    std::array<int, 3> v;   // ccw vertices (Hilbert ranks)
    std::array<int, 3> nb;  // nb[i]: triangle across the edge opposite v[i]
    std::uint32_t mark = 0;  // == epoch_: in the current cavity
    bool alive = true;
  };  // 32 bytes: two records per cache line
  struct BEdge {
    int a, b, outside;
  };

  /// Copy `in` into pts_ in Hilbert order (ids_ records each point's index
  /// in `in`) and build over it; false on unhandled degeneracy.
  /// Sorts order_ (key << 32 | index) by key, ties by index.
  void sort_order();
  bool run(std::span<const geom::Point> in);
  void emit(Triangulation& out) const;  // append real triangles + edges
  int num_real() const { return static_cast<int>(ids_.size()); }
  void make_super_triangle(double min_x, double min_y, double max_x,
                           double max_y);
  bool in_circumcircle(int ti, const geom::Point& q) const;
  int locate(const geom::Point& p) const;
  bool insert(int pi);
  int new_tri_slot();

  std::vector<geom::Point> pts_;  ///< Hilbert order, then 3 super vertices
  std::vector<int> ids_;          ///< pts_ slot -> id reported by emit
  std::vector<Tri> tris_;
  std::vector<int> free_;    ///< dead slots awaiting reuse
  std::vector<int> fan_at_;  ///< vertex -> fan triangle (insert's linkage)
  std::vector<std::uint64_t> order_, order_tmp_;
  std::uint32_t epoch_ = 0;
  std::vector<int> cavity_, stack_, created_;
  std::vector<BEdge> boundary_;
  int last_ = -1;
};

/// Delaunay triangulation of `pts`.  Exact duplicates are merged; every
/// duplicate is connected to its representative by a zero-length edge in
/// `edges` so downstream spanning-tree builders stay connected.
/// Degenerate inputs (all points collinear) yield an edge path and no
/// triangles.
Triangulation triangulate(std::span<const geom::Point> pts);

/// Convenience: just the unique edges (candidate set for Kruskal).
std::vector<std::pair<int, int>> delaunay_edges(
    std::span<const geom::Point> pts);

}  // namespace dirant::delaunay
