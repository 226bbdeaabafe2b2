#include "delaunay/delaunay.hpp"

#include <algorithm>
#include <iterator>

#include "common/assert.hpp"
#include "geometry/exact.hpp"

namespace dirant::delaunay {

using geom::Point;

namespace {

// Distance along the order-16 Hilbert curve of the 65536x65536 grid.
// Branch-free: per level, flip both coordinates when (rx, ry) == (1, 0)
// and swap them when ry == 0.  A flip complements every bit, but later
// levels only read the bits below this one, where ~x equals the textbook
// s - 1 - x.  (The branchy form spent ~26 ms of a 200k-point build here,
// this one ~10 ms.)
std::uint64_t hilbert_d(std::uint32_t x, std::uint32_t y) {
  std::uint64_t d = 0;
  for (int b = 15; b >= 0; --b) {
    const std::uint32_t rx = (x >> b) & 1u;
    const std::uint32_t ry = (y >> b) & 1u;
    d += (std::uint64_t{1} << (2 * b)) * ((3 * rx) ^ ry);
    const std::uint32_t flip = 0u - (rx & (ry ^ 1u));
    x ^= flip;
    y ^= flip;
    const std::uint32_t swap = (x ^ y) & (0u - (ry ^ 1u));
    x ^= swap;
    y ^= swap;
  }
  return d;
}

}  // namespace

bool Triangulator::run(std::span<const Point> in) {
  const int m = static_cast<int>(in.size());
  // Hilbert-curve insertion order: consecutive points are spatially
  // adjacent, so the walking point location starting from the previous
  // cavity is O(1) expected steps instead of O(sqrt(n)).
  // Pack (hilbert key << 32 | index) so the sort runs on flat uint64s.
  order_.resize(m);
  double min_x = in[0].x, max_x = in[0].x;
  double min_y = in[0].y, max_y = in[0].y;
  for (const Point& p : in) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double sx = max_x > min_x ? (max_x - min_x) : 1.0;
  const double sy = max_y > min_y ? (max_y - min_y) : 1.0;
  for (int i = 0; i < m; ++i) {
    const auto hx =
        static_cast<std::uint32_t>(65535.0 * (in[i].x - min_x) / sx);
    const auto hy =
        static_cast<std::uint32_t>(65535.0 * (in[i].y - min_y) / sy);
    order_[i] = (hilbert_d(hx, hy) << 32) | static_cast<std::uint32_t>(i);
  }
  sort_order();
  // Store the copy in insertion order: slot k is the k-th point inserted.
  pts_.resize(m);
  ids_.resize(m);
  for (int k = 0; k < m; ++k) {
    const int i = static_cast<int>(order_[k] & 0xffffffffu);
    pts_[k] = in[i];
    ids_[k] = i;
  }
  tris_.clear();
  free_.clear();
  fan_at_.assign(static_cast<size_t>(m) + 3, -1);
  epoch_ = 0;
  make_super_triangle(min_x, min_y, max_x, max_y);
  for (int k = 0; k < m; ++k) {
    if (!insert(k)) return false;
  }
  return true;
}

void Triangulator::sort_order() {
  // LSD radix sort on the 32-bit key, 11 bits a pass.  Stable, and order_
  // starts in index order, so ties stay by index: the order std::sort
  // gives the packed (key << 32 | index) values.
  constexpr int kBits = 11;
  constexpr std::uint32_t kMask = (1u << kBits) - 1;
  order_tmp_.resize(order_.size());
  std::uint32_t count[1u << kBits];
  for (int shift = 32; shift < 64; shift += kBits) {
    std::fill(std::begin(count), std::end(count), 0u);
    for (const std::uint64_t x : order_) ++count[(x >> shift) & kMask];
    std::uint32_t sum = 0;
    for (auto& c : count) {
      const std::uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (const std::uint64_t x : order_) {
      order_tmp_[count[(x >> shift) & kMask]++] = x;
    }
    order_.swap(order_tmp_);
  }
}

void Triangulator::emit(Triangulation& out) const {
  const int m = num_real();
  for (int id = 0; id < static_cast<int>(tris_.size()); ++id) {
    const Tri& t = tris_[id];
    if (!t.alive) continue;
    if (t.v[0] < m && t.v[1] < m && t.v[2] < m) {
      out.triangles.push_back({ids_[t.v[0]], ids_[t.v[1]], ids_[t.v[2]]});
    }
    for (int i = 0; i < 3; ++i) {
      const int a = t.v[(i + 1) % 3], b = t.v[(i + 2) % 3];
      if (a >= m || b >= m) continue;
      // A real-real edge is interior (super-triangle hosting), so its
      // neighbour exists and is alive; emitting from the lower triangle
      // id only dedupes without the former sort+unique pass.
      if (t.nb[i] != -1 && t.nb[i] < id) continue;
      out.edges.emplace_back(std::min(ids_[a], ids_[b]),
                             std::max(ids_[a], ids_[b]));
    }
  }
}

void Triangulator::make_super_triangle(double min_x, double min_y,
                                       double max_x, double max_y) {
  const double cx = (min_x + max_x) / 2.0, cy = (min_y + max_y) / 2.0;
  const double r = std::max({max_x - min_x, max_y - min_y, 1.0});
  const double M = 1e6 * r;
  const int s = static_cast<int>(pts_.size());
  pts_.push_back({cx + M, cy - M});
  pts_.push_back({cx, cy + M});
  pts_.push_back({cx - M, cy - M});
  Tri t;
  t.v = {s, s + 1, s + 2};
  if (geom::orient2d_sign(pts_[s], pts_[s + 1], pts_[s + 2]) < 0) {
    std::swap(t.v[1], t.v[2]);
  }
  t.nb = {-1, -1, -1};
  tris_.push_back(t);
  last_ = 0;
}

// True if q is strictly inside the circumcircle of alive triangle ti.
bool Triangulator::in_circumcircle(int ti, const Point& q) const {
  const Tri& t = tris_[ti];
  return geom::incircle_sign(pts_[t.v[0]], pts_[t.v[1]], pts_[t.v[2]], q) > 0;
}

// Walking point location; returns an alive triangle containing p
// (boundary inclusive), or -1 on failure.
int Triangulator::locate(const Point& p) const {
  int t = last_;
  if (t < 0 || !tris_[t].alive) {
    t = -1;
    for (int i = static_cast<int>(tris_.size()) - 1; i >= 0; --i) {
      if (tris_[i].alive) {
        t = i;
        break;
      }
    }
    if (t == -1) return -1;
  }
  const int cap = 4 * static_cast<int>(tris_.size()) + 64;
  for (int step = 0; step < cap; ++step) {
    const Tri& tri = tris_[t];
    bool moved = false;
    for (int i = 0; i < 3; ++i) {
      const int a = tri.v[(i + 1) % 3], b = tri.v[(i + 2) % 3];
      if (geom::orient2d_sign(pts_[a], pts_[b], p) < 0) {
        const int nxt = tri.nb[i];
        if (nxt == -1) return -1;  // outside the super-triangle
        t = nxt;
        moved = true;
        break;
      }
    }
    if (!moved) return t;
  }
  // Walk cycled (can happen on wildly degenerate data): linear fallback.
  for (int i = 0; i < static_cast<int>(tris_.size()); ++i) {
    if (!tris_[i].alive) continue;
    const Tri& tri = tris_[i];
    bool inside = true;
    for (int e = 0; e < 3 && inside; ++e) {
      inside = geom::orient2d_sign(pts_[tri.v[(e + 1) % 3]],
                                   pts_[tri.v[(e + 2) % 3]], p) >= 0;
    }
    if (inside) return i;
  }
  return -1;
}

bool Triangulator::insert(int pi) {
  const Point& p = pts_[pi];
  const int t0 = locate(p);
  if (t0 == -1) return false;

  // Grow the cavity: all triangles whose circumcircle strictly contains p.
  // Cavity membership is an epoch stamp, not a cleared bitmap — clearing
  // O(#triangles) per insertion is what made large builds quadratic.  The
  // boundary — directed edges (a, b) of cavity triangles whose opposite
  // neighbour stays outside — is collected on the way: a neighbour is
  // either marked (inside) or tested once from this edge, and a failed
  // test is final.  Visit order only orders the boundary; the cavity is
  // the same set from any start inside it.
  ++epoch_;
  cavity_.clear();
  cavity_.push_back(t0);
  stack_.clear();
  stack_.push_back(t0);
  auto& boundary = boundary_;
  boundary.clear();
  tris_[t0].mark = epoch_;
  while (!stack_.empty()) {
    const int t = stack_.back();
    stack_.pop_back();
    for (int i = 0; i < 3; ++i) {
      const int nb = tris_[t].nb[i];
      if (nb != -1) {
        if (tris_[nb].mark == epoch_) continue;
        if (in_circumcircle(nb, p)) {
          tris_[nb].mark = epoch_;
          cavity_.push_back(nb);
          stack_.push_back(nb);
          continue;
        }
      }
      boundary.push_back(
          {tris_[t].v[(i + 1) % 3], tris_[t].v[(i + 2) % 3], nb});
    }
  }
  const auto& cavity = cavity_;
  // Each new triangle (p, a, b) must be ccw; a reflex boundary means the
  // predicate tie-handling produced a non-star cavity — report failure.
  for (const auto& e : boundary) {
    if (geom::orient2d_sign(p, pts_[e.a], pts_[e.b]) <= 0) return false;
  }

  // The cavity dies; its slots are refilled first.  A cavity of c
  // triangles has c + 2 boundary edges, so two records are appended per
  // insertion and no dead slot outlives it.
  for (int t : cavity) {
    tris_[t].alive = false;
    free_.push_back(t);
  }
  auto& created = created_;
  created.clear();
  for (const auto& e : boundary) {
    const int id = new_tri_slot();
    Tri& nt = tris_[id];
    nt.v = {pi, e.a, e.b};
    nt.nb = {e.outside, -1, -1};
    nt.alive = true;
    created.push_back(id);
    // Repair the outside triangle's back-pointer.
    if (e.outside != -1) {
      Tri& o = tris_[e.outside];
      for (int i = 0; i < 3; ++i) {
        const int oa = o.v[(i + 1) % 3], ob = o.v[(i + 2) % 3];
        if (oa == e.b && ob == e.a) {
          o.nb[i] = id;
          break;
        }
      }
    }
  }
  // Fan linkage: edge (b, p) of (p, a, b) meets the fan triangle starting
  // at b; edge (p, a) meets the one ending at a.  fan_at_ maps a vertex to
  // the last fan triangle (in creation order) starting at it, then to the
  // last one ending at it.  Entries left from earlier fans or the other
  // pass are caught by checking the found triangle: it must have apex pi
  // and the right vertex in the right place, or the boundary is no cycle.
  const auto fan_link = [&](int from, int to, int side) {
    for (int id : created) fan_at_[tris_[id].v[from]] = id;
    for (int id : created) {
      Tri& t = tris_[id];
      const int w = t.v[to];
      const int k = fan_at_[w];
      if (k < 0 || tris_[k].v[0] != pi || tris_[k].v[from] != w) return false;
      t.nb[side] = k;
    }
    return true;
  };
  if (!fan_link(1, 2, 1)) return false;  // edge (v2, v0) = (b, p)
  if (!fan_link(2, 1, 2)) return false;  // edge (v0, v1) = (p, a)
  if (!created.empty()) last_ = created.front();
  return true;
}

int Triangulator::new_tri_slot() {
  if (!free_.empty()) {
    const int id = free_.back();
    free_.pop_back();
    return id;
  }
  tris_.emplace_back();
  return static_cast<int>(tris_.size()) - 1;
}

void Triangulator::triangulate(std::span<const Point> pts, Triangulation& out) {
  out.triangles.clear();
  out.edges.clear();
  const int n = static_cast<int>(pts.size());
  if (n <= 1) return;

  // Fast path: assume the input is duplicate-free (the overwhelmingly
  // common case) and skip the dedup prepass and its extra copy entirely.
  // An exact duplicate always aborts the build — its cavity boundary holds
  // an edge through the duplicate itself, which fails the reflex check —
  // so correctness never depends on this guess.
  if (run(pts)) {
    emit(out);
    return;
  }

  // Merge exact duplicates: sort indices by coordinates (duplicates become
  // adjacent runs), then assign unique slots in input order so the
  // remapping below is monotone and edge lists stay sorted for free.
  // Degenerate-input path: allocates freely (it runs at most once per
  // adversarial instance, never in PlanSession steady state).
  std::vector<int> by_coord(n);
  for (int i = 0; i < n; ++i) by_coord[i] = i;
  std::sort(by_coord.begin(), by_coord.end(), [&](int a, int b) {
    if (pts[a].x != pts[b].x) return pts[a].x < pts[b].x;
    if (pts[a].y != pts[b].y) return pts[a].y < pts[b].y;
    return a < b;
  });
  std::vector<int> rep(n, -1);  // original -> representative original
  for (int s = 0; s < n;) {
    int e = s + 1;
    while (e < n && pts[by_coord[e]] == pts[by_coord[s]]) ++e;
    // Lowest original index in the run represents it (ties above sort by
    // index, so by_coord[s] is that minimum).
    for (int j = s; j < e; ++j) rep[by_coord[j]] = by_coord[s];
    s = e;
  }
  std::vector<Point> unique_pts;
  std::vector<int> unique_to_orig;
  for (int i = 0; i < n; ++i) {
    if (rep[i] == i) {
      unique_pts.push_back(pts[i]);
      unique_to_orig.push_back(i);
    } else {
      out.edges.emplace_back(rep[i], i);  // rep[i] < i by construction
    }
  }

  if (unique_pts.size() >= 2) {
    if (!run(unique_pts)) {
      out.edges.clear();  // signal failure: caller falls back
      out.triangles.clear();
      return;
    }
    for (int& id : ids_) id = unique_to_orig[id];  // emit original ids
    emit(out);
  }
  // Already unique: duplicate-merge edges pair a representative with a
  // non-representative, triangulation edges pair two representatives, and
  // emit() writes each interior edge from one triangle only.
}

Triangulation triangulate(std::span<const Point> pts) {
  Triangulation out;
  Triangulator builder;
  builder.triangulate(pts, out);
  return out;
}

std::vector<std::pair<int, int>> delaunay_edges(std::span<const Point> pts) {
  return triangulate(pts).edges;
}

}  // namespace dirant::delaunay
