#pragma once
/// \file exact.hpp
/// Sign-exact geometric predicates.
///
/// Combinatorial structures (MST ties, Delaunay) must not flip on
/// rounding noise.  `orient2d_sign` is fully exact: a floating-point filter
/// (Shewchuk's error bound) falls back to exact expansion arithmetic built on
/// `std::fma`.  `incircle_sign` uses a double filter, then a `__float128`
/// evaluation with its own error bound; inputs that remain undecidable at
/// 113-bit precision are reported as degenerate (0), which callers treat as
/// "cocircular".  For the coordinate magnitudes produced by this library's
/// generators (|x| < 2^26 after scaling) the float128 stage is itself exact.

#include "geometry/point.hpp"

namespace dirant::geom {

/// Sign of the signed area of triangle (a, b, c):
/// +1 if counterclockwise, -1 if clockwise, 0 if collinear.  Exact.
int orient2d_sign(const Point& a, const Point& b, const Point& c);

/// Twice the signed area of triangle (a, b, c) in double precision (not
/// exact; use for magnitudes, not decisions).
double orient2d_value(const Point& a, const Point& b, const Point& c);

/// Sign of the incircle determinant: +1 if `d` lies strictly inside the
/// circumcircle of the counterclockwise triangle (a, b, c), -1 if strictly
/// outside, 0 if (numerically) cocircular.
int incircle_sign(const Point& a, const Point& b, const Point& c,
                  const Point& d);

/// True if `p` lies inside or on the boundary of triangle (a, b, c)
/// (any vertex order).  Exact.
bool point_in_triangle(const Point& p, const Point& a, const Point& b,
                       const Point& c);

/// True if the closed triangle (a, b, c) contains no point of `pts` other
/// than the triangle's own corners (by index).  O(n) scan; used to validate
/// the paper's Fact 1(3) ("the triangle uvw is empty").
bool triangle_empty(const Point& a, const Point& b, const Point& c,
                    const Point* pts, int n, int ia, int ib, int ic);

}  // namespace dirant::geom
