// Golden outputs of the plan path (EMST -> degree repair -> orient ->
// certify) on exact-tie families: unjittered lattices, co-circular rings
// around their centre, exactly collinear points, plus uniform and clustered
// instances, at n in {2, 3, 64, 2000} and every Table 1 row at its
// regime's phi.  Each (family, n) pins three FNV-1a hashes — orientation
// (every sector bitwise, plus the Result header), certificate, and
// CaseStats — so a layout change anywhere in the pipeline (triangulator
// storage, tree views, case-label bookkeeping) that moves a single bit or
// a single tie-break shows up here.  The hashes were recorded before the
// Hilbert-ordered triangulator and the preorder tree view went in.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "core/session.hpp"
#include "geometry/generators.hpp"

namespace geom = dirant::geom;
namespace core = dirant::core;
using dirant::kPi;

namespace {

struct Hasher {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double x) { bytes(&x, sizeof x); }
  void i64(long long x) { bytes(&x, sizeof x); }
  void str(const std::string& s) {
    i64(static_cast<long long>(s.size()));
    bytes(s.data(), s.size());
  }
};

// Every Table 1 row at a phi inside its regime (the bottleneck-cycle rows
// only up to n = 64; see run_family).
const std::vector<core::ProblemSpec>& table1_specs() {
  static const std::vector<core::ProblemSpec> specs = {
      {1, 0.0},           {1, kPi},          {1, 8.0 * kPi / 5.0},
      {2, 0.0},           {2, 2.0 * kPi / 3.0}, {2, kPi},
      {2, 6.0 * kPi / 5.0}, {3, 0.0},        {3, 4.0 * kPi / 5.0},
      {4, 0.0},           {4, 2.0 * kPi / 5.0}, {5, 0.0},
  };
  return specs;
}

// Row-major integer lattice, ceil(sqrt(n)) wide, no jitter.
std::vector<geom::Point> lattice(int n) {
  const int w = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<geom::Point> pts;
  for (int i = 0; i < n; ++i) pts.push_back({double(i % w), double(i / w)});
  return pts;
}

// The centre, then rings of exactly co-circular integer points: every
// lattice point of x^2 + y^2 = 32045^2 (324 of them; 32045 = 5*13*17*29),
// taken in angle order, scaled by 1, 2, 3, ... for the later rings.  A
// partly used ring takes evenly spaced points of the base ring.
std::vector<geom::Point> rings(int n) {
  constexpr long long r = 32045;
  std::vector<geom::Point> base;
  for (long long x = -r; x <= r; ++x) {
    const long long y2 = r * r - x * x;
    const auto y = static_cast<long long>(std::llround(std::sqrt(double(y2))));
    if (y * y != y2) continue;
    base.push_back({double(x), double(y)});
    if (y != 0) base.push_back({double(x), double(-y)});
  }
  std::sort(base.begin(), base.end(), [](const auto& a, const auto& b) {
    return std::atan2(a.y, a.x) < std::atan2(b.y, b.x);
  });
  const int per_ring = static_cast<int>(base.size());
  std::vector<geom::Point> pts = {{0.0, 0.0}};
  for (int ring = 1; static_cast<int>(pts.size()) < n; ++ring) {
    const int take = std::min(per_ring, n - static_cast<int>(pts.size()));
    for (int j = 0; j < take; ++j) {
      const auto& p = base[static_cast<size_t>(j) * per_ring / take];
      pts.push_back({p.x * ring, p.y * ring});
    }
  }
  return pts;
}

// Exactly collinear: integer multiples of (3, 2) with uneven gaps, shuffled
// by a fixed stride so the input order is not the line order.
std::vector<geom::Point> collinear(int n) {
  std::vector<geom::Point> pts;
  for (int i = 0; i < n; ++i) {
    const long long j = (7LL * i) % n;
    const double t = static_cast<double>(3 * j + (j * j) % 3);
    pts.push_back({3.0 * t, 2.0 * t});
  }
  return pts;
}

std::vector<geom::Point> random_instance(geom::Distribution d, int n) {
  geom::Rng rng(9000 + n);
  return geom::make_instance(d, n, rng);
}

struct Golden {
  const char* family;
  int n;
  std::uint64_t orientation, certificate, cases;
};

// Recorded with this file's hashing at the commit before the
// Hilbert-ordered triangulator and the preorder tree view.
constexpr Golden kGolden[] = {
    {"lattice", 2, 0x747df8d6dea068e5ull, 0xc2ac96d9d297e583ull, 0xf05884cab3cc38c0ull},
    {"lattice", 3, 0x9d937786ca6aaaa5ull, 0x75bca240525cc6ebull, 0x48ac1092f9f5f11full},
    {"lattice", 64, 0x1eca7c9b4377395eull, 0x07bc03620f1710b4ull, 0xd630a26eaaba1e92ull},
    {"lattice", 2000, 0xc67ae061aa1a9703ull, 0x5307e905f52b3d3cull, 0x1785b7d87dd7fc28ull},
    {"rings", 2, 0x7509f97f010637a9ull, 0x7d1b1186af2c611bull, 0xf05884cab3cc38c0ull},
    {"rings", 3, 0xe385dd2d38db2379ull, 0x38d5860ed07457ffull, 0x48ac1092f9f5f11full},
    {"rings", 64, 0x54eb8e0b6e42f448ull, 0x47879b3ae41bc71aull, 0xe83d5b9b2654b4ecull},
    {"rings", 2000, 0x5fffe3c6216a4c0aull, 0xd8dd51afeb598bfdull, 0x3187601bcdf27676ull},
    {"collinear", 2, 0xeedbd6c4213e5455ull, 0xee8d12b1ccfe723bull, 0xf05884cab3cc38c0ull},
    {"collinear", 3, 0xe05b969e9da91c49ull, 0x04205f12558640e3ull, 0x48ac1092f9f5f11full},
    {"collinear", 64, 0x22e94e0bd2e218fdull, 0x04205f12558640e3ull, 0x32ce5c287160b25full},
    {"collinear", 2000, 0xa26451780d55b695ull, 0x64dbb73674c53613ull, 0x91821754cea86717ull},
    {"uniform", 2, 0xc3fc2757d3d4150dull, 0xccd9f3edb8f0d183ull, 0xf05884cab3cc38c0ull},
    {"uniform", 3, 0x278b5ca714425149ull, 0x77dd2912b479f8bfull, 0x48ac1092f9f5f11full},
    {"uniform", 64, 0xbd44e07e47958493ull, 0x57002c67dc4146e5ull, 0x748f49b67e044c30ull},
    {"uniform", 2000, 0x98ee559c7a8d4975ull, 0x39a4e8aa69d094b0ull, 0x9dc80d4ddbe2b5e6ull},
    {"clusters", 2, 0xf23fe96bf487ec21ull, 0x3c3bb8fd2ea11ca3ull, 0xf05884cab3cc38c0ull},
    {"clusters", 3, 0xc9b74d597e0a4fa1ull, 0xcc4733391a586c33ull, 0x48ac1092f9f5f11full},
    {"clusters", 64, 0xc91efc8df07b5d2eull, 0x59fa8f981e73e012ull, 0x96725d8b37126817ull},
    {"clusters", 2000, 0xfb7258b1942b2be3ull, 0xf499a07ef0685d60ull, 0xf8b9e8ae188150c4ull},
};

std::vector<geom::Point> family_points(const std::string& family, int n) {
  if (family == "lattice") return lattice(n);
  if (family == "rings") return rings(n);
  if (family == "collinear") return collinear(n);
  if (family == "uniform") {
    return random_instance(geom::Distribution::kUniformSquare, n);
  }
  return random_instance(geom::Distribution::kClusters, n);
}

Golden run_family(core::PlanSession& session, const char* family, int n) {
  const auto pts = family_points(family, n);
  Hasher ho, hc, hs;
  for (const auto& spec : table1_specs()) {
    // The bottleneck-cycle rows (k <= 2 at phi = 0) run their tour search
    // over the whole instance: 13-63 s per call at n = 2000.
    if (spec.k <= 2 && spec.phi == 0.0 && n > 64) continue;
    const core::Result& res = session.orient(pts, spec);
    ho.i64(static_cast<int>(res.algorithm));
    ho.f64(res.bound_factor);
    ho.f64(res.lmax);
    ho.f64(res.measured_radius);
    const auto& o = res.orientation;
    ho.i64(o.size());
    for (int u = 0; u < o.size(); ++u) {
      ho.i64(static_cast<long long>(o.antennas(u).size()));
      for (const auto& s : o.antennas(u)) {
        ho.f64(s.apex.x);
        ho.f64(s.apex.y);
        ho.f64(s.start);
        ho.f64(s.width);
        ho.f64(s.radius);
      }
    }
    for (const auto& [label, count] : res.cases.counts) {
      hs.str(label);
      hs.i64(count);
    }
    hs.i64(res.cases.fallback_plans);
    const core::Certificate& c = session.certify(pts, spec);
    EXPECT_TRUE(c.ok()) << family << " n=" << n << " k=" << spec.k
                        << " phi=" << spec.phi;
    hc.i64(c.strongly_connected);
    hc.i64(c.scc_count);
    hc.f64(c.max_radius);
    hc.f64(c.max_spread_sum);
    hc.i64(c.max_antennas);
    hc.i64(c.spread_within_budget);
    hc.i64(c.antennas_within_k);
    hc.i64(c.radius_within_bound);
  }
  return {family, n, ho.h, hc.h, hs.h};
}

}  // namespace

TEST(PlanGolden, ExactTieFamiliesMatchRecordedHashes) {
  core::PlanSession session;
  std::string table;
  for (const char* family :
       {"lattice", "rings", "collinear", "uniform", "clusters"}) {
    for (int n : {2, 3, 64, 2000}) {
      const Golden got = run_family(session, family, n);
      char line[160];
      std::snprintf(line, sizeof line,
                    "    {\"%s\", %d, 0x%016llxull, 0x%016llxull, "
                    "0x%016llxull},\n",
                    family, n, static_cast<unsigned long long>(got.orientation),
                    static_cast<unsigned long long>(got.certificate),
                    static_cast<unsigned long long>(got.cases));
      table += line;
      const Golden* want = nullptr;
      for (const auto& g : kGolden) {
        if (std::strcmp(g.family, family) == 0 && g.n == n) want = &g;
      }
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row for " << family << " n=" << n;
        continue;
      }
      EXPECT_EQ(got.orientation, want->orientation) << family << " n=" << n;
      EXPECT_EQ(got.certificate, want->certificate) << family << " n=" << n;
      EXPECT_EQ(got.cases, want->cases) << family << " n=" << n;
    }
  }
  if (HasFailure()) std::printf("actual table:\n%s", table.c_str());
}
