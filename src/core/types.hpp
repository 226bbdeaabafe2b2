#pragma once
/// \file types.hpp
/// Shared types for the orientation algorithms (the paper's contribution).

#include <array>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "antenna/orientation.hpp"

namespace dirant::core {

/// Problem instance parameters: k antennae per sensor whose spreads sum to at
/// most phi (radians).  The goal is a strongly connected transmission graph
/// with the smallest possible range (paper §1.1).
struct ProblemSpec {
  int k = 1;
  double phi = 0.0;
};

/// Which construction produced an orientation.  The Table 1 regimes plus the
/// extension planners; every value is described by one row of the
/// AlgorithmRegistry (core/registry.hpp), which is also where `to_string`,
/// the guarantee table and the dispatch live — they cannot drift apart.
enum class Algorithm {
  kBtspCycle,      ///< any k, spread ~0: orientation along a bottleneck tour [14]
  kOneAntennaMid,  ///< k=1, pi <= phi < 8pi/5: range 2 sin(pi - phi/2)  [4]
  kTwoPart1,       ///< k=2, phi >= pi: range 2 sin(2pi/9)      (Theorem 3.1)
  kTwoPart2,       ///< k=2, 2pi/3 <= phi < pi: 2 sin(pi/2-phi/4) (Theorem 3.2)
  kThreeZero,      ///< k=3, any phi: range sqrt(3)              (Theorem 5)
  kFourZero,       ///< k=4, any phi: range sqrt(2)              (Theorem 6)
  kFiveZero,       ///< k=5: range 1                             (folklore)
  kTheorem2,       ///< phi_k >= 2pi(5-k)/5: range 1             (Theorem 2)
  // Extension planners (never returned by planned_algorithm; invoked
  // explicitly through the registry / PlanSession).
  kYaoBaseline,    ///< k equal cones, beam at nearest per cone (no guarantee)
  kBidirCycle,     ///< k=2 spread-0 bidirected bottleneck tour (2-connected)
  kHeterogeneous,  ///< per-node (k_i, phi_i) Lemma 1 covers over the MST
};

/// Number of Algorithm values (registry tables are indexed by the enum).
inline constexpr int kAlgorithmCount = static_cast<int>(Algorithm::kHeterogeneous) + 1;

const char* to_string(Algorithm a);

/// Flat ordered string->int map for case counters.  Keys are the small
/// fixed label vocabulary of the constructions (all <= 15 chars, inside
/// libstdc++'s SSO buffer), so steady-state bumps after a `clear()` reuse
/// the vector's capacity and never touch the heap — the property the
/// PlanSession zero-allocation contract relies on.  Iteration is in key
/// order, matching the std::map this replaces.
class CaseCounts {
 public:
  using value_type = std::pair<std::string, int>;
  using const_iterator = std::vector<value_type>::const_iterator;

  int& operator[](std::string_view key);
  /// std::map-compatible lookups (tests index by literal label).
  const int& at(std::string_view key) const;
  size_t count(std::string_view key) const;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Capacity-retaining clear.
  void clear() { entries_.clear(); }

 private:
  std::vector<value_type> entries_;  // sorted by key
};

/// Per-case instrumentation (regenerates the case analyses of Figures 3-6).
struct CaseStats {
  CaseCounts counts;
  int fallback_plans = 0;  ///< nodes where the proof-ordered case machinery
                           ///< failed and the exhaustive local search ran
                           ///< (must stay 0 on well-formed inputs)

  void bump(std::string_view key) { ++counts[key]; }
  void merge(const CaseStats& other);
  /// Capacity-retaining reset for result recycling.
  void reset() {
    counts.clear();
    fallback_plans = 0;
  }
};

/// Case counter for the orienters' per-node loops.  Labels are a small enum
/// (or index) into a static name table; the loop counts them in a flat
/// array and `flush` adds the labels that occurred into CaseStats once per
/// run, so the CaseStats it leaves equal one `bump(name)` per node without
/// a string lookup per node.
template <class Label, std::size_t N>
struct CaseTally {
  const std::array<std::string_view, N>& names;
  std::array<int, N> counts{};

  void bump(Label label) { ++counts[static_cast<std::size_t>(label)]; }
  void flush(CaseStats& stats) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (counts[i] > 0) stats.counts[names[i]] += counts[i];
    }
  }
};

/// Output of every orientation algorithm.
struct Result {
  antenna::Orientation orientation{0};
  Algorithm algorithm = Algorithm::kTheorem2;
  /// Guaranteed radius bound as a multiple of lmax (paper Table 1); +inf for
  /// the heuristic BTSP regime where only an approximation factor is known.
  double bound_factor = std::numeric_limits<double>::infinity();
  double lmax = 0.0;
  /// Largest radius any antenna actually needs (== orientation.max_radius()).
  double measured_radius = 0.0;
  CaseStats cases;
};

/// Recycle `out` for a fresh run over `n` sensors: resets the orientation
/// arena (reserving `reserve_per_node` antenna slots per sensor so repeated
/// runs never regrow the per-node buckets), zeroes the case counters and
/// stamps the regime header.  The session pipeline's replacement for
/// `out = Result{}`.
void reset_result(Result& out, int n, int reserve_per_node, Algorithm algo,
                  double bound_factor, double lmax);

}  // namespace dirant::core
