#pragma once
// Shared plumbing of the perfbench program: timing, the metric sink, the
// attempted/failed ledger, the output digest, the allocation counter, the
// per-workload scenario and the three phases every workload runs.

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/validate.hpp"
#include "geometry/generators.hpp"
#include "sim/audit.hpp"
#include "sim/churn.hpp"
#include "sim/traffic.hpp"

namespace perfbench {

namespace geom = dirant::geom;
namespace core = dirant::core;
namespace sim = dirant::sim;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <class F>
double time_ms(F&& body) {
  const auto t0 = Clock::now();
  body();
  return ms_since(t0);
}

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
/// The highest percentile with at least `beyond` samples above it: the
/// (size - beyond - 1)-th smallest value, or the maximum of a sample too
/// small to have one.
double tail_value(std::vector<double> v, int beyond = 10);
/// Deterministic per-purpose seed derivation (splitmix64 of seed ^ salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Name -> (value, unit), printed in the order they were set; each name
/// is set once.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, unit, value});
  }
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string json() const;

 private:
  struct Entry {
    std::string name, unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

/// Operation accounting: every timed operation is attempted once; it fails
/// when it throws or when one of its output checks does not hold.
class Ledger {
 public:
  /// Runs `op`, which returns whether its outputs passed their checks.
  template <class F>
  bool run(const char* what, F&& op) {
    ++attempted_;
    bool ok = false;
    try {
      ok = op();
    } catch (const std::exception& e) {
      note(what, e.what());
      ++failed_;
      return false;
    }
    if (!ok) {
      note(what, "output check failed");
      ++failed_;
    }
    return ok;
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void note(const char* what, const char* why);
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> errors_;  ///< the first few, for stderr
};

/// FNV-1a over the bits of every output it is fed, so two builds that
/// produce bit-identical results on one seed print the same digest.
class Digest {
 public:
  void bytes(const void* p, size_t n);
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void add(const core::Certificate& c);
  void add(const dirant::antenna::Orientation& o);
  void add(const sim::StepReport& r);
  void add(const sim::TrafficReport& r);
  std::uint64_t hash() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Output invariants: a certificate must certify, and every offered packet
/// must end exactly once (delivered, or under one drop cause).
bool certificate_holds(const core::Certificate& c);
bool traffic_balanced(const sim::TrafficReport& r);
/// Feeds deliberately broken outputs to the checks above; true when every
/// broken one is rejected and the intact ones pass.
bool self_check();

/// Allocation counter (alloc_hook.cpp): operator new calls on any thread
/// between arm and disarm.
void alloc_arm();
long long alloc_disarm();
template <class F>
long long count_allocations(F&& body) {
  alloc_arm();
  body();
  return alloc_disarm();
}

// ------------------------------------------------------------- scenarios

/// Planning at one size: orient -> certify on one session, then a
/// structural audit.  Instances come in (k = 2, k = 3) pairs over
/// alternating distributions; a round plans every pair once.
struct PlanConfig {
  int n = 0;
  int threads = 1;
  std::vector<geom::Distribution> dists;
};

/// Batched planning: one call holds `per_dist` instances of each of the
/// seven distributions; a round is five calls, k = 1..5.
struct FleetConfig {
  int n = 0;
  int per_dist = 1;
};

/// Long-lived networks: a fixed churn step stream, warm static traffic
/// runs, and traffic runs with churn batches landing mid-run.
struct OpsConfig {
  int n = 0;
  int waves = 25;    ///< length of the step stream, in waves
  int networks = 12;  ///< independent networks the static runs use
  int churn_networks = 3;  ///< the first of them, used by the churn runs
  int flows = 64;
  int packets = 150;
  int interval = 1600;
  int churn_batches = 4;  ///< batches landing mid-run in phase (c)
};

/// Share of the measuring time each phase gets.  Phases run interleaved,
/// one slice at a time, so each phase's samples spread over the whole run
/// and a burst of load on the machine lands on all of them alike.
struct Shares {
  double plan = 0, fleet = 0, churn = 0, traffic_static = 0,
         traffic_churn = 0;
};

struct Scenario {
  std::string name;
  PlanConfig plan;
  FleetConfig fleet;
  OpsConfig ops;
  Shares shares;
};

/// The phases' output streams.  Slices interleave by timing, so each
/// stream feeds its own digest; the printed digest combines them in this
/// fixed order.
enum Stream { kPlanOut, kFleetOut, kChurnOut, kStaticOut, kChurnTrafficOut,
              kStreams };

/// Everything a phase reports into.
struct Context {
  bool trace = false;
  Metrics metrics;  ///< end-to-end (trace 0) or per-layer (trace 1)
  Ledger ledger;
  Digest digest[kStreams];
  double ops_ms = 0.0;  ///< wall time of the timed end-to-end operations

  std::uint64_t combined_digest() const {
    Digest all;
    for (const Digest& d : digest) all.value(d.hash());
    return all.hash();
  }
};

// ---------------------------------------------------------------- phases
// Each phase's constructor is its set-up (inputs, cold sessions, first
// calls).  A slice is one timed unit of work; `can_stop` says whether the
// phase has reached a point where its metrics are balanced (whole rounds,
// minimum sample counts); `finish` reports.  The digest covers a fixed
// prefix of each phase's outputs, so it does not depend on how many
// slices the time budget allowed.

class PlanPhase {
 public:
  PlanPhase(const PlanConfig& cfg, std::uint64_t seed);
  ~PlanPhase();
  void slice(Context& ctx);
  bool can_stop() const { return next_ == 0 && round_ > 0; }
  void finish(Context& ctx);

 private:
  struct Instance {
    std::vector<geom::Point> pts;
    core::ProblemSpec spec;
  };
  struct Tracer;
  void trace(Context& ctx, const Instance& inst, double main_ms, bool record);

  PlanConfig cfg_;
  std::uint64_t failure_seed_;
  std::vector<Instance> instances_;
  core::PlanSession session_;
  sim::AuditSession audit_;
  std::unique_ptr<Tracer> tracer_;
  size_t next_ = 0;  ///< next instance of the current round
  int round_ = 0;
  /// Per instance, the best (orient + certify) and audit times so far.
  std::vector<double> best_plan_ms_, best_audit_ms_;
  std::vector<double> certify_ms_, load_ms_, flood_ms_;
};

class FleetPhase {
 public:
  FleetPhase(const FleetConfig& cfg, std::uint64_t seed);
  /// kRoundsPerSlice rounds back to back.  After the pool sat idle, this
  /// VM runs parallel calls 2-4x slower for about a second while its vCPUs
  /// wake, so a slice keeps the pool busy long enough for its later rounds
  /// to run warm.  The starting k of a round rotates, so every k is also
  /// timed late in a slice.
  void slice(Context& ctx);
  bool can_stop() const { return round_ > 0; }
  void finish(Context& ctx);

 private:
  static constexpr int kRoundsPerSlice = 4;
  /// One call per k.
  void round(Context& ctx);
  FleetConfig cfg_;
  std::vector<std::vector<geom::Point>> instances_;
  int round_ = 0;
  std::vector<double> best_call_ms_;  ///< per k, the best call time so far
  double call_ms_ = 0, busy_ms_ = 0, traced_ms_ = 0, serial_ms_ = 0;
};

class OpsPhase {
 public:
  OpsPhase(const OpsConfig& cfg, std::uint64_t seed);
  ~OpsPhase();
  /// (a) one wave cycle of the churn step stream on one replica.
  void churn_slice(Context& ctx);
  bool churn_done() const {
    return slices_ == kReplicas * cfg_.waves;
  }
  /// (b) one static traffic run, networks in turn; the first round warms
  /// the engines up and is not timed.
  void static_slice(Context& ctx);
  bool static_can_stop() const;
  /// (c) one traffic run with churn on a fresh engine pair, the first
  /// `churn_networks` networks in turn.
  void churn_traffic_slice(Context& ctx);
  bool churn_traffic_can_stop() const;
  void finish(Context& ctx);

 private:
  /// What replica 0 reported for one step of the stream.
  struct StepRecord {
    std::vector<sim::ChurnEvent> events;
    std::uint64_t report_hash = 0;
    std::vector<double> ms;  ///< one time per replica
    bool localized = false, reused = false;
    std::string escalation;  ///< empty when the step did not escalate
    int region = 0, planned = 0;
  };
  struct Network;
  void next_events(std::vector<sim::ChurnEvent>& out);

  static constexpr int kReplicas = 3;    ///< engines running the stream
  /// Timed runs per network, at least: static runs come after one
  /// untimed warm-up run per network.
  static constexpr int kMinStaticRuns = 2;
  static constexpr int kMinChurnRuns = 3;
  static constexpr int kWaveEvery = 8;   ///< every 8th step is a wave
  static constexpr int kFailBatch = 4;   ///< nodes an ordinary step fails
  static constexpr int kWaveMoves = 8;   ///< alive nodes a wave moves

  OpsConfig cfg_;
  /// Independent networks for the traffic phases; the churn stream runs
  /// on the first one's points.  Only the first `churn_networks` carry a
  /// churn schedule.
  std::vector<std::unique_ptr<Network>> nets_;
  /// Identical engines fed the identical stream; replica 0 draws the
  /// events from its alive set, the others replay them later in the run.
  std::vector<std::unique_ptr<sim::ChurnEngine>> replicas_;
  std::mt19937_64 events_rng_;
  int step_no_ = 0;
  sim::TrafficOptions opts_;

  // (a)
  int slices_ = 0;
  std::vector<StepRecord> steps_;
  long long churn_allocs_ = 0;
  // (b), (c)
  int static_runs_ = 0, churn_runs_ = 0;
  std::vector<double> init_ms_, replay_ms_;  ///< network 0, traced
};

/// The shared (k, phi) of plan_200k's pairs and the ops network.
core::ProblemSpec plan_spec(int k);
/// Fleet specs: one Table 1 row per k (see README.md).
core::ProblemSpec fleet_spec(int k);

}  // namespace perfbench
