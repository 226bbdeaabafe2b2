// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <plan_200k|fleet_2k|ops_10k> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny]
//             [--git-sha <sha>] [--src-sha <sha>]
//   perfbench --self-check
//
// One process runs one workload: set-up (repeated, median reported), then
// the plan, fleet and ops phases within the time budget.  Every workload
// runs all three phases, sized so that its own layers do most of the work
// (README.md gives the sizes and why).  The last line of stdout is the
// result object; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones.  --tiny shrinks every size for the self-test.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using geom::Distribution;

Scenario make_scenario(const std::string& name, bool tiny) {
  Scenario s;
  s.name = name;
  // Companion sizes: the phases a workload is not built around run small.
  // Many inputs each, so a companion's figure does not hang on a single
  // small input.
  s.plan = {2000, 1, {}};
  for (int i = 0; i < 4; ++i) {
    s.plan.dists.push_back(Distribution::kUniformSquare);
    s.plan.dists.push_back(Distribution::kClusters);
  }
  s.fleet = {2000, 4};
  s.ops = {};
  s.ops.n = 2000;
  s.ops.networks = 12;
  s.ops.churn_networks = 6;
  s.shares = {0.05, 0.05, 0.06, 0.1, 0.12};
  if (name == "plan_200k") {
    s.plan.n = 200000;
    s.plan.threads = 4;
    s.plan.dists = {Distribution::kUniformSquare, Distribution::kClusters};
    s.shares.plan = 0.62;
  } else if (name == "fleet_2k") {
    s.fleet.per_dist = 8;
    s.shares.fleet = 0.62;
  } else if (name == "ops_10k") {
    s.ops.n = 10000;
    s.ops.networks = 12;
    s.ops.churn_networks = 3;
    s.shares.churn = 0.27;
    s.shares.traffic_static = 0.3;
    s.shares.traffic_churn = 0.33;
  } else {
    s.name.clear();
  }
  if (tiny) {
    s.plan.n = std::min(s.plan.n, 600);
    s.fleet.n = 300;
    s.ops.n = 400;
    s.ops.waves = 12;
    s.ops.networks = 2;
    s.ops.churn_networks = 2;
    s.ops.flows = 8;
    s.ops.packets = 10;
    s.ops.interval = 120;
    s.ops.churn_batches = 2;
  }
  return s;
}

struct Args {
  std::string workload, git_sha = "unknown", src_sha = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false, tiny = false, self_check = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (key == "--tiny") {
      a.tiny = true;
    } else if (key == "--self-check") {
      a.self_check = true;
    } else {
      const char* v = next();
      if (!v) return false;
      if (key == "--workload") a.workload = v;
      else if (key == "--seed") a.seed = std::strtoull(v, nullptr, 10);
      else if (key == "--seconds") a.seconds = std::atof(v);
      else if (key == "--trace") a.trace = std::atoi(v) != 0;
      else if (key == "--git-sha") a.git_sha = v;
      else if (key == "--src-sha") a.src_sha = v;
      else return false;
    }
  }
  return a.self_check || (!a.workload.empty() && a.seconds > 0);
}

struct Phases {
  std::unique_ptr<PlanPhase> plan;
  std::unique_ptr<FleetPhase> fleet;
  std::unique_ptr<OpsPhase> ops;
};

int run(const Args& args) {
  const auto process_start = Clock::now();
  const Scenario sc = make_scenario(args.workload, args.tiny);
  if (sc.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up three times from scratch (fresh inputs, sessions and engines);
  // the last one is kept for measuring.  The pool-resident sessions of
  // orient_batch outlive a repetition, so only the first pays their warm-up
  // (reported as core.batch_cold_ms).
  constexpr int kSetups = 3;
  std::vector<double> setup_ms;
  Phases ph;
  for (int r = 0; r < kSetups; ++r) {
    ph = {};
    setup_ms.push_back(time_ms([&] {
      ph.plan = std::make_unique<PlanPhase>(sc.plan, args.seed);
      ph.fleet = std::make_unique<FleetPhase>(sc.fleet, args.seed);
      ph.ops = std::make_unique<OpsPhase>(sc.ops, args.seed);
    }));
  }
  const double first_op_s = ms_since(process_start) / 1000.0;

  Context ctx;
  ctx.trace = args.trace;
  // Deficit round robin: the next slice goes to the phase furthest below
  // its share of the time used so far.  After --seconds, a phase still
  // gets slices until it can stop (whole rounds, minimum samples, the
  // whole churn step stream).
  struct Slot {
    const char* name;
    double share;
    std::function<void()> slice;
    std::function<bool()> can_stop;
    std::function<bool()> done;  ///< takes no more slices at all
    double used_ms = 0.0;
  };
  const auto never = [] { return false; };
  Slot slots[] = {
      {"plan", sc.shares.plan, [&] { ph.plan->slice(ctx); },
       [&] { return ph.plan->can_stop(); }, never},
      {"fleet", sc.shares.fleet, [&] { ph.fleet->slice(ctx); },
       [&] { return ph.fleet->can_stop(); }, never},
      {"churn", sc.shares.churn, [&] { ph.ops->churn_slice(ctx); },
       [&] { return ph.ops->churn_done(); },
       [&] { return ph.ops->churn_done(); }},
      {"static", sc.shares.traffic_static, [&] { ph.ops->static_slice(ctx); },
       [&] { return ph.ops->static_can_stop(); }, never},
      {"churn_traffic", sc.shares.traffic_churn,
       [&] { ph.ops->churn_traffic_slice(ctx); },
       [&] { return ph.ops->churn_traffic_can_stop(); }, never},
  };
  const auto t0 = Clock::now();
  for (;;) {
    const bool over = ms_since(t0) >= args.seconds * 1000.0;
    Slot* next = nullptr;
    for (Slot& s : slots) {
      if (s.done() || (over && s.can_stop())) continue;
      if (!next || s.used_ms / s.share < next->used_ms / next->share) {
        next = &s;
      }
    }
    if (!next) break;
    next->used_ms += time_ms(next->slice);
  }
  const double measure_ms = ms_since(t0);
  ph.plan->finish(ctx);
  ph.fleet->finish(ctx);
  ph.ops->finish(ctx);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!ctx.trace) {
    ctx.metrics.set("setup_s", median(setup_ms) / 1000.0, "s");
    ctx.metrics.set("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    ctx.metrics.set("trace_overhead", measure_ms / ctx.ops_ms - 1.0, "ratio");
  }

  for (const auto& e : ctx.ledger.errors()) {
    std::fprintf(stderr, "FAILED %s\n", e.c_str());
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
              sc.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? " tiny" : "");
  std::printf(
      "provenance: {\"hw_threads\": %u, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"src_sha\": \"%s\"}\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      args.git_sha.c_str(), args.src_sha.c_str());
  std::printf("timing: first_op_s=%.3f setup_ms=[%.1f, %.1f, %.1f] "
              "measure_s=%.3f",
              first_op_s, setup_ms[0], setup_ms[1], setup_ms[2],
              measure_ms / 1000.0);
  for (const Slot& s : slots) std::printf(" %s=%.3f", s.name, s.used_ms / 1000.0);
  std::printf("\n");
  std::printf("digest: %016llx\n",
              static_cast<unsigned long long>(ctx.combined_digest()));
  const bool correct = ctx.ledger.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", ctx.ledger.attempted(), ctx.ledger.failed(),
      ctx.metrics.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] | --self-check\n");
    return 2;
  }
  if (args.self_check) {
    const bool ok = perfbench::self_check();
    std::printf("self-check: %s\n", ok ? "broken outputs rejected" : "FAILED");
    return ok ? 0 : 1;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
