// Operations phase on one long-lived network, serial:
//   (a) a fixed ChurnEngine step stream — small fail batches, and every
//       8th step a wave that recovers every dead node and moves
//       a few alive ones, so the alive count returns to n;
//   (b) warm static TrafficEngine runs (no churn, no route rebuilds);
//   (c) the same flows with churn batches landing mid-run, a fresh
//       ChurnEngine + TrafficEngine pair per run.
// Traced runs replay (c)'s batches on a twin engine to split a run into
// churn steps and the traffic engine's own topology work.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

namespace {

/// x8's many-to-few schedule, shifted by a seed-drawn offset: 64 flows of
/// 150 packets whose aggregate inject rate stays below the collection
/// trunk's service rate.
sim::TrafficSchedule make_flows(const OpsConfig& cfg, std::uint64_t seed) {
  const int n = cfg.n;
  const int offset = static_cast<int>(mix_seed(seed, 310) % n);
  sim::TrafficSchedule sched;
  for (int i = 0; i < cfg.flows; ++i) {
    sim::Flow f;
    f.src = (i * 37 + 1 + offset) % n;
    f.dst = (i * 53 + n / 2 + offset) % n;
    if (f.dst == f.src) f.dst = (f.dst + 1) % n;
    f.packets = cfg.packets;
    f.start = static_cast<std::uint64_t>(7 * i);
    f.interval = static_cast<std::uint64_t>(cfg.interval);
    sched.flows.push_back(f);
  }
  return sched;
}

constexpr std::string_view kEscalations[] = {
    "pool-invalid", "below-prim-cutoff", "pool-oversized",
    "pool-disconnected"};

}  // namespace

/// One traffic network: points, its plan (which owns the orientation the
/// static engine is bound to), and the flows with and without churn.
struct OpsPhase::Network {
  std::vector<geom::Point> pts;
  core::PlanSession plan;
  sim::TrafficEngine engine;
  sim::TrafficSchedule flows, churn_sched;
  std::vector<double> static_ms, churn_ms;
  sim::TrafficReport static_report;
};

OpsPhase::OpsPhase(const OpsConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), events_rng_(mix_seed(seed, 300)) {
  const core::ProblemSpec spec = plan_spec(2);
  opts_.policy = sim::RoutingPolicy::kGreedyTreeFallback;
  opts_.loss = {sim::LossKind::kBernoulli, 0.2, 0, 0, 0};
  opts_.arq.max_retries = 6;
  opts_.ttl = 2048;
  opts_.queue_capacity = 32;
  opts_.seed = mix_seed(seed, 330);

  for (int i = 0; i < cfg_.networks; ++i) {
    auto net = std::make_unique<Network>();
    const std::uint64_t net_seed = mix_seed(seed, 340 + i);
    geom::Rng rng(mix_seed(net_seed, 301));
    net->pts = geom::make_instance(geom::Distribution::kUniformSquare, cfg_.n,
                                   rng);
    net->flows = make_flows(cfg_, net_seed);
    if (i < cfg_.churn_networks) {
      net->churn_sched = net->flows;
      const auto& last = net->flows.flows.back();
      const std::uint64_t horizon =
          last.start + static_cast<std::uint64_t>(cfg_.packets) * last.interval;
      sim::ChurnEngine source;
      source.init(net->pts, spec);
      for (int b = 0; b < cfg_.churn_batches; ++b) {
        sim::TimedChurnBatch batch;
        batch.tick = horizon * (b + 1) / (cfg_.churn_batches + 1);
        source.poisson_schedule(mix_seed(net_seed, 320), b + 1,
                                /*fail_rate=*/0.01, /*recover_rate=*/0.3,
                                /*move_rate=*/0.01, /*move_radius=*/0.02,
                                batch.events);
        net->churn_sched.churn.push_back(std::move(batch));
      }
    }
    net->engine.bind(net->pts, net->plan.orient(net->pts, spec).orientation);
    nets_.push_back(std::move(net));
  }
  for (int r = 0; r < kReplicas; ++r) {
    replicas_.push_back(std::make_unique<sim::ChurnEngine>());
    const auto& rep = replicas_.back()->init(nets_[0]->pts, spec);
    if (!certificate_holds(rep.certificate)) {
      throw std::runtime_error("ops set-up: init certificate does not hold");
    }
  }
}

OpsPhase::~OpsPhase() = default;

void OpsPhase::next_events(std::vector<sim::ChurnEvent>& out) {
  out.clear();
  ++step_no_;
  const sim::ChurnEngine& eng = *replicas_[0];
  const auto& alive = eng.alive();
  const auto pick = [&](int count, sim::ChurnEventKind kind) {
    std::uniform_real_distribution<double> shift(-0.25, 0.25);
    while (count > 0) {
      const int u = static_cast<int>(events_rng_() % cfg_.n);
      bool taken = !alive[u];
      for (const auto& e : out) taken = taken || e.node == u;
      if (taken) continue;
      sim::ChurnEvent e{kind, u, {}};
      if (kind == sim::ChurnEventKind::kMove) {
        e.to = eng.positions()[u];
        e.to.x += shift(events_rng_);
        e.to.y += shift(events_rng_);
      }
      out.push_back(e);
      --count;
    }
  };
  if (step_no_ % kWaveEvery != 0) {
    pick(kFailBatch, sim::ChurnEventKind::kFail);
    return;
  }
  for (int u = 0; u < cfg_.n; ++u) {
    if (!alive[u]) out.push_back({sim::ChurnEventKind::kRecover, u, {}});
  }
  pick(kWaveMoves, sim::ChurnEventKind::kMove);
}

void OpsPhase::churn_slice(Context& ctx) {
  const int r = slices_ / cfg_.waves;
  const int cycle = slices_ % cfg_.waves;
  sim::ChurnEngine& eng = *replicas_[r];
  for (int i = 0; i < kWaveEvery; ++i) {
    const size_t step = static_cast<size_t>(cycle * kWaveEvery + i);
    if (r == 0) {
      steps_.emplace_back();
      next_events(steps_.back().events);
    }
    StepRecord& rec = steps_[step];
    const bool wave = (step + 1) % kWaveEvery == 0;
    ctx.ledger.run("churn step", [&] {
      const sim::StepReport* rep = nullptr;
      double ms = 0.0;
      // One ordinary step of the second cycle is counted for allocations;
      // the armed hook costs one relaxed increment per allocation.
      if (ctx.trace && r == 0 && cycle == 1 && i == 0) {
        churn_allocs_ = count_allocations(
            [&] { ms = time_ms([&] { rep = &eng.step(rec.events); }); });
      } else {
        ms = time_ms([&] { rep = &eng.step(rec.events); });
      }
      ctx.ops_ms += ms;
      rec.ms.push_back(ms);
      Digest d;
      d.add(*rep);
      if (r > 0) return d.hash() == rec.report_hash;  // replays match
      rec.report_hash = d.hash();
      if (cycle < 2) ctx.digest[kChurnOut].add(*rep);
      rec.localized = rep->localized_mst;
      rec.reused = rep->cert_reused;
      rec.escalation = rep->escalation ? rep->escalation : "";
      rec.region = rep->mst_region;
      rec.planned = rep->orient_planned;
      bool applied = true;
      for (const auto& e : rep->events) applied = applied && e.applied;
      return certificate_holds(rep->certificate) && applied &&
             (!wave || rep->alive == cfg_.n);
    });
  }
  ++slices_;
}

bool OpsPhase::static_can_stop() const {
  return static_runs_ >= (1 + kMinStaticRuns) * cfg_.networks &&
         static_runs_ % cfg_.networks == 0;
}

bool OpsPhase::churn_traffic_can_stop() const {
  return churn_runs_ >= kMinChurnRuns * cfg_.churn_networks &&
         churn_runs_ % cfg_.churn_networks == 0;
}

void OpsPhase::static_slice(Context& ctx) {
  Network& net = *nets_[static_runs_ % cfg_.networks];
  // The first run on an engine sizes its buffers.  It takes as long as a
  // warm one, so it runs here rather than in set-up, where it would be
  // paid three times; it is checked and digested but not timed.
  const bool warm_up = static_runs_ < cfg_.networks;
  ++static_runs_;
  const long long offered = static_cast<long long>(cfg_.flows) * cfg_.packets;
  ctx.ledger.run("static traffic", [&] {
    const sim::TrafficReport* rep = nullptr;
    const double ms =
        time_ms([&] { rep = &net.engine.run(net.flows, opts_); });
    ctx.ops_ms += ms;
    if (warm_up) {
      ctx.digest[kStaticOut].add(*rep);
    } else {
      net.static_ms.push_back(ms);
    }
    net.static_report = *rep;
    return traffic_balanced(*rep) && rep->offered == offered;
  });
}

void OpsPhase::churn_traffic_slice(Context& ctx) {
  const core::ProblemSpec spec = plan_spec(2);
  const long long offered = static_cast<long long>(cfg_.flows) * cfg_.packets;
  const int index = churn_runs_ % cfg_.churn_networks;
  Network& net = *nets_[index];
  const bool first = churn_runs_ < cfg_.churn_networks;
  ++churn_runs_;
  sim::ChurnEngine churn;
  sim::TrafficEngine traffic;
  ctx.ledger.run("churn traffic", [&] {
    churn.init(net.pts, spec);
    traffic.attach_churn(churn);
    const sim::TrafficReport* rep = nullptr;
    const double ms =
        time_ms([&] { rep = &traffic.run(net.churn_sched, opts_); });
    ctx.ops_ms += ms;
    net.churn_ms.push_back(ms);
    if (first) {
      ctx.digest[kChurnTrafficOut].add(*rep);
      ctx.digest[kChurnTrafficOut].add(churn.last_report());
    }
    return traffic_balanced(*rep) && rep->offered == offered &&
           certificate_holds(churn.last_report().certificate);
  });
  if (!ctx.trace || index != 0) return;
  ctx.ledger.run("churn replay", [&] {
    sim::ChurnEngine twin;
    init_ms_.push_back(time_ms([&] { twin.init(net.pts, spec); }));
    double steps_ms = 0.0;
    bool ok = true;
    for (const auto& batch : net.churn_sched.churn) {
      steps_ms += time_ms([&] { twin.step(batch.events); });
      ok = ok && certificate_holds(twin.last_report().certificate);
    }
    replay_ms_.push_back(steps_ms);
    Digest a, b;
    a.add(twin.last_report());
    b.add(churn.last_report());
    return ok && a.hash() == b.hash();
  });
}

void OpsPhase::finish(Context& ctx) {
  // Medians, not best-of: a step's time is the median of its replicas and
  // a network's traffic time the median of its runs.  Whether a sample
  // catches one of the host's fast windows is luck, so across runs a
  // best-of spreads more than a median (README.md gives the figures).
  std::vector<double> step_ms;
  for (const StepRecord& rec : steps_) step_ms.push_back(median(rec.ms));
  const auto best_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  double static_ms = 0.0, churn_ms = 0.0;
  for (int i = 0; i < cfg_.networks; ++i) {
    static_ms += median(nets_[i]->static_ms);
    if (i < cfg_.churn_networks) churn_ms += median(nets_[i]->churn_ms);
  }
  const double per_network = static_cast<double>(cfg_.flows) * cfg_.packets;
  Metrics& m = ctx.metrics;
  if (!ctx.trace) {
    std::printf("churn_step_ms_tail: sample %zu of %zu in ascending order\n",
                step_ms.size() > 10 ? step_ms.size() - 10 : step_ms.size(),
                step_ms.size());
    m.set("churn_step_ms_p50", median(step_ms), "ms");
    m.set("churn_step_ms_tail", tail_value(step_ms, 10), "ms");
    m.set("traffic_static_pkts_per_s",
          per_network * cfg_.networks / (static_ms / 1000.0), "1/s");
    m.set("traffic_churn_pkts_per_s",
          per_network * cfg_.churn_networks / (churn_ms / 1000.0), "1/s");
    return;
  }
  std::vector<double> localized_ms, escalated_ms;
  double localized = 0, reused = 0, escalated = 0, other = 0, region = 0,
         planned = 0;
  std::vector<double> reasons(std::size(kEscalations), 0.0);
  for (size_t s = 0; s < steps_.size(); ++s) {
    const StepRecord& rec = steps_[s];
    if (rec.localized) {
      ++localized;
      localized_ms.push_back(step_ms[s]);
    }
    reused += rec.reused;
    region += rec.region;
    planned += rec.planned;
    if (rec.escalation.empty()) continue;
    ++escalated;
    escalated_ms.push_back(step_ms[s]);
    const auto* it = std::find(std::begin(kEscalations),
                               std::end(kEscalations), rec.escalation);
    if (it == std::end(kEscalations)) {
      ++other;
    } else {
      ++reasons[it - std::begin(kEscalations)];
    }
  }
  const double steps = static_cast<double>(steps_.size());
  m.set("churn.init_ms", best_of(init_ms_), "ms");
  m.set("churn.step_ms_p50.localized", median(localized_ms), "ms");
  m.set("churn.step_ms_p50.escalated", median(escalated_ms), "ms");
  m.set("churn.localized_ratio", localized / steps, "ratio");
  m.set("churn.cert_reused_ratio", reused / steps, "ratio");
  m.set("churn.escalation_ratio", escalated / steps, "ratio");
  for (size_t e = 0; e < std::size(kEscalations); ++e) {
    m.set("churn.escalations." + std::string(kEscalations[e]), reasons[e],
          "count");
  }
  m.set("churn.escalations.other", other, "count");
  m.set("churn.mst_region_mean", region / steps, "count");
  m.set("churn.orient_planned_mean", planned / steps, "count");
  m.set("churn.replay_step_ms", best_of(replay_ms_), "ms");
  m.set("churn.warm_allocs", static_cast<double>(churn_allocs_), "count");

  // Traffic layer figures come from the first network.
  Network& net = *nets_[0];
  const sim::TrafficReport& rep = net.static_report;
  m.set("traffic.events", static_cast<double>(rep.events), "count");
  m.set("traffic.events_per_s", rep.events / (best_of(net.static_ms) / 1000.0),
        "1/s");
  m.set("traffic.retransmissions", static_cast<double>(rep.retransmissions),
        "count");
  m.set("traffic.delivery_ratio", rep.delivery_ratio, "ratio");
  m.set("event_queue.cascaded",
        static_cast<double>(net.engine.event_queue().cascaded()), "count");
  m.set("event_queue.parked",
        static_cast<double>(net.engine.event_queue().parked()), "count");
  // Derived: a churn run minus its replayed churn steps minus a static run
  // leaves the traffic engine's own topology work (refresh, route
  // rebuilds) plus whatever the churn changes in packet handling.
  m.set("traffic.topology_ms",
        best_of(net.churn_ms) - best_of(replay_ms_) - best_of(net.static_ms),
        "ms");
  m.set("traffic.warm_allocs", static_cast<double>(count_allocations([&] {
          net.engine.run(net.flows, opts_);
        })),
        "count");
  std::vector<double> bind_ms;
  for (int r = 0; r < 3; ++r) {
    bind_ms.push_back(time_ms([&] {
      net.engine.bind(net.pts, net.plan.last_result().orientation);
    }));
  }
  m.set("traffic.bind_ms", best_of(bind_ms), "ms");
}

}  // namespace perfbench
