// Metric sink, ledger, digest and the output invariants.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double tail_value(std::vector<double> v, int beyond) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const long long idx = static_cast<long long>(v.size()) - beyond - 1;
  return idx >= 0 ? v[static_cast<size_t>(idx)] : v.back();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string Metrics::json() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    char num[64];
    // JSON has no NaN/inf; a non-finite value is reported as 0.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out << (i ? ", " : "") << "\"" << e.name << "\": {\"value\": " << num
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}";
  return out.str();
}

void Ledger::note(const char* what, const char* why) {
  if (errors_.size() < 8) errors_.push_back(std::string(what) + ": " + why);
}

void Digest::bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add(const core::Certificate& c) {
  value(c.strongly_connected);
  value(c.scc_count);
  value(c.max_radius);
  value(c.max_spread_sum);
  value(c.max_antennas);
  value(c.spread_within_budget);
  value(c.antennas_within_k);
  value(c.radius_within_bound);
}

void Digest::add(const dirant::antenna::Orientation& o) {
  value(o.size());
  for (int u = 0; u < o.size(); ++u) {
    for (const auto& s : o.antennas(u)) {
      value(s.start);
      value(s.width);
      value(s.radius);
    }
  }
}

void Digest::add(const sim::StepReport& r) {
  value(r.batch);
  value(r.alive);
  for (const auto& e : r.events) {
    value(e.event.node);
    value(e.applied);
  }
  value(r.degraded.degraded);
  value(r.degraded.coverage_fraction);
  value(r.degraded.largest_scc);
  for (int u : r.degraded.stranded) value(u);
  for (int u : r.suggested_repair) value(u);
  value(r.dirty_fraction);
  value(r.incremental_plan);
  value(r.incremental_digraph);
  value(r.localized_mst);
  value(r.mst_region);
  value(r.incremental_orient);
  value(r.orient_planned);
  value(r.warm_orient);
  value(r.cert_reused);
  const std::string esc = r.escalation ? r.escalation : "";
  bytes(esc.data(), esc.size());
  add(r.certificate);
}

void Digest::add(const sim::TrafficReport& r) {
  value(r.offered);
  value(r.delivered);
  value(r.delivery_ratio);
  value(r.p50_latency);
  value(r.p99_latency);
  value(r.transmissions);
  value(r.retransmissions);
  value(r.frames_lost);
  value(r.acks_lost);
  value(r.duplicates);
  value(r.reroutes);
  value(r.drop_queue);
  value(r.drop_ttl);
  value(r.drop_retry);
  value(r.drop_no_route);
  value(r.drop_churn);
  value(r.drop_battery);
  value(r.drop_stranded);
  value(r.events);
  value(r.energy_drained);
  value(r.battery_dead);
  value(r.churn_killed);
  value(r.alive_end);
  for (int u : r.stranded) value(u);
}

bool certificate_holds(const core::Certificate& c) {
  return c.ok() && c.scc_count == 1;
}

bool traffic_balanced(const sim::TrafficReport& r) {
  const long long ended = r.delivered + r.drop_queue + r.drop_ttl +
                          r.drop_retry + r.drop_no_route + r.drop_churn +
                          r.drop_battery + r.drop_stranded;
  return r.offered > 0 && r.offered == ended;
}

bool self_check() {
  core::Certificate good;
  good.strongly_connected = true;
  good.scc_count = 1;
  good.spread_within_budget = true;
  good.antennas_within_k = true;
  good.radius_within_bound = true;
  core::Certificate split = good;
  split.strongly_connected = false;
  split.scc_count = 2;
  core::Certificate over_budget = good;
  over_budget.spread_within_budget = false;

  sim::TrafficReport balanced;
  balanced.offered = 10;
  balanced.delivered = 7;
  balanced.drop_retry = 2;
  balanced.drop_churn = 1;
  sim::TrafficReport leaking = balanced;  // one packet never accounted for
  leaking.drop_churn = 0;
  sim::TrafficReport doubled = balanced;  // one packet counted twice
  doubled.drop_queue = 1;

  return certificate_holds(good) && !certificate_holds(split) &&
         !certificate_holds(over_budget) && traffic_balanced(balanced) &&
         !traffic_balanced(leaking) && !traffic_balanced(doubled);
}

}  // namespace perfbench
