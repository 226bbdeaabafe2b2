#include "bench_common.hpp"

#include <cstdio>

namespace dirant::bench {

namespace {
std::vector<std::function<void()>>& reports() {
  static std::vector<std::function<void()>> r;
  return r;
}
}  // namespace

void register_report(std::function<void()> report) {
  reports().push_back(std::move(report));
}

void section(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

void sweep(const SweepSpec& spec,
           const std::function<void(geom::Distribution, int, std::uint64_t,
                                    const std::vector<geom::Point>&)>& body) {
  for (auto d : spec.distributions) {
    for (int n : spec.sizes) {
      for (int r = 0; r < spec.repeats; ++r) {
        const std::uint64_t seed =
            spec.base_seed + 1000003ull * static_cast<std::uint64_t>(n) +
            17ull * r + static_cast<std::uint64_t>(d);
        geom::Rng rng(seed);
        const auto pts = geom::make_instance(d, n, rng);
        body(d, n, seed, pts);
      }
    }
  }
}

int run(int argc, char** argv) {
  for (const auto& r : reports()) r();
  std::printf("\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace dirant::bench
