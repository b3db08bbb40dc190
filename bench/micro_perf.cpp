// Microbenchmarks (google-benchmark): the numerical kernels and pipeline
// stages whose cost dominates an investigation.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "gbench_main.hpp"
#include "core/placement.hpp"
#include "core/placement_engine.hpp"
#include "core/simd/simd.hpp"
#include "core/soa_crowd.hpp"
#include "forum/parser.hpp"
#include "forum/render.hpp"
#include "stats/emd.hpp"
#include "stats/gmm.hpp"
#include "synth/trace_gen.hpp"
#include "timezone/zone_db.hpp"

using namespace tzgeo;

namespace {

std::vector<double> sample_profile(std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<double> values(24);
  double total = 0.0;
  for (double& v : values) {
    v = rng.uniform();
    total += v;
  }
  for (double& v : values) v /= total;
  return values;
}

void BM_EmdLinear(benchmark::State& state) {
  const auto p = sample_profile(1);
  const auto q = sample_profile(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::emd_linear(p, q));
  }
}
BENCHMARK(BM_EmdLinear);

void BM_EmdCircular(benchmark::State& state) {
  const auto p = sample_profile(3);
  const auto q = sample_profile(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::emd_circular(p, q));
  }
}
BENCHMARK(BM_EmdCircular);

void BM_EmdLinearFixed24(benchmark::State& state) {
  const auto p = sample_profile(1);
  const auto q = sample_profile(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::emd_linear_24(p.data(), q.data()));
  }
}
BENCHMARK(BM_EmdLinearFixed24);

void BM_EmdCircularFixed24(benchmark::State& state) {
  const auto p = sample_profile(3);
  const auto q = sample_profile(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::emd_circular_24(p.data(), q.data()));
  }
}
BENCHMARK(BM_EmdCircularFixed24);

void BM_EmdCircularCdf24(benchmark::State& state) {
  // The batched inner loop: CDFs precomputed, scratch reused.
  const auto p = sample_profile(3);
  const auto q = sample_profile(4);
  double cdf_p[24];
  double cdf_q[24];
  double scratch[24];
  stats::prefix_sums_24(p.data(), cdf_p);
  stats::prefix_sums_24(q.data(), cdf_q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::emd_circular_cdf_24(cdf_p, cdf_q, scratch));
  }
}
BENCHMARK(BM_EmdCircularCdf24);

void BM_PlaceUser(benchmark::State& state) {
  // One user against all 24 zone profiles — the placement inner loop.
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  const core::HourlyProfile profile = reference.zones.zone_profile(3);
  std::vector<core::UserProfileEntry> one{{1, 50, profile}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::place_crowd(one, reference.zones));
  }
}
BENCHMARK(BM_PlaceUser);

void BM_PlaceCrowd(benchmark::State& state) {
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  std::vector<core::UserProfileEntry> users;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    users.push_back({static_cast<std::uint64_t>(i), 50,
                     reference.zones.zone_profile(static_cast<std::int32_t>(i % 24) - 11)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::place_crowd(users, reference.zones, core::PlacementMetric::kCircularEmd, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlaceCrowd)->Arg(64)->Arg(256)->Arg(1024);

void BM_PlaceCrowdParallel(benchmark::State& state) {
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  std::vector<core::UserProfileEntry> users;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    users.push_back({static_cast<std::uint64_t>(i), 50,
                     reference.zones.zone_profile(static_cast<std::int32_t>(i % 24) - 11)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::place_crowd(users, reference.zones));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlaceCrowdParallel)->Arg(1024)->Arg(8192);

// --- SIMD group kernels ---------------------------------------------------
// The 8-lane counterparts of BM_EmdLinearFixed24 / BM_EmdCircularCdf24:
// items processed counts LANES, so items/s divided by the scalar bench's
// rate is the per-distance speedup of the active dispatch path (set
// TZGEO_SIMD to pin a path).

/// A SoA crowd of noisy zone-shaped profiles for the group kernels.
core::SoaCrowd simd_bench_crowd(std::size_t users_count, core::SoaCrowd::Planes kind) {
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  util::Rng rng{17};
  std::vector<core::UserProfileEntry> users;
  users.reserve(users_count);
  for (std::size_t i = 0; i < users_count; ++i) {
    std::vector<double> noisy =
        reference.zones.zone_profile(static_cast<std::int32_t>(i % 24) - 11).values();
    for (double& v : noisy) v = std::max(0.0, v + 0.02 * (rng.uniform() - 0.5));
    users.push_back({static_cast<std::uint64_t>(i), 50,
                     core::HourlyProfile::from_counts(noisy)});
  }
  core::SoaCrowd crowd;
  crowd.build(users, kind);
  return crowd;
}

void BM_SimdRowLinear24(benchmark::State& state) {
  const core::SoaCrowd crowd = simd_bench_crowd(256, core::SoaCrowd::Planes::kCdf);
  const auto q = sample_profile(4);
  alignas(64) double row_cdf[24];
  alignas(64) double out[core::simd::kLanes];
  stats::prefix_sums_24(q.data(), row_cdf);
  const core::simd::KernelTable& kernels = core::simd::kernels();
  std::size_t group = 0;
  for (auto _ : state) {
    kernels.row_linear(crowd.planes(), crowd.stride(), group * core::simd::kLanes, row_cdf,
                       out);
    benchmark::DoNotOptimize(out[0]);
    group = (group + 1) % crowd.groups();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(core::simd::kLanes));
}
BENCHMARK(BM_SimdRowLinear24);

void BM_SimdRowCircular24(benchmark::State& state) {
  const core::SoaCrowd crowd = simd_bench_crowd(256, core::SoaCrowd::Planes::kCdf);
  const auto q = sample_profile(4);
  alignas(64) double row_cdf[24];
  alignas(64) double out[core::simd::kLanes];
  stats::prefix_sums_24(q.data(), row_cdf);
  const core::simd::KernelTable& kernels = core::simd::kernels();
  std::size_t group = 0;
  for (auto _ : state) {
    kernels.row_circular(crowd.planes(), crowd.stride(), group * core::simd::kLanes,
                         row_cdf, out);
    benchmark::DoNotOptimize(out[0]);
    group = (group + 1) % crowd.groups();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(core::simd::kLanes));
}
BENCHMARK(BM_SimdRowCircular24);

void BM_SimdPlaceSoaCircular(benchmark::State& state) {
  // The full SoA sweep (all 24 zones, best-first + margin prune) through
  // PlacementEngine::place_soa; items = users placed.
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  const core::PlacementEngine engine{reference.zones, core::PlacementMetric::kCircularEmd};
  const core::SoaCrowd crowd =
      simd_bench_crowd(static_cast<std::size_t>(state.range(0)), engine.soa_planes());
  std::vector<core::UserPlacement> out(crowd.size());
  for (auto _ : state) {
    core::PlacementEngine::SoaStats counters;
    engine.place_soa(crowd, 0, crowd.groups(), out.data(), counters);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(crowd.size()));
}
BENCHMARK(BM_SimdPlaceSoaCircular)->Arg(8192);

void BM_PlaceCrowd1M(benchmark::State& state) {
  // End-to-end sharded placement at crawl scale (2^20 users): every call
  // transposes the crowd and sweeps it, as each polish round does.
  // Routed through the pooled place_crowd so the throughput aggregates
  // across however many cores the host exposes (on a 1-core host it
  // degenerates to one batch, bit-identically).  BM_SimdPlaceSoaCircular
  // isolates the kernels and tzgeo_placement_transpose_us the transpose.
  // Arg 0 selects the metric: 0 = circular EMD (the paper's headline
  // metric, best-first + margin prune), 1 = linear EMD (dense
  // x4-interleaved sweep).
  const auto metric = state.range(0) == 0 ? core::PlacementMetric::kCircularEmd
                                          : core::PlacementMetric::kEmd;
  const bench::ReferenceProfiles reference = bench::build_reference_profiles(0.02, 1);
  util::Rng rng{29};
  constexpr std::size_t kUsers = std::size_t{1} << 20;
  std::vector<core::UserProfileEntry> users;
  users.reserve(kUsers);
  for (std::size_t i = 0; i < kUsers; ++i) {
    std::vector<double> noisy =
        reference.zones.zone_profile(static_cast<std::int32_t>(i % 24) - 11).values();
    for (double& v : noisy) v = std::max(0.0, v + 0.02 * (rng.uniform() - 0.5));
    users.push_back({static_cast<std::uint64_t>(i), 50,
                     core::HourlyProfile::from_counts(noisy)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::place_crowd(users, reference.zones, metric));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kUsers));
}
BENCHMARK(BM_PlaceCrowd1M)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GmmAuto(benchmark::State& state) {
  std::vector<double> xs(24);
  std::vector<double> weights(24);
  for (int b = 0; b < 24; ++b) {
    xs[static_cast<std::size_t>(b)] = b;
    weights[static_cast<std::size_t>(b)] =
        100.0 * (std::exp(-0.5 * (b - 6.0) * (b - 6.0) / 4.0) +
                 0.5 * std::exp(-0.5 * (b - 17.0) * (b - 17.0) / 4.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_gmm_auto(xs, weights));
  }
}
BENCHMARK(BM_GmmAuto);

void BM_ProfileBuild(benchmark::State& state) {
  synth::DatasetOptions options;
  options.seed = 11;
  options.inactive_fraction = 0.0;
  const synth::Dataset dataset = synth::make_region_dataset(
      synth::table1_region("Germany"), static_cast<std::size_t>(state.range(0)), options);
  const core::ActivityTrace trace = bench::trace_of(dataset);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_profiles(trace, {}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace.event_count()));
}
BENCHMARK(BM_ProfileBuild)->Arg(50)->Arg(200);

void BM_TraceGeneration(benchmark::State& state) {
  util::Rng rng{21};
  synth::PersonaMix mix;
  synth::Persona persona = synth::draw_persona(1, "X", "Europe/Berlin", mix, rng);
  persona.posts_per_year = 500.0;
  const tz::TimeZone& zone = tz::zone("Europe/Berlin");
  for (auto _ : state) {
    util::Rng local = rng.split(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(synth::generate_trace(persona, zone, {}, local));
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_RenderAndParseThreadPage(benchmark::State& state) {
  forum::Thread thread{3, "discussion", "Main"};
  std::vector<forum::RenderedPost> posts;
  for (int i = 0; i < 20; ++i) {
    posts.push_back(forum::RenderedPost{
        static_cast<std::uint64_t>(i), "member" + std::to_string(i),
        tz::CivilDateTime{tz::CivilDate{2016, 5, 12}, 18, 3, i}, "post body text " +
            std::to_string(i)});
  }
  for (auto _ : state) {
    const std::string markup = forum::render_thread_page("Forum", thread, posts, 1, 1);
    benchmark::DoNotOptimize(forum::parse_thread_page(markup));
  }
}
BENCHMARK(BM_RenderAndParseThreadPage);

void BM_ZoneOffsetLookup(benchmark::State& state) {
  const tz::TimeZone& berlin = tz::zone("Europe/Berlin");
  tz::UtcSeconds t = 1451606400;
  for (auto _ : state) {
    benchmark::DoNotOptimize(berlin.offset_at(t));
    t += 3600;
  }
}
BENCHMARK(BM_ZoneOffsetLookup);

}  // namespace

TZGEO_BENCHMARK_MAIN("micro_perf")
