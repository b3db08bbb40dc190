#include "core/placement.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <mutex>
#include <thread>

#include "core/crowd_sweep.hpp"
#include "core/soa_crowd.hpp"
#include "core/thread_pool.hpp"
#include "obs/pipeline_metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "stats/emd.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

double placement_distance(const HourlyProfile& profile, const HourlyProfile& zone_profile,
                          PlacementMetric metric) {
  // Route through the same fixed-width kernels as PlacementEngine, so a
  // distance computed pairwise is bit-identical to one computed by the
  // batched engine (profiles are 24 bins by construction).
  const double* p = profile.values().data();
  const double* q = zone_profile.values().data();
  switch (metric) {
    case PlacementMetric::kEmd:
      return stats::emd_linear_24(p, q);
    case PlacementMetric::kCircularEmd:
      return stats::emd_circular_24(p, q);
    case PlacementMetric::kTotalVariation:
      return stats::total_variation_24(p, q);
  }
  return std::numeric_limits<double>::infinity();  // unreachable
}

namespace detail {

namespace {

constexpr std::size_t kSerialCutoff = 256;  ///< below this, sharding doesn't pay

static_assert(std::tuple_size_v<decltype(obs::PipelineMetrics::placement_path_batches)> ==
                  simd::kPathCount,
              "per-path batch counters must cover every dispatch path");

/// Flushes the counters of one shard.  Pruning counters are reported in
/// lane units (groups x kLanes) so they stay comparable with the per-user
/// path's zones_pruned/evaluated.
void record_soa_batch(std::uint64_t elapsed_us, std::size_t users,
                      const PlacementEngine::SoaStats& counters) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.add(metrics.placement_batches);
  registry.add(metrics.placement_shards);
  registry.add(metrics.placement_users, users);
  registry.observe(metrics.placement_batch_us, elapsed_us);
  registry.add(metrics.placement_simd_lanes, counters.groups * simd::kLanes);
  registry.add(metrics.placement_zones_pruned_vectorized,
               counters.zone_groups_pruned * simd::kLanes);
  registry.add(metrics.placement_zones_evaluated_vectorized,
               counters.zone_groups_evaluated * simd::kLanes);
  const auto path = static_cast<std::size_t>(simd::active_path());
  if (path < metrics.placement_path_batches.size()) {
    registry.add(metrics.placement_path_batches[path]);
  }
}

}  // namespace

void sweep_crowd(const std::vector<UserProfileEntry>& users, const PlacementEngine& engine,
                 std::size_t threads, UserPlacement* placements, double* zone_counts,
                 std::uint8_t* flat) {
  const obs::ScopedSpan placement_span("placement");
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();

  const obs::Stopwatch transpose_watch;
  SoaCrowd crowd;
  crowd.build(users, engine.soa_planes());
  registry.observe(metrics.placement_transpose_us, transpose_watch.elapsed_us());

  ThreadPool& pool = ThreadPool::global();
  if (threads == 0) {
    // The caller participates alongside the pool workers, but never shard
    // wider than the machine: on a single-core host pool.size() + 1 == 2
    // would split the crowd into two shards that time-share one core.
    const std::size_t hardware = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    threads = std::min(pool.size() + 1, hardware);
  }
  if (users.size() < kSerialCutoff) threads = 1;

  if (zone_counts != nullptr) std::fill(zone_counts, zone_counts + kZoneCount, 0.0);
  std::mutex counts_mutex;
  pool.for_chunks(crowd.groups(), threads, [&](std::size_t begin, std::size_t end) {
    // One chunk is one shard: accumulate locally, flush once, so the hot
    // loop pays zero atomic traffic per user.
    const obs::ScopedSpan batch_span("placement.batch");
    const obs::Stopwatch watch;
    PlacementEngine::SoaStats counters;
    std::array<double, kZoneCount> shard_counts{};
    engine.place_soa(crowd, begin, end, placements, counters,
                     zone_counts != nullptr ? shard_counts.data() : nullptr, flat);
    const std::size_t last_slot = std::min(end * simd::kLanes, crowd.size());
    record_soa_batch(watch.elapsed_us(), last_slot - begin * simd::kLanes, counters);
    if (zone_counts == nullptr) return;
    // Shard counts are small integers in doubles: their sum is exact in
    // any merge order, so a mutex (not a fixed order) keeps the totals
    // identical to one serial pass.
    const std::lock_guard<std::mutex> lock(counts_mutex);
    for (std::size_t bin = 0; bin < kZoneCount; ++bin) zone_counts[bin] += shard_counts[bin];
  });

  if (zone_counts == nullptr) return;
  for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
    registry.add(metrics.placement_zone[bin], static_cast<std::uint64_t>(zone_counts[bin]));
  }
}

}  // namespace detail

PlacementResult place_crowd(const std::vector<UserProfileEntry>& users,
                            const TimeZoneProfiles& zones, PlacementMetric metric,
                            std::size_t threads) {
  PlacementResult result;
  result.users.resize(users.size());
  result.counts.assign(kZoneCount, 0.0);
  detail::sweep_crowd(users, PlacementEngine{zones, metric}, threads, result.users.data(),
                      result.counts.data());
  result.distribution = stats::normalize(result.counts);
  return result;
}

PlacementConfidence placement_confidence(const PlacementResult& placement) {
  PlacementConfidence confidence;
  if (placement.users.empty()) return confidence;

  std::vector<double> margins;
  margins.reserve(placement.users.size());
  std::size_t decisive = 0;
  for (const auto& user : placement.users) {
    const double margin = user.margin();
    margins.push_back(margin);
    confidence.mean_margin += margin;
    if (user.distance > 0.0 && margin > 0.1 * user.distance) ++decisive;
    if (user.distance == 0.0 && margin > 0.0) ++decisive;  // exact match
  }
  confidence.mean_margin /= static_cast<double>(margins.size());
  std::sort(margins.begin(), margins.end());
  const std::size_t mid = margins.size() / 2;
  confidence.median_margin = margins.size() % 2 == 1
                                 ? margins[mid]
                                 : 0.5 * (margins[mid - 1] + margins[mid]);
  confidence.decisive_fraction =
      static_cast<double>(decisive) / static_cast<double>(placement.users.size());
  return confidence;
}

}  // namespace tzgeo::core
