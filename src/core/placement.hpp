// EMD-based placement of anonymous users onto world time zones
// (Section IV-A).
//
// "For every member of an anonymous crowd, we compare its profile with that
// of all different timezone profiles [...].  Then, we geolocate that member
// on the timezone whose activity profile is less distant", with the Earth
// Mover's Distance as the metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/profile_builder.hpp"
#include "core/timezone_profiles.hpp"

namespace tzgeo::core {

/// Distance used to match a user profile against the 24 zone profiles.
///
/// The default is the circular EMD: hour profiles live on a 24-hour circle,
/// and the paper's placement explicitly allows "shifting and moving
/// probability mass" across midnight.  A linear-axis EMD mis-places crowds
/// whose evening peak crosses UTC midnight (e.g. the Americas) — kept as an
/// ablation (see bench/ablation_design).
enum class PlacementMetric : std::uint8_t {
  kEmd,          ///< linear-axis EMD (ablation: breaks at the midnight wrap)
  kCircularEmd,  ///< circular EMD (default)
  kTotalVariation,  ///< bin-wise L1/2 (ablation; ignores ground distance)
};

/// One user's placement.
struct UserPlacement {
  std::uint64_t user = 0;
  std::int32_t zone_hours = 0;  ///< best zone in [-11, 12]
  double distance = 0.0;        ///< distance to the winning zone profile
  /// Distance to the runner-up zone; the gap to `distance` is the
  /// placement margin — how decisively this user chose its zone.
  double runner_up_distance = 0.0;

  [[nodiscard]] double margin() const noexcept { return runner_up_distance - distance; }
};

/// A placed crowd.
struct PlacementResult {
  std::vector<UserPlacement> users;
  /// Raw user count per zone bin (index = bin_of_zone(k), 24 bins).
  std::vector<double> counts;
  /// counts normalized to sum to 1 — the "crowd placement distribution"
  /// plotted in Figures 3-5 and 9-13.
  std::vector<double> distribution;
};

/// Places every profiled user on its nearest time zone.
///
/// Placement is embarrassingly parallel, so the crowd is sharded across
/// the process-wide thread pool: `threads` caps the shard count (0 picks
/// one per core, 1 runs on the calling thread).  Results are bit-identical
/// at every thread count.
[[nodiscard]] PlacementResult place_crowd(const std::vector<UserProfileEntry>& users,
                                          const TimeZoneProfiles& zones,
                                          PlacementMetric metric = PlacementMetric::kCircularEmd,
                                          std::size_t threads = 0);

/// Distance between a profile and one zone profile under `metric`
/// (exposed for the flat filter and tests).
[[nodiscard]] double placement_distance(const HourlyProfile& profile,
                                        const HourlyProfile& zone_profile,
                                        PlacementMetric metric);

/// Crowd-level placement confidence.
struct PlacementConfidence {
  double mean_margin = 0.0;    ///< average best-vs-runner-up gap
  double median_margin = 0.0;
  /// Share of users whose margin exceeds 10% of their best distance —
  /// users that chose their zone decisively rather than by a hair.
  double decisive_fraction = 0.0;
};
[[nodiscard]] PlacementConfidence placement_confidence(const PlacementResult& placement);

}  // namespace tzgeo::core
