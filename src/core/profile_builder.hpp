// Building reliable user and region profiles from activity traces
// (Section IV of the paper).
//
// The builder applies the paper's data-polishing steps:
//   * the >= 30-post active-user threshold ("users with just a handful of
//     posts [...] do not give enough information");
//   * filtering of low-activity calendar periods ("we have filtered out
//     periods of particularly low activity, like holidays");
//   * optional DST-aware local-hour binning for ground-truth regions ("we
//     have considered daylight saving time for all regions where it is
//     used") — anonymous crowds are always profiled in raw UTC hours.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/activity.hpp"
#include "core/profile.hpp"
#include "timezone/timezone.hpp"

namespace tzgeo::core {

/// How event instants map to profile bins.
enum class HourBinning : std::uint8_t {
  kUtc,    ///< raw UTC hour — all that is known for anonymous crowds
  kLocal,  ///< region-local hour, DST-aware (requires a zone)
  /// UTC hour with the region's DST saving subtracted first (requires a
  /// zone).  This is the paper's treatment of ground-truth crowds ("we
  /// have considered daylight saving time"): summer events move back one
  /// hour, so a region's profile is not smeared across two zones.
  kUtcDstNormalized,
};

/// Options controlling profile construction.
struct ProfileBuildOptions {
  std::size_t min_posts = 30;  ///< the paper's active-user threshold
  HourBinning binning = HourBinning::kUtc;
  /// Region zone; required for kLocal binning.
  const tz::TimeZone* zone = nullptr;
  /// Drop calendar days whose site-wide activity falls below
  /// `low_activity_fraction` x median daily activity.
  bool filter_low_activity_days = true;
  double low_activity_fraction = 0.35;
};

/// One profiled user.
struct UserProfileEntry {
  std::uint64_t user = 0;
  std::size_t posts = 0;  ///< events surviving the day filter
  HourlyProfile profile;
};

/// A profiled population.
struct ProfileSet {
  std::vector<UserProfileEntry> users;
  std::size_t filtered_inactive = 0;  ///< users below the post threshold
  std::size_t filtered_days = 0;      ///< calendar days dropped as low-activity

  /// Equation 2 aggregate over the surviving users.
  [[nodiscard]] HourlyProfile population_profile() const;
};

/// Builds per-user profiles (Equation 1) with the polishing steps above.
/// Users come out in ascending id order.  Large traces build in shards of
/// users on the shared pool, one per core.
[[nodiscard]] ProfileSet build_profiles(const ActivityTrace& trace,
                                        const ProfileBuildOptions& options = {});

namespace detail {

/// Internal: build_profiles with its shard cap exposed, so tests can check
/// that the result does not depend on it.  `threads` caps the shard count
/// as for sweep_crowd (0 picks one per core; traces too small for
/// sharding to pay build as one shard).
[[nodiscard]] ProfileSet build_profiles(const ActivityTrace& trace,
                                        const ProfileBuildOptions& options, std::size_t threads);

}  // namespace detail

}  // namespace tzgeo::core
