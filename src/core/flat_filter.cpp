#include "core/flat_filter.hpp"

#include <cstdint>
#include <utility>

#include "core/crowd_sweep.hpp"
#include "core/placement_engine.hpp"
#include "obs/trace.hpp"

namespace tzgeo::core {

namespace {

/// One flat test of every user against `zones`.  The same fused sweep
/// also places every user, so a polish round needs no second pass to
/// align its survivors.
struct FlatSweep {
  std::vector<UserPlacement> placements;
  std::vector<std::uint8_t> flat;
};

[[nodiscard]] FlatSweep sweep_flat(const std::vector<UserProfileEntry>& users,
                                   const TimeZoneProfiles& zones, PlacementMetric metric) {
  FlatSweep sweep{std::vector<UserPlacement>(users.size()),
                  std::vector<std::uint8_t>(users.size(), 0)};
  detail::sweep_crowd(users, PlacementEngine{zones, metric}, 0, sweep.placements.data(),
                      nullptr, sweep.flat.data());
  return sweep;
}

/// Splits `users` by their flags, preserving input order in both halves.
[[nodiscard]] FlatFilterResult split_by_flags(const std::vector<UserProfileEntry>& users,
                                              const std::vector<std::uint8_t>& flat) {
  FlatFilterResult result;
  for (std::size_t i = 0; i < users.size(); ++i) {
    (flat[i] ? result.removed : result.kept).push_back(users[i]);
  }
  return result;
}

}  // namespace

FlatFilterResult filter_flat_profiles(const std::vector<UserProfileEntry>& users,
                                      const TimeZoneProfiles& zones, PlacementMetric metric) {
  return split_by_flags(users, sweep_flat(users, zones, metric).flat);
}

PolishResult polish_population(const std::vector<UserProfileEntry>& users,
                               const TimeZoneProfiles& initial_zones, PlacementMetric metric,
                               int max_rounds) {
  const obs::ScopedSpan filter_span("filter");
  PolishResult result{FlatFilterResult{users, {}}, initial_zones, 0};

  for (int round = 0; round < max_rounds; ++round) {
    const std::vector<UserProfileEntry> crowd = std::move(result.split.kept);
    const FlatSweep sweep = sweep_flat(crowd, result.zones, metric);
    FlatFilterResult split = split_by_flags(crowd, sweep.flat);
    // Latest round's removals first, then the earlier rounds'.
    split.removed.insert(split.removed.end(), result.split.removed.begin(),
                         result.split.removed.end());
    const bool fixpoint = split.kept.size() == crowd.size();
    result.split = std::move(split);
    result.rounds = round + 1;
    if (fixpoint || result.split.kept.empty()) break;

    // Rebuild the generic profile from the survivors: undo each survivor's
    // zone shift, as placed by this round's sweep against the same zones,
    // and aggregate the aligned profiles.
    std::vector<HourlyProfile> aligned;
    aligned.reserve(result.split.kept.size());
    for (std::size_t i = 0; i < crowd.size(); ++i) {
      if (sweep.flat[i] == 0) {
        aligned.push_back(crowd[i].profile.shifted(sweep.placements[i].zone_hours));
      }
    }
    result.zones = TimeZoneProfiles{aggregate_profiles(aligned)};
  }
  return result;
}

}  // namespace tzgeo::core
