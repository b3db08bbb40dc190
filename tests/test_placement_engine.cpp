// PlacementEngine: the shared batched nearest-zone kernel.  Serial,
// engine, and pooled placement must be bit-identical, and the engine's
// lower-bound pruning must never change a result.
#include "core/placement_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/placement.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

constexpr PlacementMetric kAllMetrics[] = {
    PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation};

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[9] = 0.2;
  counts[20] = 0.5;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] std::vector<UserProfileEntry> random_crowd(std::size_t size, std::uint64_t seed,
                                                         const TimeZoneProfiles& zones) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::vector<double> noisy =
        zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12))).values();
    for (double& v : noisy) v = std::max(0.0, v + rng.normal(0.0, 0.01));
    users.push_back(
        UserProfileEntry{static_cast<std::uint64_t>(i), 40, HourlyProfile::from_counts(noisy)});
  }
  return users;
}

void expect_identical(const PlacementResult& a, const PlacementResult& b) {
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t i = 0; i < a.users.size(); ++i) {
    EXPECT_EQ(a.users[i].user, b.users[i].user);
    EXPECT_EQ(a.users[i].zone_hours, b.users[i].zone_hours);
    EXPECT_DOUBLE_EQ(a.users[i].distance, b.users[i].distance);
    EXPECT_DOUBLE_EQ(a.users[i].runner_up_distance, b.users[i].runner_up_distance);
  }
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.distribution, b.distribution);
}

TEST(PlacementEngine, SerialEngineAndPooledBitIdenticalAllMetrics) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(600, 11, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementResult serial = place_crowd(users, zones, metric, 1);
    const PlacementResult pooled = place_crowd(users, zones, metric);
    expect_identical(serial, pooled);

    const PlacementEngine engine{zones, metric};
    ASSERT_EQ(engine.metric(), metric);
    for (std::size_t i = 0; i < users.size(); ++i) {
      const UserPlacement direct = engine.place(users[i].user, users[i].profile);
      EXPECT_EQ(direct.zone_hours, serial.users[i].zone_hours);
      EXPECT_DOUBLE_EQ(direct.distance, serial.users[i].distance);
      EXPECT_DOUBLE_EQ(direct.runner_up_distance, serial.users[i].runner_up_distance);
    }
  }
}

TEST(PlacementEngine, DistanceToZoneMatchesPairwiseKernel) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(32, 12, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    for (const UserProfileEntry& entry : users) {
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        EXPECT_DOUBLE_EQ(engine.distance_to_zone(entry.profile, bin),
                         placement_distance(entry.profile, zones.all()[bin], metric));
      }
    }
  }
}

TEST(PlacementEngine, PruningMatchesBruteForceBestAndRunnerUp) {
  // place() may skip zones whose lower bound already exceeds the running
  // runner-up.  The skipped evaluations must never change the outcome:
  // compare against an unpruned brute-force scan over all 24 distances.
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(300, 13, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    for (const UserProfileEntry& entry : users) {
      double best = std::numeric_limits<double>::infinity();
      double runner_up = std::numeric_limits<double>::infinity();
      std::int32_t best_zone = 0;
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        const double d = placement_distance(entry.profile, zones.all()[bin], metric);
        if (d < best) {
          runner_up = best;
          best = d;
          best_zone = zone_of_bin(bin);
        } else if (d < runner_up) {
          runner_up = d;
        }
      }
      const UserPlacement placed = engine.place(entry.user, entry.profile);
      EXPECT_EQ(placed.zone_hours, best_zone);
      EXPECT_DOUBLE_EQ(placed.distance, best);
      EXPECT_DOUBLE_EQ(placed.runner_up_distance, runner_up);
    }
  }
}

TEST(PlacementEngine, NearestDistanceEqualsMinimumOverZones) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(200, 14, zones);
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    for (const UserProfileEntry& entry : users) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t bin = 0; bin < kZoneCount; ++bin) {
        best = std::min(best, engine.distance_to_zone(entry.profile, bin));
      }
      EXPECT_DOUBLE_EQ(engine.nearest_distance(entry.profile), best);
    }
  }
}

TEST(PlacementEngine, DistanceToUniformMatchesPairwise) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(32, 15, zones);
  const HourlyProfile uniform;
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    for (const UserProfileEntry& entry : users) {
      EXPECT_DOUBLE_EQ(engine.distance_to_uniform(entry.profile),
                       placement_distance(entry.profile, uniform, metric));
    }
  }
}

TEST(PlacementEngine, EmptyOneUserAndOddSizedCrowds) {
  const TimeZoneProfiles zones{canonical_shape()};
  for (const PlacementMetric metric : kAllMetrics) {
    expect_identical(place_crowd({}, zones, metric, 1), place_crowd({}, zones, metric));
    for (const std::size_t size : {1u, 7u, 257u}) {
      const auto users = random_crowd(size, 16 + size, zones);
      expect_identical(place_crowd(users, zones, metric, 1), place_crowd(users, zones, metric));
    }
  }
}

TEST(PlacementEngine, SurvivesSourceZonesDestruction) {
  // The engine snapshots the zone profiles; it must stay valid after the
  // TimeZoneProfiles it was built from goes away.
  std::unique_ptr<PlacementEngine> engine;
  UserPlacement expected;
  const auto probe = canonical_shape();
  {
    const TimeZoneProfiles zones{canonical_shape()};
    engine = std::make_unique<PlacementEngine>(zones, PlacementMetric::kCircularEmd);
    expected = PlacementEngine{zones, PlacementMetric::kCircularEmd}.place(1, probe);
  }
  const UserPlacement placed = engine->place(1, probe);
  EXPECT_EQ(placed.zone_hours, expected.zone_hours);
  EXPECT_DOUBLE_EQ(placed.distance, expected.distance);
  EXPECT_DOUBLE_EQ(placed.runner_up_distance, expected.runner_up_distance);
}

TEST(PlacementConfidenceMedian, OddCountUsesCentralElement) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(5, 21, zones);
  const PlacementResult placement = place_crowd(users, zones);
  std::vector<double> margins;
  for (const UserPlacement& u : placement.users) margins.push_back(u.margin());
  std::sort(margins.begin(), margins.end());
  EXPECT_DOUBLE_EQ(placement_confidence(placement).median_margin, margins[2]);
}

TEST(PlacementConfidenceMedian, EvenCountUsesMidpointOfCentralPair) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(6, 22, zones);
  const PlacementResult placement = place_crowd(users, zones);
  std::vector<double> margins;
  for (const UserPlacement& u : placement.users) margins.push_back(u.margin());
  std::sort(margins.begin(), margins.end());
  EXPECT_DOUBLE_EQ(placement_confidence(placement).median_margin,
                   0.5 * (margins[2] + margins[3]));
}

}  // namespace
}  // namespace tzgeo::core
