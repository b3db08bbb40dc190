// place_crowd shards a crowd across the global thread pool; every thread
// count must reproduce the single-threaded result bit for bit, and every
// result must equal the per-user engine on the profiles as they are NOW.
#include <gtest/gtest.h>

#include "core/placement.hpp"
#include "core/placement_engine.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

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
    // Noisy profiles across all zones, so ties and near-ties occur.
    std::vector<double> noisy =
        zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12))).values();
    for (double& v : noisy) v = std::max(0.0, v + rng.normal(0.0, 0.01));
    users.push_back(
        UserProfileEntry{static_cast<std::uint64_t>(i), 40, HourlyProfile::from_counts(noisy)});
  }
  return users;
}

constexpr std::size_t kThreadCounts[] = {0, 1, 2, 3, 4, 8, 64};

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

/// Places `users` at every thread count and checks each result against
/// the single-threaded one.
void expect_thread_invariant(const std::vector<UserProfileEntry>& users,
                             const TimeZoneProfiles& zones,
                             PlacementMetric metric = PlacementMetric::kCircularEmd) {
  const PlacementResult serial = place_crowd(users, zones, metric, 1);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_identical(serial, place_crowd(users, zones, metric, threads));
  }
}

TEST(ParallelPlacement, BitIdenticalToSerialLargeCrowd) {
  const TimeZoneProfiles zones{canonical_shape()};
  expect_thread_invariant(random_crowd(1200, 3, zones), zones);
}

TEST(ParallelPlacement, SmallCrowdUsesSerialPathAndMatches) {
  const TimeZoneProfiles zones{canonical_shape()};
  expect_thread_invariant(random_crowd(50, 4, zones), zones);
}

TEST(ParallelPlacement, ExplicitThreadCounts) {
  const TimeZoneProfiles zones{canonical_shape()};
  expect_thread_invariant(random_crowd(700, 5, zones), zones);
}

TEST(ParallelPlacement, MoreThreadsThanUsers) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(300, 6, zones);
  expect_identical(place_crowd(users, zones, PlacementMetric::kCircularEmd, 1),
                   place_crowd(users, zones, PlacementMetric::kCircularEmd, 1000));
}

TEST(ParallelPlacement, EmptyCrowd) {
  const TimeZoneProfiles zones{canonical_shape()};
  for (const std::size_t threads : kThreadCounts) {
    const PlacementResult result =
        place_crowd({}, zones, PlacementMetric::kCircularEmd, threads);
    EXPECT_TRUE(result.users.empty());
    EXPECT_EQ(result.counts, std::vector<double>(kZoneCount, 0.0));
  }
}

TEST(ParallelPlacement, AllMetricsAgreeWithSerial) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = random_crowd(400, 7, zones);
  for (const auto metric :
       {PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation}) {
    expect_thread_invariant(users, zones, metric);
  }
}

TEST(ParallelPlacement, ProfileRewrittenInPlaceIsPlacedAfresh) {
  // Copy-assigning an equal-length profile reuses the element storage, so
  // the crowd keeps every address it had.  A placement keyed on addresses
  // would return user 0's old zone; results must follow content only.
  const TimeZoneProfiles zones{canonical_shape()};
  auto users = random_crowd(320, 8, zones);
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  const std::int32_t old_zone = engine.place(users[0].user, users[0].profile).zone_hours;
  const std::int32_t new_zone = old_zone == 5 ? -11 : 5;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ASSERT_EQ(place_crowd(users, zones, PlacementMetric::kCircularEmd, threads)
                  .users[0]
                  .zone_hours,
              old_zone);
  }

  const double* storage = users[0].profile.values().data();
  users[0].profile = zones.zone_profile(new_zone);
  ASSERT_EQ(users[0].profile.values().data(), storage);
  const UserPlacement want = engine.place(users[0].user, users[0].profile);
  ASSERT_EQ(want.zone_hours, new_zone);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const PlacementResult again =
        place_crowd(users, zones, PlacementMetric::kCircularEmd, threads);
    EXPECT_EQ(again.users[0].zone_hours, want.zone_hours);
    EXPECT_EQ(again.users[0].distance, want.distance);
    EXPECT_EQ(again.users[0].runner_up_distance, want.runner_up_distance);
  }
}

}  // namespace
}  // namespace tzgeo::core
