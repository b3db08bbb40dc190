#include "core/flat_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[9] = 0.2;
  counts[19] = 0.3;
  counts[20] = 0.4;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

[[nodiscard]] HourlyProfile nearly_uniform() {
  std::vector<double> counts(24, 1.0);
  counts[3] = 1.15;
  counts[17] = 0.9;
  return HourlyProfile::from_counts(counts);
}

TEST(FlatFilter, RemovesUniformKeepsSharp) {
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users;
  users.push_back(UserProfileEntry{1, 100, zones.zone_profile(2)});   // sharp human
  users.push_back(UserProfileEntry{2, 5000, HourlyProfile{}});        // perfect bot
  users.push_back(UserProfileEntry{3, 900, nearly_uniform()});        // wobbly bot
  const FlatFilterResult result = filter_flat_profiles(users, zones);
  ASSERT_EQ(result.kept.size(), 1u);
  EXPECT_EQ(result.kept[0].user, 1u);
  ASSERT_EQ(result.removed.size(), 2u);
}

TEST(FlatFilter, EmptyInput) {
  const TimeZoneProfiles zones{canonical_shape()};
  const FlatFilterResult result = filter_flat_profiles({}, zones);
  EXPECT_TRUE(result.kept.empty());
  EXPECT_TRUE(result.removed.empty());
}

TEST(FlatFilter, AllUsersPreservedAcrossSplit) {
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users;
  for (std::uint64_t i = 0; i < 10; ++i) {
    users.push_back(UserProfileEntry{
        i, 50, i % 2 == 0 ? zones.zone_profile(static_cast<std::int32_t>(i) - 5)
                          : HourlyProfile{}});
  }
  const FlatFilterResult result = filter_flat_profiles(users, zones);
  EXPECT_EQ(result.kept.size() + result.removed.size(), users.size());
}

TEST(FlatFilter, ShiftedHumansSurviveEveryZone) {
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users;
  for (std::int32_t zone = kMinZone; zone <= kMaxZone; ++zone) {
    users.push_back(
        UserProfileEntry{static_cast<std::uint64_t>(zone + 20), 50, zones.zone_profile(zone)});
  }
  const FlatFilterResult result = filter_flat_profiles(users, zones);
  EXPECT_EQ(result.kept.size(), kZoneCount);
  EXPECT_TRUE(result.removed.empty());
}

TEST(PolishPopulation, ReachesFixpoint) {
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users;
  for (std::uint64_t i = 0; i < 20; ++i) {
    users.push_back(UserProfileEntry{i, 60, zones.zone_profile(1)});
  }
  users.push_back(UserProfileEntry{100, 1000, HourlyProfile{}});  // one bot
  const PolishResult result = polish_population(users, zones);
  EXPECT_EQ(result.split.kept.size(), 20u);
  EXPECT_EQ(result.split.removed.size(), 1u);
  EXPECT_GE(result.rounds, 1);
  EXPECT_LE(result.rounds, 8);
}

TEST(PolishPopulation, RebuiltGenericStaysAligned) {
  // Survivors all live at UTC+5; after polishing, the rebuilt zone set
  // must still place them at +5 (the rebuild aligns profiles first).
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users;
  for (std::uint64_t i = 0; i < 15; ++i) {
    users.push_back(UserProfileEntry{i, 60, zones.zone_profile(5)});
  }
  const PolishResult result = polish_population(users, zones);
  const PlacementResult placement = place_crowd(result.split.kept, result.zones);
  for (const auto& placed : placement.users) {
    EXPECT_EQ(placed.zone_hours, 5);
  }
}

TEST(PolishPopulation, AllBotsLeavesEmptyKept) {
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users(4, UserProfileEntry{1, 100, HourlyProfile{}});
  const PolishResult result = polish_population(users, zones);
  EXPECT_TRUE(result.split.kept.empty());
  EXPECT_EQ(result.split.removed.size(), 4u);
}

TEST(PolishPopulation, RemovedAccumulatesAcrossRounds) {
  const TimeZoneProfiles zones{canonical_shape()};
  std::vector<UserProfileEntry> users;
  for (std::uint64_t i = 0; i < 30; ++i) {
    users.push_back(UserProfileEntry{i, 60, zones.zone_profile(-4)});
  }
  for (std::uint64_t i = 100; i < 105; ++i) {
    users.push_back(UserProfileEntry{i, 300, nearly_uniform()});
  }
  const PolishResult result = polish_population(users, zones);
  EXPECT_EQ(result.split.kept.size() + result.split.removed.size(), users.size());
  EXPECT_GE(result.split.removed.size(), 5u);
}

/// A crowd whose flatness is graded from sharp humans to near-uniform
/// bots, so the polish keeps removing users over several rounds.
[[nodiscard]] std::vector<UserProfileEntry> graded_crowd(std::size_t size, std::uint64_t seed,
                                                         const TimeZoneProfiles& zones) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::vector<double>& shape =
        zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12))).values();
    const double sharpness = rng.uniform();
    std::vector<double> counts(kProfileBins);
    for (std::size_t b = 0; b < kProfileBins; ++b) {
      counts[b] = std::max(0.0, sharpness * shape[b] + (1.0 - sharpness) / 24.0 +
                                    rng.normal(0.0, 0.004));
    }
    users.push_back(UserProfileEntry{static_cast<std::uint64_t>(i), 40 + i % 7,
                                     HourlyProfile::from_counts(counts)});
  }
  return users;
}

/// The polish loop composed from public pieces the way it ran before the
/// flat test and the survivors' placement were fused: filter, carry the
/// removed users forward, then place the survivors against the SAME zones
/// in a second pass and aggregate their aligned profiles.
[[nodiscard]] PolishResult two_pass_polish(const std::vector<UserProfileEntry>& users,
                                           const TimeZoneProfiles& initial_zones,
                                           PlacementMetric metric, std::size_t threads,
                                           int max_rounds = 8) {
  PolishResult result{FlatFilterResult{users, {}}, initial_zones, 0};
  for (int round = 0; round < max_rounds; ++round) {
    FlatFilterResult split = filter_flat_profiles(result.split.kept, result.zones, metric);
    split.removed.insert(split.removed.end(), result.split.removed.begin(),
                         result.split.removed.end());
    const bool fixpoint = split.kept.size() == result.split.kept.size();
    result.split = std::move(split);
    result.rounds = round + 1;
    if (fixpoint || result.split.kept.empty()) break;
    const PlacementResult placement =
        place_crowd(result.split.kept, result.zones, metric, threads);
    std::vector<HourlyProfile> aligned;
    for (std::size_t i = 0; i < result.split.kept.size(); ++i) {
      aligned.push_back(result.split.kept[i].profile.shifted(placement.users[i].zone_hours));
    }
    result.zones = TimeZoneProfiles{aggregate_profiles(aligned)};
  }
  return result;
}

void expect_same_users(const std::vector<UserProfileEntry>& a,
                       const std::vector<UserProfileEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user) << "position " << i;
    EXPECT_EQ(a[i].posts, b[i].posts) << "position " << i;
    EXPECT_EQ(a[i].profile.values(), b[i].profile.values()) << "position " << i;
  }
}

TEST(PolishPopulation, FusedSweepMatchesTwoPassLoop) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = graded_crowd(900, 19, zones);
  for (const auto metric :
       {PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation}) {
    const PolishResult fused = polish_population(users, zones, metric);
    EXPECT_GE(fused.rounds, 2);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      SCOPED_TRACE("metric " + std::to_string(static_cast<int>(metric)) + " threads " +
                   std::to_string(threads));
      const PolishResult want = two_pass_polish(users, zones, metric, threads);
      EXPECT_EQ(fused.rounds, want.rounds);
      expect_same_users(fused.split.kept, want.split.kept);
      expect_same_users(fused.split.removed, want.split.removed);
      ASSERT_EQ(fused.zones.all().size(), want.zones.all().size());
      for (std::size_t bin = 0; bin < want.zones.all().size(); ++bin) {
        EXPECT_EQ(fused.zones.all()[bin].values(), want.zones.all()[bin].values())
            << "zone bin " << bin;
      }
    }
  }
}

}  // namespace
}  // namespace tzgeo::core
