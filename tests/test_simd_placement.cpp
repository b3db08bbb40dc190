// The SIMD dispatch shim and SoA group kernels: every compiled-in path
// (scalar, AVX2, AVX-512, NEON) must place bit-identically to the
// per-user engine on any crowd — including degenerate profiles and tail
// groups — and sharding across threads must never change a byte.
#include <gtest/gtest.h>

#include <vector>

#include "core/placement.hpp"
#include "core/placement_engine.hpp"
#include "core/simd/simd.hpp"
#include "core/soa_crowd.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

constexpr PlacementMetric kAllMetrics[] = {
    PlacementMetric::kEmd, PlacementMetric::kCircularEmd, PlacementMetric::kTotalVariation};

constexpr simd::Path kAllPaths[] = {simd::Path::kScalar, simd::Path::kAvx2,
                                    simd::Path::kNeon, simd::Path::kAvx512};
static_assert(std::size(kAllPaths) == simd::kPathCount);

/// Restores the startup dispatch path when a test returns.
struct PathGuard {
  simd::Path saved = simd::active_path();
  ~PathGuard() { simd::set_path(saved); }
};

[[nodiscard]] HourlyProfile canonical_shape() {
  std::vector<double> counts(24, 0.01);
  counts[9] = 0.2;
  counts[20] = 0.5;
  counts[21] = 0.3;
  return HourlyProfile::from_counts(counts);
}

/// A crowd of noisy zone-shaped users salted with the degenerate shapes
/// the kernels must survive: all-zero counts (normalizes to uniform), a
/// single-spike bin, and the exactly-flat profile.
[[nodiscard]] std::vector<UserProfileEntry> mixed_crowd(std::size_t size, std::uint64_t seed,
                                                        const TimeZoneProfiles& zones) {
  util::Rng rng{seed};
  std::vector<UserProfileEntry> users;
  users.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    std::vector<double> counts(kProfileBins, 0.0);
    switch (i % 5) {
      case 0:  // all-zero counts
        break;
      case 1:  // single spike, rotating bin
        counts[i % kProfileBins] = 1.0;
        break;
      case 2:  // exactly flat
        counts.assign(kProfileBins, 1.0);
        break;
      default:  // noisy zone shape
        counts = zones.zone_profile(static_cast<std::int32_t>(rng.uniform_int(-11, 12)))
                     .values();
        for (double& v : counts) v = std::max(0.0, v + rng.normal(0.0, 0.01));
        break;
    }
    users.push_back(UserProfileEntry{static_cast<std::uint64_t>(i), 40,
                                     HourlyProfile::from_counts(counts)});
  }
  return users;
}

/// place_soa over the whole crowd on the CURRENT dispatch path.
[[nodiscard]] std::vector<UserPlacement> place_all(const PlacementEngine& engine,
                                                   const SoaCrowd& crowd,
                                                   std::uint8_t* flat = nullptr) {
  std::vector<UserPlacement> out(crowd.size());
  PlacementEngine::SoaStats counters;
  engine.place_soa(crowd, 0, crowd.groups(), out.data(), counters, nullptr, flat);
  return out;
}

/// The per-user engine's placements: the reference every sweep must match.
[[nodiscard]] std::vector<UserPlacement> place_per_user(
    const PlacementEngine& engine, const std::vector<UserProfileEntry>& users) {
  std::vector<UserPlacement> out;
  out.reserve(users.size());
  for (const UserProfileEntry& user : users) out.push_back(engine.place(user.user, user.profile));
  return out;
}

void expect_same_placements(const std::vector<UserPlacement>& want,
                            const std::vector<UserPlacement>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << "user " << i;
    EXPECT_EQ(got[i].zone_hours, want[i].zone_hours) << "user " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "user " << i;
    EXPECT_EQ(got[i].runner_up_distance, want[i].runner_up_distance) << "user " << i;
  }
}

void expect_matches_per_user(const PlacementEngine& engine,
                             const std::vector<UserProfileEntry>& users,
                             const std::vector<UserPlacement>& got) {
  expect_same_placements(place_per_user(engine, users), got);
}

TEST(SimdPlacement, EveryPathMatchesPerUserEngineAllMetrics) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(10'000, 101, zones);
  PathGuard guard;
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    const std::vector<UserPlacement> want = place_per_user(engine, users);
    SoaCrowd crowd;
    crowd.build(users, engine.soa_planes());
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(simd::to_string(path));
      expect_same_placements(want, place_all(engine, crowd));
      // Every shard count of the pooled sweep, on the same path.
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                        std::size_t{8}}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expect_same_placements(want, place_crowd(users, zones, metric, threads).users);
      }
    }
  }
}

TEST(SimdPlacement, RaggedTailSizesMatchOnEveryPath) {
  const TimeZoneProfiles zones{canonical_shape()};
  PathGuard guard;
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  // Everything around the kLanes group boundary: single user, partial
  // group, exact group, one-past, and a many-group crowd with a stub tail.
  for (const std::size_t size : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                 std::size_t{9}, std::size_t{15}, std::size_t{201}}) {
    const auto users = mixed_crowd(size, 7 + size, zones);
    SoaCrowd crowd;
    crowd.build(users, engine.soa_planes());
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(std::string{simd::to_string(path)} + " size " + std::to_string(size));
      expect_matches_per_user(engine, users, place_all(engine, crowd));
    }
  }
}

TEST(SimdPlacement, ShardedColumnFillMatchesOnEveryPathAndShardCount) {
  // 8192 users make a 64 KB plane stride, 8200 do not.  At both sizes the
  // sharded column fill must write the same planes as the serial one, and
  // every path must place exactly like the per-user engine.
  const TimeZoneProfiles zones{canonical_shape()};
  PathGuard guard;
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  for (const std::size_t size : {std::size_t{8192}, std::size_t{8200}}) {
    const auto users = mixed_crowd(size, 3 + size, zones);
    SoaCrowd serial;
    serial.build(users, engine.soa_planes(), 1);
    EXPECT_EQ(serial.stride(), size);
    const std::vector<UserPlacement> want = place_per_user(engine, users);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      SoaCrowd crowd;
      crowd.build(users, engine.soa_planes(), threads);
      for (std::size_t b = 0; b < kProfileBins; ++b) {
        for (std::size_t s = 0; s < crowd.stride(); ++s) {
          ASSERT_EQ(crowd.planes()[b * crowd.stride() + s],
                    serial.planes()[b * serial.stride() + s])
              << "threads " << threads << " plane " << b << " slot " << s;
        }
      }
      for (const simd::Path path : kAllPaths) {
        if (!simd::set_path(path)) continue;
        SCOPED_TRACE(std::string{simd::to_string(path)} + " size " + std::to_string(size) +
                     " threads " + std::to_string(threads));
        expect_same_placements(want, place_all(engine, crowd));
      }
    }
  }
}

TEST(SimdPlacement, AllPathsAgreeExactly) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(4'096, 33, zones);
  PathGuard guard;
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    SoaCrowd crowd;
    crowd.build(users, engine.soa_planes());
    ASSERT_TRUE(simd::set_path(simd::Path::kScalar));
    const std::vector<UserPlacement> reference = place_all(engine, crowd);
    for (const simd::Path path : kAllPaths) {
      if (path == simd::Path::kScalar || !simd::set_path(path)) continue;
      SCOPED_TRACE(simd::to_string(path));
      const std::vector<UserPlacement> got = place_all(engine, crowd);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Exact == on the doubles: bit-identical up to the padding bytes
        // a raw memcmp would (wrongly) also compare.
        EXPECT_EQ(got[i].user, reference[i].user);
        EXPECT_EQ(got[i].zone_hours, reference[i].zone_hours);
        EXPECT_EQ(got[i].distance, reference[i].distance);
        EXPECT_EQ(got[i].runner_up_distance, reference[i].runner_up_distance);
      }
    }
  }
}

TEST(SimdPlacement, SerialAndShardedBitIdenticalAcrossThreadCounts) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(3'000, 55, zones);
  const PlacementResult serial = place_crowd(users, zones, PlacementMetric::kCircularEmd, 1);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const PlacementResult sharded =
        place_crowd(users, zones, PlacementMetric::kCircularEmd, threads);
    ASSERT_EQ(sharded.users.size(), serial.users.size());
    for (std::size_t i = 0; i < serial.users.size(); ++i) {
      EXPECT_EQ(sharded.users[i].user, serial.users[i].user);
      EXPECT_EQ(sharded.users[i].zone_hours, serial.users[i].zone_hours);
      EXPECT_EQ(sharded.users[i].distance, serial.users[i].distance);
      EXPECT_EQ(sharded.users[i].runner_up_distance, serial.users[i].runner_up_distance);
    }
    EXPECT_EQ(sharded.counts, serial.counts);
  }
}

TEST(SimdPlacement, FlatFlagsMatchPerUserComparisonOnEveryPath) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(1'000, 77, zones);
  PathGuard guard;
  for (const PlacementMetric metric : kAllMetrics) {
    const PlacementEngine engine{zones, metric};
    SoaCrowd crowd;
    crowd.build(users, engine.soa_planes());
    for (const simd::Path path : kAllPaths) {
      if (!simd::set_path(path)) continue;
      SCOPED_TRACE(simd::to_string(path));
      std::vector<std::uint8_t> flags(users.size(), 2);
      // The fused sweep's placements are the flag-free sweep's, exactly.
      const std::vector<UserPlacement> placed = place_all(engine, crowd, flags.data());
      expect_matches_per_user(engine, users, placed);
      for (std::size_t i = 0; i < users.size(); ++i) {
        const bool want = engine.distance_to_uniform(users[i].profile) <
                          engine.nearest_distance(users[i].profile);
        EXPECT_EQ(flags[i], want ? 1 : 0) << "user " << i;
      }
    }
  }
}

TEST(SimdPlacement, PruneCountersPartitionTheZoneSweep) {
  const TimeZoneProfiles zones{canonical_shape()};
  const auto users = mixed_crowd(512, 13, zones);
  const PlacementEngine engine{zones, PlacementMetric::kCircularEmd};
  SoaCrowd crowd;
  crowd.build(users, engine.soa_planes());
  std::vector<UserPlacement> out(crowd.size());
  PlacementEngine::SoaStats counters;
  engine.place_soa(crowd, 0, crowd.groups(), out.data(), counters);
  EXPECT_EQ(counters.groups, crowd.groups());
  // Every zone of every group is either pruned or evaluated, never both.
  EXPECT_EQ(counters.zone_groups_pruned + counters.zone_groups_evaluated,
            crowd.groups() * kZoneCount);
  EXPECT_GE(counters.zone_groups_evaluated, 2 * crowd.groups());  // seed pair
}

TEST(SimdDispatch, ParseChoiceCoversEverySpelling) {
  using simd::PathChoice;
  EXPECT_EQ(simd::parse_choice(""), PathChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("auto"), PathChoice::kAuto);
  EXPECT_EQ(simd::parse_choice("scalar"), PathChoice::kForceScalar);
  EXPECT_EQ(simd::parse_choice("avx2"), PathChoice::kForceAvx2);
  EXPECT_EQ(simd::parse_choice("avx512"), PathChoice::kForceAvx512);
  EXPECT_EQ(simd::parse_choice("neon"), PathChoice::kForceNeon);
  EXPECT_EQ(simd::parse_choice("AVX2"), PathChoice::kInvalid);
  EXPECT_EQ(simd::parse_choice("sse"), PathChoice::kInvalid);
}

TEST(SimdDispatch, ResolveChoiceHonorsAvailabilityAndFallsBack) {
  // Scalar is always forceable; every other force resolves to itself when
  // available and to SOME available path otherwise.
  EXPECT_EQ(simd::resolve_choice(simd::PathChoice::kForceScalar), simd::Path::kScalar);
  const simd::Path forced[] = {simd::Path::kAvx2, simd::Path::kNeon, simd::Path::kAvx512};
  const simd::PathChoice choices[] = {simd::PathChoice::kForceAvx2,
                                      simd::PathChoice::kForceNeon,
                                      simd::PathChoice::kForceAvx512};
  for (std::size_t i = 0; i < std::size(forced); ++i) {
    const simd::Path resolved = simd::resolve_choice(choices[i]);
    if (simd::path_available(forced[i])) {
      EXPECT_EQ(resolved, forced[i]);
    } else {
      EXPECT_TRUE(simd::path_available(resolved));
    }
  }
  EXPECT_TRUE(simd::path_available(simd::resolve_choice(simd::PathChoice::kAuto)));
  EXPECT_TRUE(simd::path_available(simd::resolve_choice(simd::PathChoice::kInvalid)));
}

TEST(SimdDispatch, SetPathRejectsUnavailableAndKeepsState) {
  PathGuard guard;
  ASSERT_TRUE(simd::set_path(simd::Path::kScalar));
  for (const simd::Path path : kAllPaths) {
    if (simd::path_available(path)) continue;
    EXPECT_FALSE(simd::set_path(path));
    EXPECT_EQ(simd::active_path(), simd::Path::kScalar);
  }
}

TEST(SimdDispatch, ToStringRoundTripsThroughParse) {
  for (const simd::Path path : kAllPaths) {
    const simd::PathChoice choice = simd::parse_choice(simd::to_string(path));
    EXPECT_NE(choice, simd::PathChoice::kAuto);
    EXPECT_NE(choice, simd::PathChoice::kInvalid);
  }
}

}  // namespace
}  // namespace tzgeo::core
