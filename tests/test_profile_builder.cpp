#include "core/profile_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "timezone/zone_db.hpp"
#include "util/rng.hpp"

namespace tzgeo::core {
namespace {

[[nodiscard]] tz::UtcSeconds at(std::int32_t y, std::int32_t m, std::int32_t d, std::int32_t h,
                                std::int32_t minute = 0) {
  return tz::to_utc_seconds(tz::CivilDateTime{tz::CivilDate{y, m, d}, h, minute, 0});
}

/// N posts for `user`, one per day at the given UTC hour.
void add_daily_posts(ActivityTrace& trace, std::uint64_t user, std::int32_t hour, int days,
                     std::int32_t start_day = 1, std::int32_t month = 1) {
  for (int d = 0; d < days; ++d) {
    trace.add(user, at(2016, month, start_day, hour) + d * tz::kSecondsPerDay);
  }
}

[[nodiscard]] ProfileBuildOptions no_day_filter() {
  ProfileBuildOptions options;
  options.filter_low_activity_days = false;
  return options;
}

TEST(BuildProfiles, EmptyTraceYieldsEmptySet) {
  const ProfileSet set = build_profiles(ActivityTrace{}, no_day_filter());
  EXPECT_TRUE(set.users.empty());
  EXPECT_EQ(set.filtered_inactive, 0u);
}

TEST(BuildProfiles, ThresholdFiltersInactiveUsers) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 20, 40);  // active: 40 posts
  add_daily_posts(trace, 2, 20, 10);  // inactive: 10 posts
  const ProfileSet set = build_profiles(trace, no_day_filter());
  ASSERT_EQ(set.users.size(), 1u);
  EXPECT_EQ(set.users[0].user, 1u);
  EXPECT_EQ(set.users[0].posts, 40u);
  EXPECT_EQ(set.filtered_inactive, 1u);
}

TEST(BuildProfiles, ThresholdIsConfigurable) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 20, 10);
  ProfileBuildOptions options = no_day_filter();
  options.min_posts = 5;
  EXPECT_EQ(build_profiles(trace, options).users.size(), 1u);
  options.min_posts = 11;
  EXPECT_EQ(build_profiles(trace, options).users.size(), 0u);
}

TEST(BuildProfiles, ZeroThresholdRejected) {
  ProfileBuildOptions options;
  options.min_posts = 0;
  EXPECT_THROW(build_profiles(ActivityTrace{}, options), std::invalid_argument);
}

TEST(BuildProfiles, EquationOneCountsDayHourCellsOnce) {
  // 5 posts in the same (day, hour) cell count once; Eq. 1 uses the
  // boolean "was active during hour h of day d".
  ActivityTrace trace;
  for (int i = 0; i < 35; ++i) {
    trace.add(1, at(2016, 1, 1, 10) + i * 60);  // 35 posts, 10:00..10:34
  }
  add_daily_posts(trace, 1, 20, 1);  // one more cell at hour 20
  ProfileBuildOptions options = no_day_filter();
  options.min_posts = 30;
  const ProfileSet set = build_profiles(trace, options);
  ASSERT_EQ(set.users.size(), 1u);
  // Two active cells: one at hour 10, one at hour 20 -> 0.5 / 0.5.
  EXPECT_DOUBLE_EQ(set.users[0].profile[10], 0.5);
  EXPECT_DOUBLE_EQ(set.users[0].profile[20], 0.5);
}

TEST(BuildProfiles, SameHourDifferentDaysCountsPerDay) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 10, 30);  // 30 cells at hour 10
  add_daily_posts(trace, 1, 20, 10);  // 10 cells at hour 20
  const ProfileSet set = build_profiles(trace, no_day_filter());
  ASSERT_EQ(set.users.size(), 1u);
  EXPECT_DOUBLE_EQ(set.users[0].profile[10], 0.75);
  EXPECT_DOUBLE_EQ(set.users[0].profile[20], 0.25);
}

TEST(BuildProfiles, UtcBinningUsesRawHours) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 14, 31);
  const ProfileSet set = build_profiles(trace, no_day_filter());
  EXPECT_DOUBLE_EQ(set.users[0].profile[14], 1.0);
}

TEST(BuildProfiles, LocalBinningAppliesZoneOffset) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 14, 31);  // UTC hour 14 in January
  ProfileBuildOptions options = no_day_filter();
  options.binning = HourBinning::kLocal;
  options.zone = &tz::zone("Europe/Moscow");  // UTC+3, no DST
  const ProfileSet set = build_profiles(trace, options);
  EXPECT_DOUBLE_EQ(set.users[0].profile[17], 1.0);
}

TEST(BuildProfiles, LocalBinningFollowsDst) {
  // Berlin: UTC 14h is 15h local in winter, 16h local in summer.
  ActivityTrace trace;
  add_daily_posts(trace, 1, 14, 20, 1, 1);  // January
  add_daily_posts(trace, 1, 14, 20, 1, 7);  // July
  ProfileBuildOptions options = no_day_filter();
  options.binning = HourBinning::kLocal;
  options.zone = &tz::zone("Europe/Berlin");
  const ProfileSet set = build_profiles(trace, options);
  EXPECT_DOUBLE_EQ(set.users[0].profile[15], 0.5);
  EXPECT_DOUBLE_EQ(set.users[0].profile[16], 0.5);
}

TEST(BuildProfiles, DstNormalizedAlignsSeasons) {
  // Same trace as above, but DST-normalized UTC binning: the July posts
  // move forward one hour so both seasons land on the same bin (15h?
  // no: normalized = UTC + saving, January saving 0 -> 14, July -> 15).
  ActivityTrace trace;
  add_daily_posts(trace, 1, 14, 20, 1, 1);   // winter: local wall-clock 15h
  add_daily_posts(trace, 1, 13, 20, 1, 7);   // summer: local wall-clock 15h
  ProfileBuildOptions options = no_day_filter();
  options.binning = HourBinning::kUtcDstNormalized;
  options.zone = &tz::zone("Europe/Berlin");
  const ProfileSet set = build_profiles(trace, options);
  // Both seasons' posts, made at the same wall-clock hour, align on one bin.
  EXPECT_DOUBLE_EQ(set.users[0].profile[14], 1.0);
}

TEST(BuildProfiles, ZoneRequiredForZoneAwareBinning) {
  ProfileBuildOptions options;
  options.binning = HourBinning::kLocal;
  EXPECT_THROW(build_profiles(ActivityTrace{}, options), std::invalid_argument);
  options.binning = HourBinning::kUtcDstNormalized;
  EXPECT_THROW(build_profiles(ActivityTrace{}, options), std::invalid_argument);
}

TEST(BuildProfiles, LowActivityDaysFiltered) {
  ActivityTrace trace;
  // 30 busy days with 10 users posting, then 3 holiday days with a single
  // post each.
  for (std::uint64_t user = 1; user <= 10; ++user) {
    add_daily_posts(trace, user, 12, 30, 1, 3);  // March, 30 days
  }
  trace.add(99, at(2016, 12, 25, 12));
  trace.add(99, at(2016, 12, 26, 12));
  trace.add(99, at(2016, 12, 27, 12));

  ProfileBuildOptions options;
  options.filter_low_activity_days = true;
  options.min_posts = 5;
  const ProfileSet set = build_profiles(trace, options);
  EXPECT_EQ(set.filtered_days, 3u);
  // User 99's only posts were on filtered days -> below threshold.
  for (const auto& entry : set.users) EXPECT_NE(entry.user, 99u);
}

TEST(BuildProfiles, DayFilterSkippedForShortTraces) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 12, 3);  // only 3 distinct days
  ProfileBuildOptions options;
  options.min_posts = 2;
  const ProfileSet set = build_profiles(trace, options);
  EXPECT_EQ(set.filtered_days, 0u);
  EXPECT_EQ(set.users.size(), 1u);
}

/// The sort-based builder that build_profiles replaced, kept as the
/// oracle: bin every event into a flat cell arena, sort all event days to
/// count them, binary-search dropped days, sort + unique each user's
/// cells.
[[nodiscard]] ProfileSet oracle_build_profiles(const ActivityTrace& trace,
                                               const ProfileBuildOptions& options) {
  const auto bin_of = [&](tz::UtcSeconds t) {
    std::int64_t shifted = t;
    if (options.binning == HourBinning::kLocal) {
      shifted += options.zone->offset_at(t);
    } else if (options.binning == HourBinning::kUtcDstNormalized) {
      shifted += options.zone->offset_at(t) - options.zone->standard_offset_seconds();
    }
    std::int64_t day = shifted / tz::kSecondsPerDay;
    std::int64_t rem = shifted % tz::kSecondsPerDay;
    if (rem < 0) {
      rem += tz::kSecondsPerDay;
      --day;
    }
    return cell_of_day_hour(day, rem / tz::kSecondsPerHour);
  };
  struct UserSpan {
    std::uint64_t user = 0;
    std::size_t begin = 0;
    std::size_t size = 0;
  };
  std::vector<std::int64_t> cells;
  std::vector<UserSpan> spans;
  for (const auto& [user, events] : trace.users()) {
    const std::size_t begin = cells.size();
    for (const tz::UtcSeconds t : events) cells.push_back(bin_of(t));
    spans.push_back(UserSpan{user, begin, cells.size() - begin});
  }
  ProfileSet result;
  if (cells.empty()) return result;

  std::vector<std::int64_t> dropped_days;
  if (options.filter_low_activity_days) {
    std::vector<std::int64_t> days;
    for (const std::int64_t cell : cells) days.push_back(day_of_cell(cell));
    std::sort(days.begin(), days.end());
    std::vector<std::int64_t> unique_days;
    std::vector<std::size_t> day_counts;
    for (std::size_t i = 0; i < days.size();) {
      std::size_t j = i + 1;
      while (j < days.size() && days[j] == days[i]) ++j;
      unique_days.push_back(days[i]);
      day_counts.push_back(j - i);
      i = j;
    }
    if (unique_days.size() >= 7) {
      std::vector<std::size_t> sorted = day_counts;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t n = sorted.size();
      const double median = n % 2 == 1 ? static_cast<double>(sorted[n / 2])
                                       : 0.5 * static_cast<double>(sorted[n / 2 - 1] +
                                                                   sorted[n / 2]);
      const double threshold = options.low_activity_fraction * median;
      for (std::size_t i = 0; i < unique_days.size(); ++i) {
        if (static_cast<double>(day_counts[i]) < threshold) {
          dropped_days.push_back(unique_days[i]);
        }
      }
    }
  }
  result.filtered_days = dropped_days.size();

  for (const UserSpan& span : spans) {
    std::vector<std::int64_t> active;
    for (std::size_t i = 0; i < span.size; ++i) {
      const std::int64_t cell = cells[span.begin + i];
      if (std::binary_search(dropped_days.begin(), dropped_days.end(), day_of_cell(cell))) {
        continue;
      }
      active.push_back(cell);
    }
    const std::size_t posts = active.size();
    if (posts < options.min_posts) {
      ++result.filtered_inactive;
      continue;
    }
    std::sort(active.begin(), active.end());
    active.erase(std::unique(active.begin(), active.end()), active.end());
    std::vector<double> counts(kProfileBins, 0.0);
    for (const std::int64_t cell : active) {
      counts[static_cast<std::size_t>(hour_of_cell(cell))] += 1.0;
    }
    result.users.push_back(UserProfileEntry{span.user, posts, HourlyProfile::from_counts(counts)});
  }
  return result;
}

/// Shapes of the random traces the property test builds.
struct TraceShape {
  const char* name;
  tz::UtcSeconds start;  ///< first instant of the activity window
  std::int64_t days;     ///< window length
  bool outlier;          ///< one extra event ~116 years before the window
};

/// ~400 users around the 30-post threshold (some exactly at it), with
/// shuffled and duplicated events, a diurnal peak per user, and a few
/// quiet days the holiday filter drops.  Large enough (> 16k events) to
/// build in several shards.
[[nodiscard]] ActivityTrace random_trace(const TraceShape& shape, std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<bool> quiet(static_cast<std::size_t>(shape.days));
  for (std::size_t d = 0; d < quiet.size(); ++d) quiet[d] = rng.bernoulli(0.08);
  ActivityTrace trace;
  for (std::size_t u = 0; u < 400; ++u) {
    const std::uint64_t user = rng();
    const std::size_t posts = u % 10 == 0 ? 30 : static_cast<std::size_t>(rng.uniform_int(5, 90));
    const std::int64_t peak = rng.uniform_int(0, 23);
    std::vector<tz::UtcSeconds> events;
    while (events.size() < posts) {
      const std::int64_t day = rng.uniform_int(0, shape.days - 1);
      if (quiet[static_cast<std::size_t>(day)] && !rng.bernoulli(0.1)) continue;
      const std::int64_t hour = (peak + rng.uniform_int(-3, 3) + 24) % 24;
      events.push_back(shape.start + day * tz::kSecondsPerDay + hour * tz::kSecondsPerHour +
                       rng.uniform_int(0, tz::kSecondsPerHour - 1));
      if (rng.bernoulli(0.05)) events.push_back(events.back());  // duplicate instant
    }
    if (u % 2 == 0) {
      std::sort(events.begin(), events.end());
    } else {
      std::shuffle(events.begin(), events.end(), rng);
    }
    for (const tz::UtcSeconds t : events) trace.add(user, t);
  }
  if (shape.outlier) trace.add(rng(), shape.start - 116 * 365 * tz::kSecondsPerDay);
  return trace;
}

void expect_same_profiles(const ProfileSet& want, const ProfileSet& got) {
  EXPECT_EQ(got.filtered_inactive, want.filtered_inactive);
  EXPECT_EQ(got.filtered_days, want.filtered_days);
  ASSERT_EQ(got.users.size(), want.users.size());
  for (std::size_t i = 0; i < want.users.size(); ++i) {
    EXPECT_EQ(got.users[i].user, want.users[i].user) << "user " << i;
    EXPECT_EQ(got.users[i].posts, want.users[i].posts) << "user " << i;
    EXPECT_EQ(got.users[i].profile.values(), want.users[i].profile.values()) << "user " << i;
  }
}

/// Days from the first to the last event day (UTC), inclusive.
[[nodiscard]] std::int64_t day_span(const ActivityTrace& trace) {
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  for (const auto& [user, events] : trace.users()) {
    for (const tz::UtcSeconds t : events) {
      first = std::min(first, t);
      last = std::max(last, t);
    }
  }
  return last / tz::kSecondsPerDay - first / tz::kSecondsPerDay + 1;
}

TEST(BuildProfiles, MatchesSortBasedOracleForEveryShardCount) {
  const tz::UtcSeconds y2016 = at(2016, 1, 1, 0);
  const TraceShape shapes[] = {
      {"year", y2016, 365, false},
      {"across the epoch", at(1969, 9, 1, 0), 240, false},
      {"under a week", y2016, 5, false},
      {"outlier decades away", y2016, 365, true},
  };
  const HourBinning binnings[] = {HourBinning::kUtc, HourBinning::kLocal,
                                  HourBinning::kUtcDstNormalized};
  for (std::size_t k = 0; k < std::size(shapes); ++k) {
    const ActivityTrace trace = random_trace(shapes[k], 1000 + k);
    ASSERT_GT(trace.event_count(), std::size_t{1} << 14) << shapes[k].name;
    // The day-count strategy follows from the day range against the event
    // count: only the outlier trace takes the sort-based count.
    EXPECT_EQ(day_span(trace) > static_cast<std::int64_t>(trace.event_count()),
              shapes[k].outlier)
        << shapes[k].name;
    for (const HourBinning binning : binnings) {
      for (const bool filter : {true, false}) {
        ProfileBuildOptions options;
        options.binning = binning;
        options.zone = &tz::zone("Europe/Berlin");
        options.filter_low_activity_days = filter;
        const ProfileSet want = oracle_build_profiles(trace, options);
        if (filter && k != 2) {
          EXPECT_GT(want.filtered_days, 0u) << shapes[k].name;
        }
        for (const std::size_t threads : {0, 1, 2, 3, 4, 8, 64}) {
          SCOPED_TRACE(std::string{shapes[k].name} + " binning " +
                       std::to_string(static_cast<int>(binning)) + " filter " +
                       std::to_string(filter) + " threads " + std::to_string(threads));
          expect_same_profiles(want, detail::build_profiles(trace, options, threads));
        }
      }
    }
  }
}

TEST(ProfileSet, PopulationProfileMatchesAggregateOfCopies) {
  const ProfileSet set =
      build_profiles(random_trace({"year", at(2016, 1, 1, 0), 365, false}, 77), {});
  ASSERT_GT(set.users.size(), 100u);
  std::vector<HourlyProfile> copies;
  for (const auto& entry : set.users) copies.push_back(entry.profile);
  EXPECT_EQ(set.population_profile().values(), aggregate_profiles(copies).values());
  EXPECT_THROW((void)ProfileSet{}.population_profile(), std::invalid_argument);
}

TEST(ProfileSet, PopulationProfileAggregates) {
  ActivityTrace trace;
  add_daily_posts(trace, 1, 10, 31);
  add_daily_posts(trace, 2, 20, 31);
  const ProfileSet set = build_profiles(trace, no_day_filter());
  const HourlyProfile population = set.population_profile();
  EXPECT_DOUBLE_EQ(population[10], 0.5);
  EXPECT_DOUBLE_EQ(population[20], 0.5);
}

}  // namespace
}  // namespace tzgeo::core
