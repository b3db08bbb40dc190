#include "core/profile_builder.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"

namespace tzgeo::core {

namespace {

/// Below this many events a trace is built as one shard: a pool dispatch
/// costs more than the work it would split.
constexpr std::size_t kSerialCutoffEvents = std::size_t{1} << 14;

/// Floor division of an instant (already shifted) into its serial day.
[[nodiscard]] std::int64_t day_of(std::int64_t shifted) noexcept {
  std::int64_t day = shifted / tz::kSecondsPerDay;
  if (shifted % tz::kSecondsPerDay < 0) --day;
  return day;
}

/// (serial day, hour) of an event under the chosen binning.
struct DayHour {
  std::int64_t day = 0;
  std::int32_t hour = 0;
};

[[nodiscard]] DayHour bin_of(tz::UtcSeconds t, const ProfileBuildOptions& options) {
  std::int64_t shifted = t;
  if (options.binning == HourBinning::kLocal) {
    shifted += options.zone->offset_at(t);
  } else if (options.binning == HourBinning::kUtcDstNormalized) {
    // Add the DST saving only, so a summer event lands on the UTC hour its
    // local wall-clock time would map to in winter.
    shifted += options.zone->offset_at(t) - options.zone->standard_offset_seconds();
  }
  const std::int64_t day = day_of(shifted);
  const std::int64_t rem = shifted - day * tz::kSecondsPerDay;
  return DayHour{day, static_cast<std::int32_t>(rem / tz::kSecondsPerHour)};
}

/// The least and greatest shift bin_of adds to an instant.  offset_at is
/// the standard offset, plus the saving while DST is in force, so these
/// bound the day of every event from the trace's raw first and last
/// instants without binning each one.
struct ShiftBounds {
  std::int64_t least = 0;
  std::int64_t greatest = 0;
};

[[nodiscard]] ShiftBounds shift_bounds(const ProfileBuildOptions& options) {
  if (options.binning == HourBinning::kUtc) return {};
  const tz::TimeZone& zone = *options.zone;
  const std::int64_t saving = zone.dst_rule() ? zone.dst_rule()->saving_seconds : 0;
  const std::int64_t base =
      options.binning == HourBinning::kLocal ? zone.standard_offset_seconds() : 0;
  return {base + std::min<std::int64_t>(saving, 0), base + std::max<std::int64_t>(saving, 0)};
}

/// First user of shard `s` when `n` users split into `shards` contiguous
/// ranges; shard s covers [shard_begin(s), shard_begin(s + 1)).
[[nodiscard]] std::size_t shard_begin(std::size_t s, std::size_t shards, std::size_t n) noexcept {
  return n / shards * s + std::min(s, n % shards);
}

/// Runs `fn(begin, end)` over the user range of every shard on the pool.
template <typename Fn>
void for_shards(std::size_t shards, std::size_t n, const Fn& fn) {
  ThreadPool::global().for_chunks(shards, shards, [&](std::size_t first, std::size_t last) {
    for (std::size_t s = first; s < last; ++s) {
      const obs::ScopedSpan shard_span("profiles.shard");
      fn(s, shard_begin(s, shards, n), shard_begin(s + 1, shards, n));
    }
  });
}

/// Median of a non-empty vector of per-day counts (sorted in place).
[[nodiscard]] double median_count(std::vector<std::size_t>& values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return static_cast<double>(values[n / 2]);
  return 0.5 * static_cast<double>(values[n / 2 - 1] + values[n / 2]);
}

/// Days whose activity falls below `fraction` x the median daily activity,
/// given the active days in ascending order with their event counts.
/// Traces with fewer than 7 active days keep every day.
[[nodiscard]] std::vector<std::int64_t> low_activity_days(const std::vector<std::int64_t>& days,
                                                          const std::vector<std::size_t>& counts,
                                                          double fraction) {
  std::vector<std::int64_t> dropped;
  if (days.size() < 7) return dropped;
  std::vector<std::size_t> sorted_counts = counts;
  const double threshold = fraction * median_count(sorted_counts);
  for (std::size_t i = 0; i < days.size(); ++i) {
    if (static_cast<double>(counts[i]) < threshold) dropped.push_back(days[i]);
  }
  return dropped;
}

/// Site-wide activity per calendar day, then the holiday filter over it.
/// Days with no events never appear, so both counting strategies see the
/// same ascending (day, count) runs and drop the same days.
/// Returns the dropped days in ascending order.
[[nodiscard]] std::vector<std::int64_t> find_dropped_days(const ActivityTrace::UsersView& view,
                                                          std::size_t events, std::size_t shards,
                                                          const ProfileBuildOptions& options) {
  const std::size_t n = view.size();
  std::vector<std::int64_t> first(shards, std::numeric_limits<std::int64_t>::max());
  std::vector<std::int64_t> last(shards, std::numeric_limits<std::int64_t>::min());
  for_shards(shards, n, [&](std::size_t s, std::size_t begin, std::size_t end) {
    std::int64_t lo = first[s];
    std::int64_t hi = last[s];
    for (std::size_t i = begin; i < end; ++i) {
      for (const tz::UtcSeconds t : view[i].second) {
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
    }
    first[s] = lo;
    last[s] = hi;
  });
  const ShiftBounds shift = shift_bounds(options);
  const std::int64_t lo = day_of(*std::min_element(first.begin(), first.end()) + shift.least);
  const std::int64_t hi = day_of(*std::max_element(last.begin(), last.end()) + shift.greatest);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;

  std::vector<std::int64_t> days;
  std::vector<std::size_t> counts;
  if (range <= events) {
    // Dense: one histogram row per shard, summed in shard order.  The
    // rows together hold at most `events` entries, so no allocation is
    // larger than the per-event copy a sort would need.
    const auto width = static_cast<std::size_t>(range);
    const std::size_t rows = std::min(shards, events / width);
    std::vector<std::size_t> histogram(rows * width, 0);
    for_shards(rows, n, [&](std::size_t s, std::size_t begin, std::size_t end) {
      std::size_t* row = histogram.data() + s * width;
      for (std::size_t i = begin; i < end; ++i) {
        for (const tz::UtcSeconds t : view[i].second) {
          ++row[static_cast<std::size_t>(bin_of(t, options).day - lo)];
        }
      }
    });
    for (std::size_t r = 1; r < rows; ++r) {
      for (std::size_t d = 0; d < width; ++d) histogram[d] += histogram[r * width + d];
    }
    for (std::size_t d = 0; d < width; ++d) {
      if (histogram[d] == 0) continue;
      days.push_back(lo + static_cast<std::int64_t>(d));
      counts.push_back(histogram[d]);
    }
  } else {
    // Sparse (an outlier instant stretches the range past the event
    // count): sort every event's day and run-length count it.
    std::vector<std::int64_t> all;
    all.reserve(events);
    for (const auto& [user, times] : view) {
      for (const tz::UtcSeconds t : times) all.push_back(bin_of(t, options).day);
    }
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < all.size();) {
      std::size_t j = i + 1;
      while (j < all.size() && all[j] == all[i]) ++j;
      days.push_back(all[i]);
      counts.push_back(j - i);
      i = j;
    }
  }

  return low_activity_days(days, counts, options.low_activity_fraction);
}

}  // namespace

HourlyProfile ProfileSet::population_profile() const {
  return aggregate_profiles(users, [](const UserProfileEntry& entry) -> const HourlyProfile& {
    return entry.profile;
  });
}

ProfileSet build_profiles(const ActivityTrace& trace, const ProfileBuildOptions& options) {
  return detail::build_profiles(trace, options, 0);
}

ProfileSet detail::build_profiles(const ActivityTrace& trace, const ProfileBuildOptions& options,
                                  std::size_t threads) {
  const obs::ScopedSpan profiles_span("profiles");
  if (options.binning != HourBinning::kUtc && options.zone == nullptr) {
    throw std::invalid_argument("build_profiles: zone-aware binning requires a zone");
  }
  if (options.min_posts == 0) {
    throw std::invalid_argument("build_profiles: min_posts must be >= 1");
  }

  ProfileSet result;
  const std::size_t events = trace.event_count();
  if (events == 0) return result;
  const auto view = trace.users();
  const std::size_t n = view.size();
  const std::size_t shards =
      events < kSerialCutoffEvents
          ? 1
          : std::min(ThreadPool::global().shard_count(threads), n);

  // Ascending, so membership is a binary search.
  std::vector<std::int64_t> dropped;
  if (options.filter_low_activity_days) dropped = find_dropped_days(view, events, shards, options);
  result.filtered_days = dropped.size();

  // Equation 1 per user over the surviving days, each shard writing only
  // its own users' slots.  Counting each distinct (day, hour) cell once
  // in ascending order is what the old per-user std::set did; the counts
  // are small integers, so every profile double is unchanged.
  std::vector<std::optional<UserProfileEntry>> slots(n);
  for_shards(shards, n, [&](std::size_t, std::size_t begin, std::size_t end) {
    std::vector<std::int64_t> cells;
    std::array<double, kProfileBins> counts{};
    for (std::size_t i = begin; i < end; ++i) {
      const auto [user, times] = view[i];
      cells.clear();
      for (const tz::UtcSeconds t : times) {
        const DayHour bin = bin_of(t, options);
        if (std::binary_search(dropped.begin(), dropped.end(), bin.day)) continue;
        cells.push_back(cell_of_day_hour(bin.day, bin.hour));
      }
      if (cells.size() < options.min_posts) continue;
      if (!std::is_sorted(cells.begin(), cells.end())) std::sort(cells.begin(), cells.end());
      counts.fill(0.0);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c > 0 && cells[c] == cells[c - 1]) continue;
        counts[static_cast<std::size_t>(hour_of_cell(cells[c]))] += 1.0;
      }
      slots[i] = UserProfileEntry{user, cells.size(), HourlyProfile::from_counts(counts)};
    }
  });

  // Serial compaction in id order: the output order of a one-shard run.
  for (auto& slot : slots) {
    if (slot) {
      result.users.push_back(std::move(*slot));
    } else {
      ++result.filtered_inactive;
    }
  }
  return result;
}

}  // namespace tzgeo::core
