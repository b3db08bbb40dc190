// Hourly activity profiles (Equations 1 and 2 of the paper).
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/constants.hpp"

namespace tzgeo::core {

/// A 24-bin probability distribution over the hour of the day.
///
/// Equation 1 defines the user profile as the normalized count, per hour,
/// of (day, hour) cells in which the user was active; Equation 2 averages
/// user profiles into a population profile.  Both produce HourlyProfiles.
class HourlyProfile {
 public:
  /// The uniform profile (every value 1/24).
  HourlyProfile();

  /// Normalizes 24 non-negative counts into a profile.  All-zero counts
  /// yield the uniform profile.  Throws on wrong arity or negative values.
  static HourlyProfile from_counts(std::span<const double> counts);

  /// Wraps an already-normalized 24-vector (re-normalizing defensively).
  static HourlyProfile from_distribution(std::span<const double> values);

  [[nodiscard]] double operator[](std::size_t hour) const { return values_.at(hour); }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// Cyclic shift: positive `hours` moves mass toward later hours
  /// (result[h] = this[h - hours] mod 24).  Note the zone semantics: a
  /// crowd living at UTC+k is active k hours *earlier* on the UTC axis, so
  /// its UTC-hour profile is the canonical shape shifted by -k (see
  /// TimeZoneProfiles::zone_profile).
  [[nodiscard]] HourlyProfile shifted(std::int32_t hours) const;

  /// Linear-axis EMD to another profile (the paper's placement distance).
  [[nodiscard]] double emd_to(const HourlyProfile& other) const;
  /// Circular-axis EMD (ablation alternative).
  [[nodiscard]] double circular_emd_to(const HourlyProfile& other) const;
  /// Pearson correlation of the two 24-vectors.
  [[nodiscard]] double pearson_to(const HourlyProfile& other) const;

  /// EMD to the uniform profile — the flatness score of Section IV-C.
  [[nodiscard]] double flatness() const;

  friend bool operator==(const HourlyProfile&, const HourlyProfile&) = default;

 private:
  explicit HourlyProfile(std::vector<double> values);
  std::vector<double> values_;
};

/// Equation 2: population profile as the normalized sum of user profiles.
/// (Each user profile sums to 1, so this is the per-bin mean.)
[[nodiscard]] HourlyProfile aggregate_profiles(std::span<const HourlyProfile> profiles);

/// Equation 2 over any non-empty range whose elements carry a profile,
/// read through `profile_of(element)`; bins are summed in range order, so
/// the result equals aggregate_profiles over copies of those profiles.
template <typename Range, typename ProfileOf>
[[nodiscard]] HourlyProfile aggregate_profiles(const Range& items, ProfileOf profile_of) {
  if (std::empty(items)) {
    throw std::invalid_argument("aggregate_profiles: no profiles");
  }
  std::vector<double> sum(kProfileBins, 0.0);
  for (const auto& item : items) {
    const HourlyProfile& profile = profile_of(item);
    for (std::size_t h = 0; h < kProfileBins; ++h) sum[h] += profile[h];
  }
  return HourlyProfile::from_counts(sum);
}

}  // namespace tzgeo::core
