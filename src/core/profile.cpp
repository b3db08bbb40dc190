#include "core/profile.hpp"

#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/emd.hpp"
#include "stats/histogram.hpp"

namespace tzgeo::core {

HourlyProfile::HourlyProfile() : values_(stats::uniform_distribution(kProfileBins)) {}

HourlyProfile::HourlyProfile(std::vector<double> values) : values_(std::move(values)) {}

HourlyProfile HourlyProfile::from_counts(std::span<const double> counts) {
  if (counts.size() != kProfileBins) {
    throw std::invalid_argument("HourlyProfile: expected 24 bins");
  }
  for (const double c : counts) {
    if (c < 0.0) throw std::invalid_argument("HourlyProfile: negative count");
  }
  return HourlyProfile{stats::normalize(counts)};
}

HourlyProfile HourlyProfile::from_distribution(std::span<const double> values) {
  return from_counts(values);
}

HourlyProfile HourlyProfile::shifted(std::int32_t hours) const {
  return HourlyProfile{stats::cyclic_shift(values_, hours)};
}

double HourlyProfile::emd_to(const HourlyProfile& other) const {
  return stats::emd_linear(values_, other.values_);
}

double HourlyProfile::circular_emd_to(const HourlyProfile& other) const {
  return stats::emd_circular(values_, other.values_);
}

double HourlyProfile::pearson_to(const HourlyProfile& other) const {
  return stats::pearson(values_, other.values_);
}

double HourlyProfile::flatness() const {
  const std::vector<double> uniform = stats::uniform_distribution(kProfileBins);
  return stats::emd_linear(values_, uniform);
}

HourlyProfile aggregate_profiles(std::span<const HourlyProfile> profiles) {
  return aggregate_profiles(profiles,
                            [](const HourlyProfile& profile) -> const HourlyProfile& {
                              return profile;
                            });
}

}  // namespace tzgeo::core
