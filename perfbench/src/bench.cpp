#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/activity.hpp"
#include "core/profile_builder.hpp"
#include "synth/dataset.hpp"
#include "synth/region_presets.hpp"
#include "timezone/zone_db.hpp"

namespace perfbench {

int Tracer::open(const char* name, const char* layer) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = current_;
  span.pass = pass_;
  span.start = seconds_since(epoch_);
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = seconds_since(epoch_);
  current_ = span.parent;
}

void Tracer::move_time(int id, const char* layer, double seconds) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.moved_layer = layer;
  span.moved_s += seconds;
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) sum += span.end - span.start;
  }
  return sum;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.layer] += span.end - span.start - child_time[i] - span.moved_s;
    if (span.moved_layer != nullptr) self[span.moved_layer] += span.moved_s;
  }
  return self;
}

double Tracer::root_time() const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) sum += span.end - span.start;
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", \"pass\": %d, "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, \"moved_layer\": "
                  "\"%s\", \"moved_s\": %.9f}",
                  i == 0 ? "" : ",\n", i, span.name, span.layer, span.pass, span.parent,
                  span.start, span.end, span.moved_layer ? span.moved_layer : "", span.moved_s);
    out << line;
  }
  out << "\n]}\n";
}

RegistryReading RegistryReading::now() {
  RegistryReading reading;
  for (const auto& sample : tzgeo::obs::MetricsRegistry::global().snapshot()) {
    switch (sample.kind) {
      case tzgeo::obs::MetricKind::kCounter:
        reading.values_[sample.name] = static_cast<double>(sample.value);
        break;
      case tzgeo::obs::MetricKind::kHistogram:
        reading.values_[sample.name + ".sum"] = static_cast<double>(sample.histogram.sum);
        reading.values_[sample.name + ".count"] = static_cast<double>(sample.histogram.count);
        break;
      case tzgeo::obs::MetricKind::kGauge:
        break;
    }
  }
  return reading;
}

namespace {
[[nodiscard]] double value_or_zero(const std::map<std::string, double>& values,
                                   const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}
}  // namespace

double RegistryReading::counter(const std::string& name) const {
  return value_or_zero(values_, name);
}
double RegistryReading::hist_sum(const std::string& name) const {
  return value_or_zero(values_, name + ".sum");
}
double RegistryReading::hist_count(const std::string& name) const {
  return value_or_zero(values_, name + ".count");
}

RegistryReading RegistryReading::minus(const RegistryReading& earlier) const {
  RegistryReading delta;
  for (const auto& [name, value] : values_) {
    delta.values_[name] = value - value_or_zero(earlier.values_, name);
  }
  return delta;
}

void RegistryReading::add(const RegistryReading& other) {
  for (const auto& [name, value] : other.values_) values_[name] += value;
}

void check(PassOutcome& outcome, bool ok, const std::string& what) {
  ++outcome.checks;
  if (!ok) {
    ++outcome.checks_failed;
    outcome.failures.push_back(what);
  }
}

tzgeo::core::TimeZoneProfiles build_reference_zones() {
  using namespace tzgeo;
  std::vector<core::RegionalContribution> contributions;
  for (const auto& region : synth::table1_regions()) {
    synth::DatasetOptions options;
    options.scale = 0.05;
    const synth::Dataset dataset = synth::make_region_dataset(
        region, std::max<std::size_t>(2, region.active_users / 20), options);
    core::ActivityTrace trace;
    for (const auto& event : dataset.events) trace.add(event.user, event.time);
    core::ProfileBuildOptions build;
    build.binning = core::HourBinning::kLocal;
    build.zone = &tz::zone(region.zone);
    const core::ProfileSet profiles = core::build_profiles(trace, build);
    if (profiles.users.empty()) continue;
    contributions.push_back(core::make_contribution(
        region.name, tz::zone(region.zone).standard_offset_hours(), profiles,
        core::HourBinning::kLocal));
  }
  return core::TimeZoneProfiles::from_regions(contributions);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t state) noexcept {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 0x100000001b3ull;
  }
  return state;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

std::string hash_reference(const tzgeo::core::TimeZoneProfiles& zones) {
  std::uint64_t state = fnv1a({});
  for (const auto& profile : zones.all()) {
    const auto& values = profile.values();
    state = fnv1a({reinterpret_cast<const char*>(values.data()), values.size() * sizeof(double)},
                  state);
  }
  return hex64(state);
}

int zone_distance(int a, int b) noexcept {
  const int d = ((a - b) % 24 + 24) % 24;
  return std::min(d, 24 - d);
}

}  // namespace perfbench
