// The two one-shot workloads: analyze-csv (CSV bytes -> ingest ->
// profiles -> geolocate -> report, the `tzgeo_cli analyze` path) and
// geolocate-crowd (an in-memory trace -> profiles -> geolocate -> report,
// the path forum dumps and the monitor take).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "core/activity.hpp"
#include "core/geolocator.hpp"
#include "core/ingest.hpp"
#include "core/profile_builder.hpp"
#include "core/report.hpp"
#include "core/report_json.hpp"
#include "synth/dataset.hpp"
#include "synth/region_presets.hpp"
#include "timezone/zone_db.hpp"

namespace perfbench {
namespace {

using namespace tzgeo;

/// A crowd's expected composition: clusters of component zones that lie
/// within two hours of each other, with their summed shares.  A cluster's
/// window widens by one zone on each side, which covers DST (anonymous
/// crowds are binned in raw UTC) and the half-hour rounding of a mean.
struct Cluster {
  int lo = 0;
  int hi = 0;
  double weight = 0.0;
};

// Tolerances, fixed before the first run of the benchmark.
constexpr double kClusterWeightTolerance = 0.15;  ///< |fitted - generated| share
constexpr double kStrayWeightLimit = 0.15;        ///< components outside every cluster

[[nodiscard]] std::vector<Cluster> clusters_of(const synth::ForumCrowdSpec& spec) {
  std::vector<std::pair<int, double>> parts;
  for (const auto& component : spec.components) {
    parts.emplace_back(tz::zone(component.zone).standard_offset_hours(), component.fraction);
  }
  std::sort(parts.begin(), parts.end());
  std::vector<Cluster> clusters;
  for (const auto& [offset, fraction] : parts) {
    if (!clusters.empty() && offset - clusters.back().hi <= 2) {
      clusters.back().hi = offset;
      clusters.back().weight += fraction;
    } else {
      clusters.push_back({offset, offset, fraction});
    }
  }
  for (auto& cluster : clusters) {
    --cluster.lo;
    ++cluster.hi;
  }
  return clusters;
}

[[nodiscard]] bool in_cluster(const Cluster& cluster, int zone) {
  return zone >= cluster.lo && zone <= cluster.hi;
}

/// Checks a geolocation against the generated composition.
void check_components(PassOutcome& out, const core::GeolocationResult& result,
                      const std::vector<Cluster>& truth) {
  check(out, !result.components.empty(), "geolocation found no component");
  if (result.components.empty()) return;
  const auto heaviest_cluster =
      std::max_element(truth.begin(), truth.end(),
                       [](const Cluster& a, const Cluster& b) { return a.weight < b.weight; });
  check(out, in_cluster(*heaviest_cluster, result.components.front().nearest_zone),
        "heaviest component at UTC" + std::to_string(result.components.front().nearest_zone) +
            " is outside the heaviest generated cluster");
  double stray = 0.0;
  for (const auto& component : result.components) {
    if (std::none_of(truth.begin(), truth.end(), [&](const Cluster& cluster) {
          return in_cluster(cluster, component.nearest_zone);
        })) {
      stray += component.weight;
    }
  }
  check(out, stray <= kStrayWeightLimit,
        "components outside every generated cluster weigh " + std::to_string(stray));
  for (const auto& cluster : truth) {
    double weight = 0.0;
    for (const auto& component : result.components) {
      if (in_cluster(cluster, component.nearest_zone)) weight += component.weight;
    }
    check(out, std::abs(weight - cluster.weight) <= kClusterWeightTolerance,
          "cluster UTC" + std::to_string(cluster.lo) + "..UTC" + std::to_string(cluster.hi) +
              " weighs " + std::to_string(weight) + ", generated " +
              std::to_string(cluster.weight));
  }
}

/// `author,utc_time` CSV in generation (time) order, epoch-second stamps.
[[nodiscard]] std::string to_csv(const std::vector<synth::PostEvent>& events) {
  std::string csv = "author,utc_time\n";
  csv.reserve(csv.size() + events.size() * 20);
  char number[24];
  for (const auto& event : events) {
    csv += 'u';
    csv.append(number, std::to_chars(number, number + sizeof number, event.user).ptr);
    csv += ',';
    csv.append(number, std::to_chars(number, number + sizeof number, event.time).ptr);
    csv += '\n';
  }
  return csv;
}

struct BatchShape {
  const char* preset;       ///< paper forum whose composition the crowd copies
  std::size_t users;        ///< active users generated
  double posts_per_user;    ///< mean yearly posts of an active user
  bool from_csv;            ///< ingest CSV bytes (analyze-csv) or not
};

class BatchWorkload final : public Workload {
 public:
  explicit BatchWorkload(BatchShape shape) : shape_(shape) {}

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes times;
    const Clock::time_point start = Clock::now();
    synth::ForumCrowdSpec spec = synth::paper_forum(shape_.preset);
    spec.active_users = shape_.users;
    spec.approx_posts = static_cast<std::size_t>(static_cast<double>(shape_.users) *
                                                 shape_.posts_per_user);
    synth::DatasetOptions options;
    options.seed = seed;
    const synth::Dataset crowd = synth::make_forum_crowd(spec, options);
    truth_ = clusters_of(spec);
    expected_events_ = crowd.events.size();
    if (shape_.from_csv) {
      csv_ = to_csv(crowd.events);
      trace_ = core::ActivityTrace{};
    } else {
      csv_.clear();
      trace_ = core::ActivityTrace{};
      for (const auto& event : crowd.events) trace_.add(event.user, event.time);
    }
    times.generate_s = seconds_since(start);

    const Clock::time_point reference_start = Clock::now();
    zones_ = build_reference_zones();
    times.reference_s = seconds_since(reference_start);

    input_ = {};
    if (shape_.from_csv) {
      input_.bytes = csv_.size();
      input_.hash = hex64(fnv1a(csv_));
    } else {
      std::uint64_t state = fnv1a({});
      for (const auto& event : crowd.events) {
        state = fnv1a({reinterpret_cast<const char*>(&event.user), sizeof event.user}, state);
        state = fnv1a({reinterpret_cast<const char*>(&event.time), sizeof event.time}, state);
      }
      input_.bytes = crowd.events.size() * (sizeof(std::uint64_t) + sizeof(tz::UtcSeconds));
      input_.hash = hex64(state);
    }
    input_.size = std::to_string(crowd.users.size()) + " personas (" +
                  std::to_string(shape_.users) + " active), " +
                  std::to_string(expected_events_) + " posts, " +
                  std::to_string(input_.bytes) + " input bytes";
    first_digest_.clear();
    return times;
  }

  PassOutcome pass(Tracer& tracer, int /*pass_index*/) override {
    PassOutcome out;
    const Clock::time_point start = Clock::now();
    std::optional<core::IngestResult> ingest;
    if (shape_.from_csv) {
      const Scope span(tracer, "trace_from_csv", kCore);
      ingest.emplace(core::trace_from_csv(csv_));
    }
    const core::ActivityTrace& trace = shape_.from_csv ? ingest->trace : trace_;
    const std::size_t rows_ok = shape_.from_csv ? ingest->rows_ok : trace.event_count();
    const std::size_t rows_rejected = shape_.from_csv ? ingest->rows_rejected : 0;
    const std::size_t trace_users = trace.user_count();
    const std::size_t trace_events = trace.event_count();

    std::optional<core::ProfileSet> profiles;
    {
      const Scope span(tracer, "build_profiles", kCore);
      profiles.emplace(core::build_profiles(trace, {}));
    }
    core::GeolocationResult result;
    {
      const Scope span(tracer, "geolocate_crowd", kCore);
      result = core::geolocate_crowd(profiles->users, *zones_, {});
    }
    std::string report;
    {
      const Scope span(tracer, "report", kCore);
      report = core::to_json(result).dump(2);
      report += core::placement_chart("Crowd placement", result);
      report += core::describe_geolocation("Geolocation", result);
    }
    const std::size_t users_out = profiles->users.size();
    const std::size_t users_inactive = profiles->filtered_inactive;
    {
      const Scope span(tracer, "teardown", kCore);
      ingest.reset();
      profiles.reset();
    }
    out.wall_s = seconds_since(start);
    out.posts = static_cast<double>(rows_ok);
    out.users = static_cast<double>(result.users_analyzed);
    out.digest = hex64(fnv1a(report));

    // Checked against the generated truth on every pass.
    check(out, rows_ok == expected_events_,
          "rows_ok " + std::to_string(rows_ok) + " != generated " +
              std::to_string(expected_events_));
    check(out, rows_rejected == 0, std::to_string(rows_rejected) + " rows rejected");
    check(out, users_out + users_inactive == trace_users,
          "profiles account for " + std::to_string(users_out + users_inactive) + " of " +
              std::to_string(trace_users) + " users");
    check_components(out, result, truth_);
    if (first_digest_.empty()) first_digest_ = out.digest;
    check(out, out.digest == first_digest_,
          "report digest " + out.digest + " differs from the first pass " + first_digest_);

    if (tracer.enabled()) {
      Metrics& m = out.layer;
      m["ingest.rows"] = shape_.from_csv ? static_cast<double>(rows_ok) : 0.0;
      m["ingest.bytes"] = shape_.from_csv ? static_cast<double>(csv_.size()) : 0.0;
      m["ingest.rows_rejected"] = static_cast<double>(rows_rejected);
      m["profiles.events_in"] = static_cast<double>(trace_events);
      m["profiles.users_out"] = static_cast<double>(users_out);
      m["geolocate.users_in"] = static_cast<double>(users_out);
      m["geolocate.users_flat"] = static_cast<double>(result.users_filtered_flat);
    }
    return out;
  }

  [[nodiscard]] InputFacts input() const override { return input_; }
  [[nodiscard]] const core::TimeZoneProfiles& reference() const override { return *zones_; }

 private:
  BatchShape shape_;
  std::string csv_;
  core::ActivityTrace trace_;
  std::optional<core::TimeZoneProfiles> zones_;
  std::vector<Cluster> truth_;
  std::size_t expected_events_ = 0;
  InputFacts input_;
  std::string first_digest_;
};

}  // namespace

std::unique_ptr<Workload> make_analyze_csv() {
  return std::make_unique<BatchWorkload>(BatchShape{"Dream Market", 10'000, 300.0, true});
}

std::unique_ptr<Workload> make_geolocate_crowd() {
  return std::make_unique<BatchWorkload>(
      BatchShape{"The Majestic Garden", 60'000, 31.0, false});
}

}  // namespace perfbench
