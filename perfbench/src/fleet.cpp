// The monitor workload: a week-long forum::Fleet campaign over 24 boards
// with hidden timestamps, crawled through the simulated Tor transport
// under per-board random fault plans.  Every 4th round checkpoints; every
// commit feeds a per-board IncrementalGeolocator whose payload rides in
// the checkpoint; the process "crashes" twice and resumes.
#include <cmath>
#include <filesystem>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/incremental.hpp"
#include "fault/plan.hpp"
#include "forum/engine.hpp"
#include "forum/error.hpp"
#include "forum/fleet.hpp"
#include "obs/pipeline_metrics.hpp"
#include "synth/dataset.hpp"
#include "timezone/civil.hpp"
#include "timezone/zone_db.hpp"

namespace perfbench {
namespace {

using namespace tzgeo;

constexpr std::size_t kBoards = 24;
constexpr std::size_t kUsersPerBoard = 40;
constexpr double kYearlyPostsFloor = 3000.0;  ///< ~90 posts per user in the campaign week
constexpr std::int64_t kInterval = 1800;
constexpr std::int64_t kDuration = 7 * 86400;
constexpr std::size_t kRounds = kDuration / kInterval + 1;
/// Rounds each process lifetime runs before its scripted crash (0: to the end).
constexpr std::size_t kLifetimes[] = {112, 112, 0};
/// Checkpoint cadence in rounds.  Every write is fsynced to the checkout's
/// disk; checkpointing every round let the fsyncs dominate a campaign and
/// made its timings swing with the host's disk load.
constexpr std::size_t kCheckpointEveryRounds = 4;
// A crash right after a checkpoint resumes from the round it halted at.
static_assert(kLifetimes[0] % kCheckpointEveryRounds == 0 &&
              kLifetimes[1] % kCheckpointEveryRounds == 0);
/// Live estimates run once per simulated day.
constexpr std::size_t kEstimateEveryRounds = 48;
/// Board zones; January keeps every one of them on standard time.
constexpr const char* kZones[] = {"Europe/Moscow",  "America/New_York",  "Asia/Tokyo",
                                  "Europe/Berlin",  "America/Chicago",   "Asia/Kuala_Lumpur",
                                  "Europe/London",  "America/Los_Angeles"};

[[nodiscard]] tz::UtcSeconds campaign_start() {
  return tz::to_utc_seconds({tz::CivilDate{2016, 1, 10}, 0, 0, 0});
}

/// Accuracy bound on a board's placement, from the library's own chaos
/// proof (tests/test_chaos.cpp): under kHidden the only stamp is the
/// crawl's observation time, so fault backoffs and re-probes shift some
/// posts by hours, and "two zones of drift on the crowd mean would mean the
/// conclusion changed".  The heaviest mixture component alone is too
/// fragile for a 40-user board to be a pass/fail criterion; how many boards
/// it places within one zone is reported as accuracy.boards_top_within_1.
constexpr double kMeanZoneTolerance = 2.0;

/// Signed gap a - b on the 24-hour circle, in (-12, 12].
[[nodiscard]] double zone_gap(double a, double b) {
  double gap = std::fmod(a - b, 24.0);
  if (gap > 12.0) gap -= 24.0;
  if (gap <= -12.0) gap += 24.0;
  return gap;
}

/// Count-weighted circular mean of a 24-bin per-zone histogram.
[[nodiscard]] double circular_mean_zone(const std::vector<double>& counts) {
  double x = 0.0;
  double y = 0.0;
  for (std::size_t bin = 0; bin < counts.size(); ++bin) {
    const double angle = 2.0 * std::numbers::pi * core::zone_of_bin(bin) / 24.0;
    x += counts[bin] * std::cos(angle);
    y += counts[bin] * std::sin(angle);
  }
  return std::atan2(y, x) * 24.0 / (2.0 * std::numbers::pi);
}

[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  return seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
}

/// Counters the callbacks add to while a campaign runs.
struct CallbackTimes {
  double observe_s = 0.0;
  double payload_s = 0.0;
  double payload_bytes = 0.0;
};

class FleetWorkload final : public Workload {
 public:
  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes times;
    const Clock::time_point start = Clock::now();
    seed_ = seed;
    util::Rng rng{seed};
    consensus_.emplace(tor::Consensus::synthetic(150, rng));
    engines_.clear();
    offsets_.clear();
    plans_.clear();
    const tz::UtcSeconds t0 = campaign_start();
    std::uint64_t state = fnv1a({});
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < kBoards; ++i) {
      const char* zone = kZones[i % std::size(kZones)];
      synth::DatasetOptions options;
      options.seed = mix(seed, i);
      options.inactive_fraction = 0.0;
      options.active_volume_floor = kYearlyPostsFloor;
      options.trace.start = tz::CivilDate{2016, 1, 3};
      options.trace.end = tz::CivilDate{2016, 1, 18};
      const synth::RegionSpec region{"Board " + std::to_string(i), zone, kUsersPerBoard};
      const synth::Dataset crowd = synth::make_region_dataset(region, kUsersPerBoard, options);
      for (const auto& event : crowd.events) {
        state = fnv1a({reinterpret_cast<const char*>(&event.user), sizeof event.user}, state);
        state = fnv1a({reinterpret_cast<const char*>(&event.time), sizeof event.time}, state);
      }
      events += crowd.events.size();
      forum::ForumConfig config;
      config.name = region.name;
      config.policy = forum::TimestampPolicy::kHidden;
      engines_.push_back(std::make_unique<forum::ForumEngine>(config, crowd));
      offsets_.push_back(tz::zone(zone).standard_offset_hours());
      plans_.push_back(fault::FaultPlan::random(mix(seed, 1000 + i), t0, t0 + kDuration / 2));
    }
    times.generate_s = seconds_since(start);

    const Clock::time_point reference_start = Clock::now();
    zones_.emplace(build_reference_zones());
    times.reference_s = seconds_since(reference_start);

    input_.bytes = events * (sizeof(std::uint64_t) + sizeof(tz::UtcSeconds));
    input_.hash = hex64(state);
    input_.size = std::to_string(kBoards) + " boards x " + std::to_string(kUsersPerBoard) +
                  " users, " + std::to_string(events) + " generated posts, " +
                  std::to_string(kRounds) + " rounds";
    first_digest_.clear();
    return times;
  }

  PassOutcome pass(Tracer& tracer, int /*pass_index*/) override {
    PassOutcome out;
    const std::string path =
        (std::filesystem::path(out_dir_) / ("fleet_" + std::to_string(seed_) + ".ckpt")).string();
    std::filesystem::remove(path);
    auto& registry = obs::MetricsRegistry::global();
    const obs::MetricId write_us = obs::PipelineMetrics::get().fleet_checkpoint_write_us;

    CallbackTimes callbacks;
    double round_busy_s = 0.0;
    double resume_s = 0.0;
    double estimate_s = 0.0;
    double checkpoint_bytes = 0.0;
    std::size_t rounds = 0;
    std::size_t lifetimes = 0;
    std::optional<forum::FleetResult> result;
    std::vector<core::IncrementalGeolocator> geos;

    const Clock::time_point start = Clock::now();
    for (const std::size_t halt_after : kLifetimes) {
      ++lifetimes;
      {
        const Scope span(tracer, "incremental_init", kCore);
        geos.clear();
        geos.reserve(kBoards);
        for (std::size_t i = 0; i < kBoards; ++i) geos.emplace_back(*zones_);
      }
      forum::FleetOptions options;
      options.start_time_seconds = campaign_start();
      options.poll_interval_seconds = kInterval;
      options.duration_seconds = kDuration;
      options.seed = seed_;
      options.checkpoint_path = path;
      options.checkpoint_every_rounds = kCheckpointEveryRounds;
      options.halt_after_rounds = halt_after;
      options.on_commit = [&](std::size_t board, const std::vector<forum::ScrapeRecord>& records) {
        const Scope span(tracer, "on_commit", kCore);
        const Clock::time_point t = Clock::now();
        for (const auto& record : records) geos[board].observe(record.author, record.observed_utc);
        callbacks.observe_s += seconds_since(t);
      };
      options.checkpoint_extra = [&](std::size_t board) {
        const Scope span(tracer, "checkpoint_extra", kCore);
        const Clock::time_point t = Clock::now();
        std::string payload = geos[board].checkpoint_payload();
        callbacks.payload_s += seconds_since(t);
        callbacks.payload_bytes += static_cast<double>(payload.size());
        return payload;
      };
      options.restore_extra = [&](std::size_t board, std::string_view payload) {
        const Scope span(tracer, "restore_extra", kCore);
        if (!payload.empty()) geos[board].restore_checkpoint(payload);
      };

      std::optional<forum::Fleet> fleet;
      {
        const Scope span(tracer, lifetimes == 1 ? "fleet_construct" : "fleet_resume", kForum);
        const Clock::time_point t = Clock::now();
        fleet.emplace(*consensus_, specs(), std::move(options));
        if (lifetimes > 1) resume_s += seconds_since(t);
      }
      bool halted = false;
      while (!fleet->done() && !halted) {
        const std::size_t round = fleet->next_round();
        const double payload_before = callbacks.payload_s;
        const obs::HistogramSnapshot writes_before = registry.histogram_value(write_us);
        {
          const Scope span(tracer, "poll_round", kForum);
          const Clock::time_point t = Clock::now();
          try {
            fleet->poll_round();
          } catch (const forum::CrawlError& error) {
            if (error.category() != forum::CrawlErrorCategory::kHalted) throw;
            halted = true;
          }
          const double round_s = seconds_since(t);
          out.round_ms.push_back(round_s * 1e3);
          round_busy_s += round_s;
          ++rounds;
          if (tracer.enabled()) {
            // The checkpoint write (util) wraps the payload callbacks
            // (core, already child spans): move only the write's own time.
            const obs::HistogramSnapshot writes = registry.histogram_value(write_us);
            const double write_s = static_cast<double>(writes.sum - writes_before.sum) * 1e-6;
            tracer.move_time(span.id(), kUtil, write_s - (callbacks.payload_s - payload_before));
            if (writes.count > writes_before.count) {
              std::error_code ignored;
              checkpoint_bytes += static_cast<double>(std::filesystem::file_size(path, ignored));
            }
          }
        }
        if ((round + 1) % kEstimateEveryRounds == 0) estimate_s += estimate_all(tracer, geos);
      }
      if (!halted) {
        const Scope span(tracer, "finish", kForum);
        result.emplace(fleet->finish());
      }
      const Scope span(tracer, "teardown", kForum);
      fleet.reset();
      if (result) break;
    }
    if (!result) throw std::logic_error("fleet campaign ended without a result");
    estimate_s += estimate_all(tracer, geos, &out);
    std::size_t committed = 0;
    for (const auto& board : result->forums) committed += board.dump.records.size();
    std::size_t observed = 0;
    for (const auto& geo : geos) observed += geo.post_count();
    {
      const Scope span(tracer, "teardown", kCore);
      geos.clear();
    }
    out.wall_s = seconds_since(start);
    out.posts = static_cast<double>(committed);

    std::uint64_t digest = fnv1a(std::to_string(committed));
    for (const auto& board : result->forums) {
      digest = fnv1a(board.manifest.forum_name, digest);
      digest = fnv1a(std::to_string(board.manifest.combined_hash), digest);
      digest = fnv1a(forum::to_string(board.status), digest);
    }
    out.digest = hex64(digest);

    check(out, rounds == kRounds, "ran " + std::to_string(rounds) + " rounds");
    check(out, lifetimes == std::size(kLifetimes),
          "campaign took " + std::to_string(lifetimes) + " lifetimes");
    check(out, result->rounds == kRounds, "fleet reports " + std::to_string(result->rounds));
    check(out, observed == committed,
          "geolocators observed " + std::to_string(observed) + " of " +
              std::to_string(committed) + " committed posts");
    check(out, !std::filesystem::exists(path), "finished campaign left its checkpoint");
    if (first_digest_.empty()) first_digest_ = out.digest;
    check(out, out.digest == first_digest_,
          "manifest digest " + out.digest + " differs from the first pass " + first_digest_);

    if (tracer.enabled()) {
      Metrics& m = out.layer;
      m["fleet.round_busy_s"] = round_busy_s;
      m["fleet.checkpoint_bytes"] = checkpoint_bytes;
      m["fleet.resume_s"] = resume_s;
      m["incremental.observe_s"] = callbacks.observe_s;
      m["incremental.payload_s"] = callbacks.payload_s;
      m["incremental.payload_bytes"] = callbacks.payload_bytes;
      m["incremental.estimate_s"] = estimate_s;
    }
    return out;
  }

  [[nodiscard]] InputFacts input() const override { return input_; }
  [[nodiscard]] const core::TimeZoneProfiles& reference() const override { return *zones_; }
  [[nodiscard]] int min_passes() const override { return 2; }

  void set_out_dir(std::string dir) { out_dir_ = std::move(dir); }

 private:
  [[nodiscard]] std::vector<forum::FleetForumSpec> specs() const {
    std::vector<forum::FleetForumSpec> out;
    out.reserve(kBoards);
    for (std::size_t i = 0; i < kBoards; ++i) {
      forum::FleetForumSpec spec;
      spec.name = "board" + std::to_string(i);
      forum::ForumEngine* const engine = engines_[i].get();
      spec.handler = [engine](const tor::Request& request, std::int64_t now) {
        return engine->handle(request, now);
      };
      spec.service_key = 700 + i;
      spec.fault_plan = &plans_[i];
      out.push_back(std::move(spec));
    }
    return out;
  }

  /// Runs every board's live estimate; with `out`, checks each board's
  /// placement against its true zone.  Returns the seconds spent.
  double estimate_all(Tracer& tracer, std::vector<core::IncrementalGeolocator>& geos,
                      PassOutcome* out = nullptr) {
    const Scope span(tracer, "estimate", kCore);
    const Clock::time_point t = Clock::now();
    std::vector<core::IncrementalGeolocator::Snapshot> snapshots;
    snapshots.reserve(geos.size());
    for (auto& geo : geos) snapshots.push_back(geo.estimate());
    const double elapsed = seconds_since(t);
    if (out == nullptr) return elapsed;
    double top_ok = 0.0;
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      const auto& snapshot = snapshots[i];
      out->users += static_cast<double>(snapshot.active_users);
      const double mean = circular_mean_zone(snapshot.counts);
      const bool placed =
          snapshot.active_users > 0 && std::abs(zone_gap(mean, offsets_[i])) <= kMeanZoneTolerance;
      check(*out, placed,
            "board " + std::to_string(i) + " placed at mean UTC" + std::to_string(mean) +
                ", true UTC" + std::to_string(offsets_[i]) + " (" +
                std::to_string(snapshot.active_users) + " active users, " +
                std::to_string(snapshot.posts) + " posts)");
      if (!snapshot.components.empty() &&
          zone_distance(snapshot.components.front().nearest_zone, offsets_[i]) <= 1) {
        ++top_ok;
      }
    }
    out->layer["accuracy.boards_top_within_1"] = top_ok;
    return elapsed;
  }

  std::uint64_t seed_ = 0;
  std::string out_dir_ = ".";
  std::optional<tor::Consensus> consensus_;
  std::vector<std::unique_ptr<forum::ForumEngine>> engines_;
  std::vector<int> offsets_;
  std::vector<fault::FaultPlan> plans_;
  std::optional<core::TimeZoneProfiles> zones_;
  InputFacts input_;
  std::string first_digest_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_campaign(const std::string& out_dir) {
  auto workload = std::make_unique<FleetWorkload>();
  workload->set_out_dir(out_dir);
  return workload;
}

}  // namespace perfbench
