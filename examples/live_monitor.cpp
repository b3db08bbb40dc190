// Monitoring a forum that hides timestamps (Discussion, Section VII).
//
// "Timestamps are always shown in the Dark Web forums under investigation.
// However, the forum might remove them [...] it is enough to monitor the
// forum, see when posts are made and timestamp them ourselves."
//
// The monitor polls the board on an interval, stamps newly appeared posts
// with its own clock, and the stamped trace feeds the same geolocation
// pipeline.  Stamping error is bounded by the poll interval (30 min here),
// far below the one-hour bin size of the profiles.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include <unistd.h>

#include "core/geolocator.hpp"
#include "core/incremental.hpp"
#include "core/profile_builder.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "forum/calibration.hpp"
#include "forum/engine.hpp"
#include "forum/error.hpp"
#include "forum/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/pipeline_metrics.hpp"
#include "synth/dataset.hpp"
#include "timezone/zone_db.hpp"
#include "util/strings.hpp"

using namespace tzgeo;

namespace {

core::TimeZoneProfiles reference_zones() {
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

/// One-line ops view of the round, straight from the metrics registry:
/// poll reliability, page volume, and the p50 poll/snapshot latencies.
/// Latencies are wall-clock, so the line goes to stderr and stdout stays
/// the same from run to run.
void print_obs_stats_line() {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t polls = registry.counter_value(metrics.forum_polls);
  const std::uint64_t failed = registry.counter_value(metrics.forum_polls_failed);
  const std::uint64_t pages = registry.counter_value(metrics.forum_pages_fetched);
  const std::uint64_t poll_p50 =
      obs::approx_quantile(registry.histogram_value(metrics.forum_poll_us), 0.5);
  const std::uint64_t snap_p50 =
      obs::approx_quantile(registry.histogram_value(metrics.incremental_snapshot_us), 0.5);
  std::fprintf(stderr,
               "  [obs] polls %llu (failed %llu)  pages %llu  poll p50 ~%lluus  "
               "snapshot p50 ~%lluus\n",
               static_cast<unsigned long long>(polls), static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(pages),
               static_cast<unsigned long long>(poll_p50),
               static_cast<unsigned long long>(snap_p50));
}

/// Robustness view of the round: injected faults, degraded sweeps, and
/// checkpoint traffic.
void print_chaos_stats_line(const fault::FaultInjector& injector) {
  const obs::PipelineMetrics& metrics = obs::PipelineMetrics::get();
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::printf("  [chaos] faults injected %llu  partial polls %llu  thread quarantines %llu  "
              "checkpoints written %llu (resumed %llu)\n",
              static_cast<unsigned long long>(injector.stats().total()),
              static_cast<unsigned long long>(
                  registry.counter_value(metrics.forum_polls_partial)),
              static_cast<unsigned long long>(
                  registry.counter_value(metrics.forum_threads_quarantined)),
              static_cast<unsigned long long>(
                  registry.counter_value(metrics.forum_checkpoint_writes)),
              static_cast<unsigned long long>(
                  registry.counter_value(metrics.forum_checkpoint_resumes)));
}

/// Deletes the checkpoint (and any half-written temporary beside it) when
/// main leaves, on every path, so runs leave no files behind.
struct CheckpointCleanup {
  std::string path;
  ~CheckpointCleanup() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    std::filesystem::remove(path + ".tmp", ignored);
  }
};

}  // namespace

int main() {
  const core::TimeZoneProfiles zones = reference_zones();

  // A Russian-speaking forum that hides all timestamps.
  synth::DatasetOptions options;
  options.seed = 2020;
  options.scale = 0.6;
  const synth::Dataset crowd =
      synth::make_forum_crowd(synth::paper_forum("CRD Club"), options);
  forum::ForumConfig config;
  config.name = "CRD Club (timestamps hidden)";
  config.policy = forum::TimestampPolicy::kHidden;
  forum::ForumEngine engine{config, crowd};

  util::Rng consensus_rng{300};
  const tor::Consensus consensus = tor::Consensus::synthetic(200, consensus_rng);
  // Start the monitor at the beginning of the crowd's activity year.
  const tz::UtcSeconds t0 = tz::to_utc_seconds({tz::CivilDate{2016, 1, 10}, 0, 0, 0});
  util::SimClock clock{t0};

  // A months-long campaign meets real weather: a scripted fault schedule
  // batters the first round with an outage, a 429 storm, garbled pages,
  // and circuit-drop bursts.  The monitor's degradation ladder has to ride
  // it out without losing the campaign.
  fault::FaultPlan plan;
  plan.seed = 1303;
  plan.outage(t0 + 3 * 86400, t0 + 3 * 86400 + 6 * 3600)
      .rate_limit_storm(t0 + 5 * 86400, t0 + 5 * 86400 + 4 * 3600, 0.7)
      .garbled_bodies(t0 + 7 * 86400, t0 + 7 * 86400 + 3 * 3600, 0.5)
      .circuit_drops(t0 + 9 * 86400, t0 + 9 * 86400 + 8 * 3600, 0.4);
  fault::FaultInjector injector{plan};
  tor::TransportOptions transport_options;
  transport_options.fault_injector = &injector;
  tor::OnionTransport transport{consensus, clock, 44, transport_options};
  const std::string onion =
      transport.host(util::hash64("crdclub-hidden"),
                     [&engine](const tor::Request& request, std::int64_t now) {
                       return engine.handle(request, now);
                     });

  // Calibration fails: there is nothing to read.
  const auto calibration = forum::calibrate_server_clock(transport, onion);
  std::printf("calibration possible: %s -> switching to monitor mode\n",
              calibration.has_value() ? "yes" : "no");

  // Monitor in 30-day chunks and keep a *streaming* estimate alive, so the
  // investigation reports a verdict timeline instead of one final answer.
  // The geolocator's state rides inside the monitor checkpoint
  // (checkpoint_extra/restore_extra), so a crash loses neither.
  auto streaming = std::make_unique<core::IncrementalGeolocator>(zones);
  // One checkpoint per process, so runs started side by side in one
  // directory never share a file.
  const std::string checkpoint_path =
      (std::filesystem::temp_directory_path() /
       ("live_monitor." + std::to_string(::getpid()) + ".ckpt"))
          .string();
  std::filesystem::remove(checkpoint_path);  // no stale campaign
  const CheckpointCleanup cleanup{checkpoint_path};
  const auto wire = [&](forum::MonitorOptions& monitor) {
    monitor.checkpoint_path = checkpoint_path;
    monitor.checkpoint_every_polls = 16;
    monitor.on_commit = [&](const std::vector<forum::ScrapeRecord>& records) {
      for (const auto& record : records) {
        streaming->observe(record.author, record.observed_utc);
      }
    };
    monitor.checkpoint_extra = [&] { return streaming->checkpoint_payload(); };
    monitor.restore_extra = [&](std::string_view payload) {
      streaming->restore_checkpoint(payload);
    };
  };

  forum::ScrapeDump dump;
  dump.onion = onion;
  std::printf("monitoring %s.onion in 30-day rounds (poll every 30 min)...\n\n", onion.c_str());
  std::printf("%-12s %-10s %-14s %s\n", "days", "posts", "active users", "current verdict");
  for (int round = 1; round <= 10; ++round) {
    forum::MonitorOptions monitor;
    monitor.poll_interval_seconds = 1800;
    monitor.duration_seconds = 30 * 86400;
    wire(monitor);
    forum::ScrapeDump chunk;
    if (round == 1) {
      // Simulate the crawler box dying mid-round, then a fresh process
      // resuming the same campaign from the checkpoint: new geolocator,
      // state restored atomically with the monitor's cursor.  The round
      // completes as if the crash never happened.
      monitor.halt_after_polls = 700;
      try {
        chunk = forum::monitor_forum(transport, onion, monitor);
      } catch (const forum::CrawlError& error) {
        std::printf("  [chaos] %s — restarting from the checkpoint\n", error.what());
        streaming = std::make_unique<core::IncrementalGeolocator>(zones);
        monitor.halt_after_polls = 0;
        chunk = forum::monitor_forum(transport, onion, monitor);
      }
    } else {
      chunk = forum::monitor_forum(transport, onion, monitor);
    }
    dump.records.insert(dump.records.end(), chunk.records.begin(), chunk.records.end());
    dump.pages_fetched += chunk.pages_fetched;

    const auto snapshot = streaming->estimate();
    std::string verdict = "(not enough data)";
    if (!snapshot.components.empty()) {
      verdict = core::zone_label(snapshot.components.front().nearest_zone) + " (center " +
                util::format_fixed(snapshot.components.front().mean_zone, 2) + ")";
    }
    std::printf("%-12d %-10zu %-14zu %s\n", round * 30, snapshot.posts,
                snapshot.active_users, verdict.c_str());
    print_obs_stats_line();
    print_chaos_stats_line(injector);
  }
  std::printf("\nobserved %zu new posts over %zu page fetches in total\n",
              dump.records.size(), dump.pages_fetched);

  const auto posts = forum::to_utc_posts_observed(dump);
  core::ActivityTrace trace;
  for (const auto& post : posts) trace.add(post.author, post.utc_time);
  const core::ProfileSet profiles = core::build_profiles(trace, {});
  std::printf("members with >=30 observed posts: %zu (below threshold: %zu)\n\n",
              profiles.users.size(), profiles.filtered_inactive);

  if (profiles.users.empty()) {
    std::printf("not enough data — monitor longer (Discussion VII)\n");
    return 1;
  }
  const core::GeolocationResult result = core::geolocate_crowd(profiles.users, zones);
  std::printf("%s\n",
              core::placement_chart("Hidden-timestamp forum — placement from monitor stamps",
                                    result)
                  .c_str());
  std::printf("%s", core::describe_geolocation("Findings (expect UTC+3..+4)", result).c_str());
  return 0;
}
