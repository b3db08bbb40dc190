#include "obs/pipeline_metrics.hpp"

#include <string>

namespace tzgeo::obs {

namespace {

[[nodiscard]] PipelineMetrics register_all() {
  MetricsRegistry& reg = MetricsRegistry::global();
  PipelineMetrics m;

  m.ingest_rows_ok = reg.counter("tzgeo_ingest_rows_ok_total", "CSV rows accepted");
  m.ingest_rows_rejected =
      reg.counter("tzgeo_ingest_rows_rejected_total", "malformed author/timestamp rows");
  m.ingest_bytes = reg.counter("tzgeo_ingest_bytes_total", "CSV bytes scanned");
  m.ingest_chunks = reg.counter("tzgeo_ingest_chunks_total", "parallel parse chunks");
  m.ingest_chunk_parse_us =
      reg.histogram("tzgeo_ingest_chunk_parse_us", "per-chunk parse wall time");
  m.ingest_escaped_fixups =
      reg.counter("tzgeo_ingest_escaped_fixups_total", "escaped CSV fields materialized");
  m.ingest_handle_load_factor_pct = reg.gauge("tzgeo_ingest_handle_load_factor_pct",
                                              "author handle-table load factor, percent");

  m.placement_batches = reg.counter("tzgeo_placement_batches_total", "placement batches");
  m.placement_users = reg.counter("tzgeo_placement_users_total", "user profiles placed");
  m.placement_batch_us = reg.histogram("tzgeo_placement_batch_us", "batch wall time");
  m.placement_zones_pruned = reg.counter("tzgeo_placement_zones_pruned_total",
                                         "zone evaluations skipped by the EMD lower bound");
  m.placement_zones_evaluated = reg.counter("tzgeo_placement_zones_evaluated_total",
                                            "zone evaluations run exactly");
  for (std::size_t bin = 0; bin < m.placement_zone.size(); ++bin) {
    // Same mapping as core::zone_of_bin (obs sits below core in the link
    // order, so it cannot call the throwing helper in tzgeo_core).
    const std::int32_t zone = static_cast<std::int32_t>(bin) + kMinZone;
    std::string name = "tzgeo_placement_zone_utc_";
    name += zone < 0 ? 'm' : 'p';
    name += std::to_string(zone < 0 ? -zone : zone);
    name += "_total";
    m.placement_zone[bin] = reg.counter(name, "users placed in this zone");
  }

  m.placement_simd_lanes = reg.counter("tzgeo_placement_simd_lanes_total",
                                       "SoA lane-slots processed by the group kernels");
  m.placement_zones_pruned_vectorized =
      reg.counter("tzgeo_placement_zones_pruned_vectorized_total",
                  "zone evaluations skipped by the whole-group lower bound (lane units)");
  m.placement_zones_evaluated_vectorized =
      reg.counter("tzgeo_placement_zones_evaluated_vectorized_total",
                  "zone evaluations run by the group kernels (lane units)");
  m.placement_shards = reg.counter("tzgeo_placement_shards_total", "SoA shard batches run");
  m.placement_transpose_us =
      reg.histogram("tzgeo_placement_transpose_us", "SoA transpose build wall time");
  const char* path_names[] = {"scalar", "avx2", "neon", "avx512"};
  for (std::size_t p = 0; p < m.placement_path_batches.size(); ++p) {
    m.placement_path_batches[p] =
        reg.counter(std::string{"tzgeo_placement_batches_"} + path_names[p] + "_total",
                    "SoA batches served by this dispatch path");
  }

  m.incremental_observations =
      reg.counter("tzgeo_incremental_observations_total", "streamed observations");
  m.incremental_snapshots =
      reg.counter("tzgeo_incremental_snapshots_total", "estimate() snapshots");
  m.incremental_snapshot_us =
      reg.histogram("tzgeo_incremental_snapshot_us", "estimate() wall time");
  m.incremental_refreshes =
      reg.counter("tzgeo_incremental_refreshes_total", "dirty users re-placed");
  m.incremental_compaction_backlog =
      reg.gauge("tzgeo_incremental_compaction_backlog",
                "cells awaiting deferred sort+unique compaction");

  m.forum_pages_fetched = reg.counter("tzgeo_forum_pages_fetched_total", "pages fetched");
  m.forum_parse_failures =
      reg.counter("tzgeo_forum_parse_failures_total", "posts skipped by the parser");
  m.forum_polls = reg.counter("tzgeo_forum_polls_total", "monitor poll sweeps started");
  m.forum_polls_failed =
      reg.counter("tzgeo_forum_polls_failed_total", "monitor poll sweeps aborted");
  m.forum_polls_partial = reg.counter("tzgeo_forum_polls_partial_total",
                                      "poll sweeps committed with threads skipped");
  m.forum_poll_recoveries = reg.counter("tzgeo_forum_poll_recoveries_total",
                                        "successful sweeps right after a failed one");
  m.forum_poll_us = reg.histogram("tzgeo_forum_poll_us", "poll sweep wall time");
  m.forum_threads_quarantined = reg.counter("tzgeo_forum_threads_quarantined_total",
                                            "threads skipped while quarantined");
  m.forum_checkpoint_writes =
      reg.counter("tzgeo_forum_checkpoint_writes_total", "monitor checkpoints persisted");
  m.forum_checkpoint_resumes =
      reg.counter("tzgeo_forum_checkpoint_resumes_total", "campaigns resumed from disk");
  m.forum_checkpoint_write_us =
      reg.histogram("tzgeo_forum_checkpoint_write_us", "checkpoint serialize+fsync time");

  m.fleet_forums_active = reg.gauge("tzgeo_fleet_forums_active", "fleet forums polling");
  m.fleet_forums_quarantined =
      reg.gauge("tzgeo_fleet_forums_quarantined", "fleet forums in cooldown quarantine");
  m.fleet_forums_parked =
      reg.gauge("tzgeo_fleet_forums_parked", "fleet forums parked for the campaign");
  m.fleet_rounds = reg.counter("tzgeo_fleet_rounds_total", "fleet poll rounds completed");
  m.fleet_round_us = reg.histogram("tzgeo_fleet_round_us", "whole-round wall time");
  m.fleet_forum_poll_us =
      reg.histogram("tzgeo_fleet_forum_poll_us", "per-forum poll wall time inside a round");
  m.fleet_polls_skipped = reg.counter("tzgeo_fleet_polls_skipped_total",
                                      "forum polls skipped while quarantined or parked");
  m.fleet_checkpoint_writes =
      reg.counter("tzgeo_fleet_checkpoint_writes_total", "fleet manifest checkpoints persisted");
  m.fleet_checkpoint_write_us =
      reg.histogram("tzgeo_fleet_checkpoint_write_us", "fleet checkpoint serialize+fsync time");
  m.fleet_checkpoint_resumes =
      reg.counter("tzgeo_fleet_checkpoint_resumes_total", "fleet campaigns resumed from disk");
  m.fleet_sub_entries_quarantined =
      reg.counter("tzgeo_fleet_sub_entries_quarantined_total",
                  "corrupt per-forum checkpoint sub-entries parked on resume");

  m.tor_requests = reg.counter("tzgeo_tor_requests_total", "hidden-service round trips");
  m.tor_request_failures =
      reg.counter("tzgeo_tor_request_failures_total", "circuit drops mid-request");
  m.tor_retries = reg.counter("tzgeo_tor_retries_total", "retry attempts after a drop");
  m.tor_circuits_built = reg.counter("tzgeo_tor_circuits_built_total", "rendezvous circuits");
  m.tor_circuit_build_ms =
      reg.histogram("tzgeo_tor_circuit_build_ms", "simulated circuit setup latency");
  m.tor_rate_limit_waits =
      reg.counter("tzgeo_tor_rate_limit_waits_total", "429 backoffs taken");

  m.fault_injections =
      reg.counter("tzgeo_fault_injections_total", "chaos faults fired by the injector");

  m.trace_spans_dropped = reg.counter("tzgeo_obs_trace_spans_dropped_total",
                                      "spans overwritten in the global trace ring");
  m.log_records_dropped = reg.counter("tzgeo_obs_log_records_dropped_total",
                                      "log records overwritten in the global log ring");
  m.log_records_suppressed =
      reg.counter("tzgeo_obs_log_records_suppressed_total",
                  "log writes dropped by level or per-site rate limits");

  return m;
}

}  // namespace

const PipelineMetrics& PipelineMetrics::get() {
  static const PipelineMetrics metrics = register_all();
  return metrics;
}

}  // namespace tzgeo::obs
