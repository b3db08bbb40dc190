// tzgeo_perfbench: one process of one end-to-end workload run.
//
//   tzgeo_perfbench --workload analyze-csv|geolocate-crowd|fleet-campaign
//                   --seed N --seconds S --trace 0|1 --out-dir DIR
//                   [--mode run|cold] [--git-rev REV] [--source-hash HASH]
//
// --mode run (the default) sets the workload up several times, then runs
// passes until S seconds have passed and at least the workload's minimum
// number of passes ran; pass 0 is the cold pass.  --mode cold sets up
// once and runs pass 0 only: run.py starts a few of those to sample the
// cold pass in fresh processes.  Every pass is checked against the
// generated truth.  The last line of stdout is the result object, with
// the report digest and setup samples that run.py merges across
// processes; a report with provenance goes to
// DIR/report_<workload>_<seed>_<mode><trace>.json, and a traced run also
// writes its spans to DIR/spans_<workload>_<seed>.json.
//
// --trace 1 traces the even passes and leaves the odd ones untraced, so
// the tracing overhead is the difference of the two medians.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/simd/simd.hpp"
#include "core/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool cold = false;  ///< one setup and one pass, for a fresh-process cold sample
  std::string out_dir = ".";
  std::string git_rev = "unknown";
  std::string source_hash = "unknown";
};

[[nodiscard]] Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--mode") {
      if (value != "cold" && value != "run") throw std::invalid_argument("--mode cold|run");
      options.cold = value == "cold";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-rev") {
      options.git_rev = value;
    } else if (flag == "--source-hash") {
      options.source_hash = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return options;
}

/// Linear-interpolation quantile (q in [0, 1]) of `values`.
[[nodiscard]] double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] + (values[upper] - values[lower]) * (position - static_cast<double>(lower));
}

[[nodiscard]] double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[nodiscard]] std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Per-layer quantities read from the library's registry deltas.
void add_registry_metrics(Metrics& m, const RegistryReading& d, double traced_passes) {
  const auto per_pass = [&](double value) { return value / traced_passes; };
  const double evaluated = d.counter("tzgeo_placement_zones_evaluated_total") +
                           d.counter("tzgeo_placement_zones_evaluated_vectorized_total");
  const double pruned = d.counter("tzgeo_placement_zones_pruned_total") +
                        d.counter("tzgeo_placement_zones_pruned_vectorized_total");
  m["placement.users"] = per_pass(d.counter("tzgeo_placement_users_total"));
  m["placement.zones_evaluated"] = per_pass(evaluated);
  m["placement.prune_ratio"] = pruned + evaluated > 0 ? pruned / (pruned + evaluated) : 0.0;
  m["placement.transpose_s"] = per_pass(d.hist_sum("tzgeo_placement_transpose_us") * 1e-6);
  m["placement.soa_cache_hits"] = per_pass(d.counter("tzgeo_placement_soa_cache_hits_total"));
  m["placement.soa_cache_misses"] = per_pass(d.counter("tzgeo_placement_soa_cache_misses_total"));

  m["fleet.checkpoint_write_s"] = per_pass(d.hist_sum("tzgeo_fleet_checkpoint_write_us") * 1e-6);
  m["fleet.checkpoint_writes"] = per_pass(d.hist_count("tzgeo_fleet_checkpoint_write_us"));
  m["fleet.poll_busy_s"] = per_pass(d.hist_sum("tzgeo_fleet_forum_poll_us") * 1e-6);
  m["fleet.polls"] = per_pass(d.hist_count("tzgeo_fleet_forum_poll_us"));
  m["fleet.polls_failed"] = per_pass(d.counter("tzgeo_forum_polls_failed_total"));
  m["fleet.polls_skipped"] = per_pass(d.counter("tzgeo_fleet_polls_skipped_total"));
  m["forum.pages_fetched"] = per_pass(d.counter("tzgeo_forum_pages_fetched_total"));
  m["forum.parse_failures"] = per_pass(d.counter("tzgeo_forum_parse_failures_total"));
  m["tor.requests"] = per_pass(d.counter("tzgeo_tor_requests_total"));
  m["tor.retries"] = per_pass(d.counter("tzgeo_tor_retries_total"));
  m["tor.request_failures"] = per_pass(d.counter("tzgeo_tor_request_failures_total"));
  m["fault.injections"] = per_pass(d.counter("tzgeo_fault_injections_total"));
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of a run, as BENCHMARK.json lists them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"cold_pass_s", "s"},    {"posts_per_s", "1/s"},
    {"users_per_s", "1/s"},    {"round_ms_p50", "ms"},  {"round_ms_p95", "ms"},
    {"peak_rss_mb", "MB"},     {"checks_ok_frac", "frac"},
};
/// Every per-layer metric; a layer the workload does not touch reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"setup.generate_s", "s"},          {"reference.build_s", "s"},
    {"ingest.busy_s", "s"},             {"ingest.rows", "count"},
    {"ingest.bytes", "bytes"},          {"ingest.rows_rejected", "count"},
    {"profiles.busy_s", "s"},           {"profiles.events_in", "count"},
    {"profiles.users_out", "count"},    {"geolocate.busy_s", "s"},
    {"geolocate.users_in", "count"},    {"geolocate.users_flat", "count"},
    {"placement.users", "count"},       {"placement.zones_evaluated", "count"},
    {"placement.prune_ratio", "frac"},  {"placement.transpose_s", "s"},
    {"placement.soa_cache_hits", "count"}, {"placement.soa_cache_misses", "count"},
    {"report.busy_s", "s"},             {"fleet.round_busy_s", "s"},
    {"fleet.checkpoint_write_s", "s"},  {"fleet.checkpoint_writes", "count"},
    {"fleet.checkpoint_bytes", "bytes"}, {"fleet.resume_s", "s"},
    {"fleet.poll_busy_s", "s"},         {"fleet.polls", "count"},
    {"fleet.polls_failed", "count"},    {"fleet.polls_skipped", "count"},
    {"forum.pages_fetched", "count"},   {"forum.parse_failures", "count"},
    {"forum.posts_per_page", "posts/page"}, {"tor.requests", "count"},
    {"tor.retries", "count"},           {"tor.request_failures", "count"},
    {"tor.requests_per_post", "req/post"}, {"fault.injections", "count"},
    {"incremental.observe_s", "s"},     {"incremental.payload_s", "s"},
    {"incremental.payload_bytes", "bytes"}, {"incremental.estimate_s", "s"},
    {"self.core_s", "s"},               {"self.forum_s", "s"},
    {"self.util_s", "s"},               {"unattributed_s", "s"},
    {"unattributed_frac", "frac"},      {"trace.overhead_frac", "frac"},
    {"traced_pass_s", "s"},             {"accuracy.boards_top_within_1", "count"},
};

[[nodiscard]] const char* unit_of(const std::string& name) {
  for (const MetricSpec& spec : kEndToEnd) {
    if (name == spec.name) return spec.unit;
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (name == spec.name) return spec.unit;
  }
  throw std::logic_error("metric " + name + " is not declared");
}

[[nodiscard]] std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

[[nodiscard]] std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    out += (out.size() == 1 ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(value) + ", \"unit\": " + json_string(unit_of(name)) + "}";
  }
  return out + "}";
}

/// Provenance: numbers from different hosts or builds must not be
/// compared unnoticed.
[[nodiscard]] std::string provenance_json(const Options& options, const Workload& workload) {
  const InputFacts input = workload.input();
  std::string out = "{";
  out += "\"git_rev\": " + json_string(options.git_rev);
  out += ", \"source_hash\": " + json_string(options.source_hash);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(__VERSION__);
  out += ", \"simd_path\": " +
         json_string(tzgeo::core::simd::to_string(tzgeo::core::simd::active_path()));
  out += ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_workers\": " + std::to_string(tzgeo::core::ThreadPool::global().size());
  out += ", \"thread_sweep\": \"unsupported: the pool sizes itself from "
         "hardware_concurrency\"";
  out += ", \"workload\": " + json_string(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"input_size\": " + json_string(input.size);
  out += ", \"input_bytes\": " + std::to_string(input.bytes);
  out += ", \"input_hash\": " + json_string(input.hash);
  out += ", \"reference_hash\": " + json_string(hash_reference(workload.reference()));
  return out + "}";
}

[[nodiscard]] std::unique_ptr<Workload> make(const Options& options) {
  if (options.workload == "analyze-csv") return make_analyze_csv();
  if (options.workload == "geolocate-crowd") return make_geolocate_crowd();
  if (options.workload == "fleet-campaign") return make_fleet_campaign(options.out_dir);
  throw std::invalid_argument("unknown workload " + options.workload);
}

int run(const Options& options) {
  std::filesystem::create_directories(options.out_dir);
  std::unique_ptr<Workload> workload = make(options);

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> reference_s;
  for (int i = 0; i < (options.cold ? 1 : kSetupRepeats); ++i) {
    const Clock::time_point start = Clock::now();
    const Workload::SetupTimes times = workload->setup(options.seed);
    setup_s.push_back(seconds_since(start));
    generate_s.push_back(times.generate_s);
    reference_s.push_back(times.reference_s);
  }

  Tracer tracer;
  std::vector<PassOutcome> passes;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;  // passes >= 1 only: pass 0 is cold
  RegistryReading registry_delta;
  Metrics layer_sums;
  const Clock::time_point measure_start = Clock::now();
  for (int index = 0;; ++index) {
    const bool traced = options.trace && index % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_pass(index);
    const RegistryReading before = traced ? RegistryReading::now() : RegistryReading{};
    PassOutcome outcome = workload->pass(tracer, index);
    if (traced) {
      registry_delta.add(RegistryReading::now().minus(before));
      for (const auto& [name, value] : outcome.layer) layer_sums[name] += value;
      traced_walls.push_back(outcome.wall_s);
    } else if (index > 0) {
      untraced_walls.push_back(outcome.wall_s);
    }
    for (const auto& failure : outcome.failures) {
      std::fprintf(stderr, "perfbench: pass %d check failed: %s\n", index, failure.c_str());
    }
    passes.push_back(std::move(outcome));
    if (options.cold || (seconds_since(measure_start) >= options.seconds &&
                         index + 1 >= workload->min_passes())) {
      break;
    }
  }
  tracer.set_enabled(false);

  std::size_t checks = 0;
  std::size_t failed = 0;
  std::vector<double> posts_per_s;
  std::vector<double> users_per_s;
  std::vector<double> round_ms;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassOutcome& pass = passes[i];
    checks += pass.checks;
    failed += pass.checks_failed;
    posts_per_s.push_back(pass.posts / pass.wall_s);
    users_per_s.push_back(pass.users / pass.wall_s);
    // A batch pass is one round; its cold pass 0 is cold_pass_s already.
    if (!pass.round_ms.empty()) {
      round_ms.insert(round_ms.end(), pass.round_ms.begin(), pass.round_ms.end());
    } else if (i > 0 || passes.size() == 1) {
      round_ms.push_back(pass.wall_s * 1e3);
    }
  }

  Metrics metrics;
  if (!options.trace) {
    metrics["setup_s"] = median(setup_s);
    metrics["cold_pass_s"] = passes.front().wall_s;
    metrics["posts_per_s"] = median(posts_per_s);
    metrics["users_per_s"] = median(users_per_s);
    metrics["round_ms_p50"] = quantile(round_ms, 0.50);
    metrics["round_ms_p95"] = quantile(round_ms, 0.95);
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["checks_ok_frac"] = static_cast<double>(checks - failed) / static_cast<double>(checks);
  } else {
    const auto n = static_cast<double>(traced_walls.size());
    for (const MetricSpec& spec : kPerLayer) metrics[spec.name] = 0.0;
    for (const auto& [name, value] : layer_sums) metrics[name] = value / n;
    add_registry_metrics(metrics, registry_delta, n);
    metrics["setup.generate_s"] = median(generate_s);
    metrics["reference.build_s"] = median(reference_s);
    metrics["ingest.busy_s"] = tracer.total("trace_from_csv") / n;
    metrics["profiles.busy_s"] = tracer.total("build_profiles") / n;
    metrics["geolocate.busy_s"] = tracer.total("geolocate_crowd") / n;
    metrics["report.busy_s"] = tracer.total("report") / n;
    double posts = 0.0;
    for (std::size_t i = 0; i < passes.size(); i += 2) posts += passes[i].posts;
    posts /= n;
    if (metrics["forum.pages_fetched"] > 0) {
      metrics["forum.posts_per_page"] = posts / metrics["forum.pages_fetched"];
    }
    if (metrics["fleet.polls"] > 0 && posts > 0) {
      metrics["tor.requests_per_post"] = metrics["tor.requests"] / posts;
    }
    const auto self = tracer.self_time_by_layer();
    for (const auto& [layer, seconds] : self) metrics["self." + layer + "_s"] = seconds / n;
    double traced_total = 0.0;
    for (const double wall : traced_walls) traced_total += wall;
    metrics["traced_pass_s"] = traced_total / n;
    metrics["unattributed_s"] = (traced_total - tracer.root_time()) / n;
    metrics["unattributed_frac"] = (traced_total - tracer.root_time()) / traced_total;
    // Compare warm with warm when a warm traced pass exists.
    std::vector<double> compared(traced_walls.begin() + (traced_walls.size() > 1 ? 1 : 0),
                                 traced_walls.end());
    if (!untraced_walls.empty()) {
      metrics["trace.overhead_frac"] = median(compared) / median(untraced_walls) - 1.0;
    }
    tracer.write_json((std::filesystem::path(options.out_dir) /
                       ("spans_" + options.workload + "_" + std::to_string(options.seed) + ".json"))
                          .string());
  }

  const std::string provenance = provenance_json(options, *workload);
  std::fprintf(stderr, "perfbench: provenance %s\n", provenance.c_str());
  const std::string metrics_text = metrics_json(metrics);
  const std::string setups = json_array(setup_s);

  std::string report = "{\"provenance\": " + provenance + ", \"passes\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassOutcome& pass = passes[i];
    report += (i == 0 ? "" : ", ");
    report += "{\"wall_s\": " + json_number(pass.wall_s) + ", \"posts\": " +
              json_number(pass.posts) + ", \"users\": " + json_number(pass.users) +
              ", \"traced\": " + (options.trace && i % 2 == 0 ? "true" : "false") +
              ", \"digest\": " + json_string(pass.digest) +
              ", \"checks\": " + std::to_string(pass.checks) +
              ", \"failed\": " + std::to_string(pass.checks_failed) + "}";
  }
  report += "], \"setup_s\": " + setups + ", \"metrics\": " + metrics_text + "}\n";
  {
    const std::string path =
        (std::filesystem::path(options.out_dir) /
         ("report_" + options.workload + "_" + std::to_string(options.seed) + "_" +
          (options.cold ? "cold" : "run") + (options.trace ? "1" : "0") + ".json"))
            .string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << report;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu passes, digest %s\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               passes.size(), passes.front().digest.c_str());

  // run.py merges cold samples and setup samples across processes and
  // strips the two extra keys from the final result.
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"digest\": %s, "
              "\"setup_samples\": %s, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", checks, failed,
              json_string(passes.front().digest).c_str(), setups.c_str(), metrics_text.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
