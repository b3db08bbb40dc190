// Schema checker for tzgeo_cli's observability outputs.
//
//   tzgeo_obs_check --metrics FILE.json --trace FILE.json
//
// Validates that the --metrics-out JSON parses, exposes a {"metrics": [...]}
// array whose entries carry name/kind/value (or buckets/sum/count), and
// contains the documented tzgeo_<layer>_* names; and that the --trace-out
// file is well-formed Chrome trace_event JSON with the five pipeline stage
// spans (ingest, profiles, filter, placement, gmm).  CI runs this against a
// fresh `tzgeo_cli demo` dump so a renamed metric or a dropped span fails
// the release job, not a dashboard three weeks later.
//
// Well-formedness comes from the library's own JSON parser
// (util::JsonValue::parse); content checks are substring probes against
// the already validated text.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace {

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "tzgeo_obs_check: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Metric names every pipeline run must register (a subset of the full
/// inventory in DESIGN.md §10 — one representative per layer).
constexpr const char* kRequiredMetrics[] = {
    "tzgeo_ingest_rows_ok_total",        "tzgeo_ingest_chunk_parse_us",
    "tzgeo_placement_users_total",       "tzgeo_placement_zones_pruned_total",
    "tzgeo_incremental_snapshots_total", "tzgeo_forum_polls_total",
    "tzgeo_tor_circuits_built_total",
};

/// Stage spans the acceptance criteria require in a demo/analyze trace.
constexpr const char* kRequiredSpans[] = {"ingest", "profiles", "filter", "placement", "gmm"};

[[nodiscard]] int check_metrics(const std::string& path) {
  const std::string text = read_file(path);
  int failures = 0;
  if (!tzgeo::util::JsonValue::parse(text).has_value()) {
    std::fprintf(stderr, "FAIL %s: not valid JSON\n", path.c_str());
    return 1;
  }
  if (text.find("\"metrics\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL %s: missing top-level \"metrics\" array\n", path.c_str());
    ++failures;
  }
  for (const char* name : kRequiredMetrics) {
    if (text.find("\"" + std::string{name} + "\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: metric %s not present\n", path.c_str(), name);
      ++failures;
    }
  }
  for (const char* key : {"\"kind\"", "\"value\"", "\"buckets\"", "\"sum\"", "\"count\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: no %s field anywhere\n", path.c_str(), key);
      ++failures;
    }
  }
  return failures;
}

[[nodiscard]] int check_trace(const std::string& path) {
  const std::string text = read_file(path);
  int failures = 0;
  if (!tzgeo::util::JsonValue::parse(text).has_value()) {
    std::fprintf(stderr, "FAIL %s: not valid JSON\n", path.c_str());
    return 1;
  }
  if (text.find("\"traceEvents\"") == std::string::npos) {
    std::fprintf(stderr, "FAIL %s: missing \"traceEvents\" array\n", path.c_str());
    ++failures;
  }
  for (const char* key : {"\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"", "\"tid\""}) {
    if (text.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: trace events missing %s\n", path.c_str(), key);
      ++failures;
    }
  }
  for (const char* span : kRequiredSpans) {
    if (text.find("\"name\": \"" + std::string{span} + "\"") == std::string::npos &&
        text.find("\"name\":\"" + std::string{span} + "\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL %s: span \"%s\" not present\n", path.c_str(), span);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (flag == "--metrics") {
      metrics_path = argv[i + 1];
    } else if (flag == "--trace") {
      trace_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "usage: tzgeo_obs_check [--metrics FILE] [--trace FILE]\n");
      return 2;
    }
  }
  if (metrics_path.empty() && trace_path.empty()) {
    std::fprintf(stderr, "usage: tzgeo_obs_check [--metrics FILE] [--trace FILE]\n");
    return 2;
  }
  int failures = 0;
  if (!metrics_path.empty()) failures += check_metrics(metrics_path);
  if (!trace_path.empty()) failures += check_trace(trace_path);
  if (failures == 0) std::printf("tzgeo_obs_check: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
