// Shared plumbing of the end-to-end benchmark: the span recorder, registry
// deltas, the workload interface, and helpers every workload uses.
//
// The benchmark drives only the library's public entry points.  Layer time
// comes from spans this benchmark opens around those calls plus deltas of the
// library's own obs::MetricsRegistry counters; nothing inside src/ is
// instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/timezone_profiles.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Layer names: the library's module directories.
inline constexpr const char* kCore = "core";
inline constexpr const char* kForum = "forum";
inline constexpr const char* kUtil = "util";

/// One recorded span.  Times are seconds since the recorder's epoch.
struct Span {
  const char* name = "";
  const char* layer = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int pass = 0;
  /// Time inside this span that the registry attributes to another layer
  /// (for example the checkpoint write inside Fleet::poll_round).
  const char* moved_layer = nullptr;
  double moved_s = 0.0;
};

/// In-memory span recorder.  Disabled, every operation is a no-op, so an
/// untraced pass pays one branch per span.
class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_pass(int pass) noexcept { pass_ = pass; }

  int open(const char* name, const char* layer);
  void close(int id);
  /// Moves `seconds` of span `id`'s self time to `layer`.
  void move_time(int id, const char* layer, double seconds);
  /// Sum of the durations of closed spans named `name` in traced passes.
  [[nodiscard]] double total(std::string_view name) const;
  /// Self time per layer: each span's duration minus its children's and
  /// minus time moved elsewhere (which is credited to the target layer).
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;
  /// Sum of the durations of root spans (spans with no parent).
  [[nodiscard]] double root_time() const;
  /// Writes every span as one JSON document.
  void write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int pass_ = 0;
  int current_ = -1;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer.open(name, layer)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Values of named registry metrics (counters as-is, histograms as their
/// sum and count) at one instant.
class RegistryReading {
 public:
  static RegistryReading now();
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] double hist_sum(const std::string& name) const;
  [[nodiscard]] double hist_count(const std::string& name) const;
  /// this - earlier, per metric.
  [[nodiscard]] RegistryReading minus(const RegistryReading& earlier) const;
  void add(const RegistryReading& other);

 private:
  std::map<std::string, double> values_;
};

/// Metric values by name.
using Metrics = std::map<std::string, double>;

/// What one pass produced.
struct PassOutcome {
  double wall_s = 0.0;
  double posts = 0.0;  ///< CSV rows, trace events, or committed posts
  double users = 0.0;  ///< active users geolocated
  std::vector<double> round_ms;  ///< fleet poll rounds (empty for batch passes)
  std::size_t checks = 0;
  std::size_t checks_failed = 0;
  std::vector<std::string> failures;
  std::string digest;  ///< hex digest of the pass's user-visible outputs
  Metrics layer;       ///< per-layer quantities of this pass (traced passes)
};

/// Counts one correctness check.
void check(PassOutcome& outcome, bool ok, const std::string& what);

/// Provenance facts a workload knows about its input.
struct InputFacts {
  std::uint64_t bytes = 0;
  std::string hash;
  std::string size;  ///< human summary: users, posts, bytes
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs and reference zones from `seed`.  Returns the
  /// seconds spent generating inputs and building the reference.
  struct SetupTimes {
    double generate_s = 0.0;
    double reference_s = 0.0;
  };
  virtual SetupTimes setup(std::uint64_t seed) = 0;
  /// One full pass through the public API, checked against the truth.
  virtual PassOutcome pass(Tracer& tracer, int pass_index) = 0;
  [[nodiscard]] virtual InputFacts input() const = 0;
  [[nodiscard]] virtual const tzgeo::core::TimeZoneProfiles& reference() const = 0;
  /// Every pass must run at least this many times per run.
  [[nodiscard]] virtual int min_passes() const { return 3; }
};

[[nodiscard]] std::unique_ptr<Workload> make_analyze_csv();
[[nodiscard]] std::unique_ptr<Workload> make_geolocate_crowd();
/// The fleet workload writes its checkpoint under `out_dir`.
[[nodiscard]] std::unique_ptr<Workload> make_fleet_campaign(const std::string& out_dir);

/// The reference zones every analysis uses: generic profiles built from
/// the synthetic Table I regions, exactly as `tzgeo_cli analyze` does.
[[nodiscard]] tzgeo::core::TimeZoneProfiles build_reference_zones();

/// Hash of the reference profiles' 24-bin values.
[[nodiscard]] std::string hash_reference(const tzgeo::core::TimeZoneProfiles& zones);

/// 64-bit FNV-1a, continued from `state`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t state = 0xcbf29ce484222325ull) noexcept;
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Circular distance between two whole-hour zones on the UTC-11..+12 axis.
[[nodiscard]] int zone_distance(int a, int b) noexcept;

}  // namespace perfbench
