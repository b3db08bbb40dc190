// Internal: the one pooled pass over a crowd through the SoA group kernels.
//
// place_crowd, the flat filter's polish rounds and the dossier batch all
// place a whole crowd the same way: transpose it into a SoaCrowd, split
// the GROUP range (never a group) across the global ThreadPool, run
// PlacementEngine::place_soa on each range, merge the per-shard zone
// counts, and flush each shard's counters.  sweep_crowd owns that loop so
// every caller schedules, instruments and scatters identically.  Shards
// only split the group range, so every kernel call sees the same lanes at
// any thread count: results are bit-identical to one serial pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/placement_engine.hpp"

namespace tzgeo::core::detail {

/// Transposes `users` for `engine` and places every user, writing
/// placements[i] for users[i].  `threads` caps the shard count (0 picks
/// one per core; crowds too small for sharding to pay run as one batch).
/// Optional outputs: `zone_counts` (kZoneCount entries) receives the
/// per-zone user totals; `flat` (users.size() entries) receives the
/// Section IV-C flat flag of each user.  Opens the `placement` span.
void sweep_crowd(const std::vector<UserProfileEntry>& users, const PlacementEngine& engine,
                 std::size_t threads, UserPlacement* placements,
                 double* zone_counts = nullptr, std::uint8_t* flat = nullptr);

}  // namespace tzgeo::core::detail
