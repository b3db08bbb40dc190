// Structure-of-arrays crowd storage for the vectorized placement kernels.
//
// The engine's per-user loop reads one HourlyProfile at a time — an
// array-of-structures layout where the 24 bins of one user are contiguous
// but lane-parallel kernels want the OPPOSITE: bin b of 8 consecutive
// users in one aligned load.  SoaCrowd is that transpose: 24 contiguous
// planes (one per bin index) of `stride` doubles each, where column s
// holds user slot s.  For the EMD metrics the planes hold each user's
// prefix sums (CDF), computed once here and reused across all 24 zone
// comparisons and the uniform-profile comparison of the same sweep; for
// total variation they hold the raw bins.
//
//     plane 0   [ u0 u1 u2 u3 u4 u5 u6 u7 | u8 ... pad ]   <- cdf bin 0
//     plane 1   [ u0 u1 u2 u3 u4 u5 u6 u7 | u8 ... pad ]   <- cdf bin 1
//       ...                 one group = kLanes columns
//     plane 23  [ ...                                  ]
//
// Slots are NOT input order: the transpose stable-sorts users by their
// profile's argmax bin first.  The group prune in the circular kernel
// only skips a zone when every lane agrees it is hopeless, so groups of
// like-zoned users prune ~24x better than interleaved ones; the argmax
// bin is a free single-pass proxy for the eventual zone.  Each slot
// remembers its original index, results are scattered back, and per-user
// outputs are pure functions of profile content — so the permutation is
// invisible in every result (bit-identical to input-order evaluation).
//
// Tail slots (stride is rounded up to a whole group) replicate the last
// real user's column: pad lanes then behave exactly like a duplicate of a
// real user, so they can never block the group-consensus prune or produce
// non-finite intermediates.  Their outputs are discarded by the scatter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/profile_builder.hpp"
#include "core/simd/simd.hpp"

namespace tzgeo::core {

class SoaCrowd {
 public:
  /// What the 24 planes hold.
  enum class Planes : std::uint8_t {
    kCdf,   ///< inclusive prefix sums — the EMD kernels' input
    kBins,  ///< raw bin values — the total-variation kernel's input
  };

  SoaCrowd() = default;

  /// Transposes `users` into planes (clearing any previous content).
  void build(const std::vector<UserProfileEntry>& users, Planes kind);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Columns per plane: size() rounded up to a whole group.
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// Whole kLanes-wide groups covering every slot.
  [[nodiscard]] std::size_t groups() const noexcept { return stride_ / simd::kLanes; }
  [[nodiscard]] Planes kind() const noexcept { return kind_; }

  /// Plane base pointer (plane b starts at planes() + b * stride()).
  [[nodiscard]] const double* planes() const noexcept { return planes_.get(); }

  /// Original input index of slot `s` (s < size()).
  [[nodiscard]] std::size_t index_of_slot(std::size_t s) const noexcept { return slot_index_[s]; }
  /// User id of slot `s` (s < size()).
  [[nodiscard]] std::uint64_t user_of_slot(std::size_t s) const noexcept { return slot_user_[s]; }

 private:
  struct Free {
    void operator()(double* p) const noexcept;
  };

  std::unique_ptr<double[], Free> planes_;
  std::size_t capacity_ = 0;  ///< allocated doubles in planes_
  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  Planes kind_ = Planes::kCdf;
  std::vector<std::uint32_t> slot_index_;  ///< slot -> original index
  std::vector<std::uint64_t> slot_user_;   ///< slot -> user id
};

}  // namespace tzgeo::core
