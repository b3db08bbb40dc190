#include "core/soa_crowd.hpp"

#include <algorithm>
#include <new>

#include "core/thread_pool.hpp"
#include "stats/emd.hpp"

namespace tzgeo::core {

namespace {

constexpr std::size_t kPlaneAlign = 64;  ///< cache line; covers 32B AVX loads

static_assert(simd::kLanes * sizeof(double) % kPlaneAlign == 0,
              "a group covers whole cache lines");

/// Argmax bin of a profile (ties -> lowest index): a one-pass proxy for
/// the user's eventual zone, used only to group like-zoned users.
[[nodiscard]] std::size_t argmax_bin(const HourlyProfile& profile) noexcept {
  const double* v = profile.values().data();
  std::size_t best = 0;
  for (std::size_t i = 1; i < kProfileBins; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

}  // namespace

void SoaCrowd::Free::operator()(double* p) const noexcept {
  ::operator delete[](p, std::align_val_t{kPlaneAlign});
}

void SoaCrowd::build(const std::vector<UserProfileEntry>& users, Planes kind,
                     std::size_t threads) {
  const std::size_t n = users.size();
  size_ = n;
  kind_ = kind;
  stride_ = (n + simd::kLanes - 1) / simd::kLanes * simd::kLanes;
  slot_index_.resize(n);
  slot_user_.resize(n);
  if (n == 0) return;

  const std::size_t needed = kProfileBins * stride_;
  if (needed > capacity_) {
    planes_.reset(static_cast<double*>(
        ::operator new[](needed * sizeof(double), std::align_val_t{kPlaneAlign})));
    capacity_ = needed;
  }

  // Stable counting sort by argmax bin: slot order groups users whose
  // activity peaks in the same hour, which the group prune rewards.
  std::size_t offsets[kProfileBins + 1] = {};
  std::vector<std::uint8_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint8_t>(argmax_bin(users[i].profile));
    ++offsets[keys[i] + 1];
  }
  for (std::size_t b = 1; b <= kProfileBins; ++b) offsets[b] += offsets[b - 1];
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = offsets[keys[i]]++;
    slot_index_[s] = static_cast<std::uint32_t>(i);
    slot_user_[s] = users[i].user;
  }

  // Column transpose, sharded by whole groups so no two shards write one
  // cache line.  Consecutive slots write consecutive positions of each
  // plane, so the working set per iteration is 24 resident lines.
  double* planes = planes_.get();
  ThreadPool::global().for_chunks(
      groups(), threads, [&](std::size_t group_begin, std::size_t group_end) {
        double column[kProfileBins];
        const std::size_t slot_end = std::min(group_end * simd::kLanes, n);
        for (std::size_t s = group_begin * simd::kLanes; s < slot_end; ++s) {
          const double* bins = users[slot_index_[s]].profile.values().data();
          const double* src = bins;
          if (kind == Planes::kCdf) {
            stats::prefix_sums_24(bins, column);
            src = column;
          }
          for (std::size_t b = 0; b < kProfileBins; ++b) planes[b * stride_ + s] = src[b];
        }
      });
  // Tail pad: clone the last real column so pad lanes act as a duplicate
  // user (prune-neutral, finite, discarded by the scatter).
  for (std::size_t s = n; s < stride_; ++s) {
    for (std::size_t b = 0; b < kProfileBins; ++b) {
      planes[b * stride_ + s] = planes[b * stride_ + (n - 1)];
    }
  }
}

}  // namespace tzgeo::core
