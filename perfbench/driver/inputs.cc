#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using msp::online::Side;
using msp::online::Update;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(uint64_t n, double s) : cdf_(n) {
  double total = 0;
  for (uint64_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_[k - 1] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint64_t Zipf::Sample(Rng* rng) const { return Quantile(rng->Unit()); }

uint64_t Zipf::Quantile(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()),
                            cdf_.size() - 1) + 1;
}

StreamGen::StreamGen(const StreamParams& params, uint64_t seed)
    : params_(params),
      rng_(seed),
      zipf_(params.hi / params.lo, params.skew),
      capacity_(params.capacity) {}

uint64_t StreamGen::DrawSize() {
  const uint64_t size = params_.lo * zipf_.Sample(&rng_);
  return std::max<uint64_t>(1, std::min(size, capacity_ / 2));
}

Update StreamGen::NextAdd(Side side) {
  const uint64_t size = DrawSize();
  alive_.push_back(static_cast<uint32_t>(size_of_.size()));
  size_of_.push_back(size);
  side_of_.push_back(side);
  if (side == Side::kY) ++alive_y_;
  return Update::Add(size, side);
}

Update StreamGen::Next() {
  double p_add = params_.p_add;
  double p_remove = params_.p_remove;
  if (params_.target_alive != 0) {
    // Steer toward the target: the larger of the two rates goes to
    // whichever event moves the alive count back.
    const double hi = std::max(p_add, p_remove);
    const double lo = std::min(p_add, p_remove);
    const bool grow = alive_.size() < params_.target_alive;
    p_add = grow ? hi : lo;
    p_remove = grow ? lo : hi;
  }
  const double u = rng_.Unit();
  const auto random_side = [&] {
    return params_.x2y && rng_.Next() % 2 == 1 ? Side::kY : Side::kX;
  };
  if (alive_.empty() || u < p_add) return NextAdd(random_side());

  const std::size_t pick = rng_.Next() % alive_.size();
  const uint32_t id = alive_[pick];
  if (u < p_add + p_remove) {
    const Side side = side_of_[id];
    const std::size_t on_side =
        params_.x2y ? AliveOn(side) : alive_.size();
    if (on_side > params_.min_alive) {
      alive_[pick] = alive_.back();
      alive_.pop_back();
      if (side == Side::kY) --alive_y_;
      return Update::Remove(id);
    }
    return NextAdd(side);
  }
  if (u >= p_add + p_remove + params_.p_resize) {
    // Retune q within its band, never below twice the largest input.
    uint64_t largest = 0;
    for (uint32_t a : alive_) largest = std::max(largest, size_of_[a]);
    const double q0 = static_cast<double>(params_.capacity);
    const uint64_t floor_q = std::max<uint64_t>(
        2 * largest, static_cast<uint64_t>(q0 / params_.retune_factor));
    const uint64_t ceil_q =
        static_cast<uint64_t>(q0 * params_.retune_factor);
    if (floor_q <= ceil_q) {
      capacity_ = rng_.Range(floor_q, ceil_q);
      return Update::SetCapacity(capacity_);
    }
  }
  const uint64_t size = DrawSize();
  size_of_[id] = size;
  return Update::Resize(id, size);
}

}  // namespace perfbench
