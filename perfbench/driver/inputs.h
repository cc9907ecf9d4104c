// Seeded input generation, owned by the benchmark so that its inputs
// stay fixed whatever the library's own generators become: update
// streams (in update-trace id form) for the online and serving
// workloads.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "online/trace.h"

namespace perfbench {

/// splitmix64 stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf over ranks 1..n with exponent s (rank 1 most likely).
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Sample(Rng* rng) const;
  /// The smallest rank whose cumulative probability reaches u.
  uint64_t Quantile(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Shape of an update stream.
struct StreamParams {
  bool x2y = false;
  uint64_t capacity = 100;  // initial q
  /// Sizes are lo * r with r ~ Zipf(hi / lo, skew), capped at q / 2.
  uint64_t lo = 2;
  uint64_t hi = 40;
  double skew = 1.2;
  double p_add = 0.35;
  double p_remove = 0.25;
  double p_resize = 0.30;   // the rest of the mix retunes q
  std::size_t min_alive = 3;      // per side for X2Y
  /// When non-zero, adds and removes are steered toward this alive
  /// count, so the stream is stationary however long it runs.
  std::size_t target_alive = 0;
  double retune_factor = 1.5;     // q stays within [q0 / f, q0 * f]
};

/// Generates a feasible update stream (no update is ever rejected:
/// sizes stay within q / 2 and q never drops below twice the largest
/// alive size) and mirrors the alive set, so the caller always knows
/// the state the program must report. Remove/resize events name
/// inputs by trace id: the ordinal of their add event.
class StreamGen {
 public:
  StreamGen(const StreamParams& params, uint64_t seed);
  msp::online::Update Next();
  /// Adds only: the initial population (split across sides for X2Y).
  msp::online::Update NextAdd(msp::online::Side side);
  std::size_t alive() const { return alive_.size(); }
  uint64_t capacity() const { return capacity_; }

 private:
  uint64_t DrawSize();
  std::size_t AliveOn(msp::online::Side side) const {
    return side == msp::online::Side::kY ? alive_y_ : alive_.size() - alive_y_;
  }

  StreamParams params_;
  Rng rng_;
  Zipf zipf_;
  uint64_t capacity_;
  std::vector<uint32_t> alive_;     // trace ids, unordered
  std::vector<uint64_t> size_of_;   // by trace id
  std::vector<msp::online::Side> side_of_;
  std::size_t alive_y_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
