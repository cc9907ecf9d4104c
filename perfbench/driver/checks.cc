#include "checks.h"

#include <algorithm>

namespace perfbench {

namespace {

using U128 = unsigned __int128;

uint64_t CeilDiv(U128 a, U128 b) { return static_cast<uint64_t>((a + b - 1) / b); }

// Enumerates the required pairs one reducer covers as dense pair
// indices: A2A pairs (a < b) map to a * m + b; X2Y pairs map to
// x_rank * |Y| + y_rank.
class PairIndex {
 public:
  explicit PairIndex(const CheckInstance& in) : in_(in) {
    const std::size_t m = in.sizes.size();
    rank_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const bool y = in.x2y && in.is_y[i] != 0;
      rank_[i] = static_cast<uint32_t>(y ? ny_++ : nx_++);
    }
  }
  uint64_t universe() const {
    const uint64_t m = in_.sizes.size();
    return in_.x2y ? nx_ * ny_ : m * m;
  }
  uint64_t required() const {
    const uint64_t m = in_.sizes.size();
    return in_.x2y ? nx_ * ny_ : m * (m - 1) / 2;
  }
  template <typename Fn>
  void ForEachPair(const std::vector<uint32_t>& reducer, Fn fn) const {
    const uint64_t m = in_.sizes.size();
    for (std::size_t i = 0; i < reducer.size(); ++i) {
      for (std::size_t j = i + 1; j < reducer.size(); ++j) {
        uint32_t a = reducer[i];
        uint32_t b = reducer[j];
        if (in_.x2y) {
          if (in_.is_y[a] == in_.is_y[b]) continue;
          if (in_.is_y[a] != 0) std::swap(a, b);
          fn(uint64_t{rank_[a]} * ny_ + rank_[b]);
        } else {
          if (a > b) std::swap(a, b);
          fn(uint64_t{a} * m + b);
        }
      }
    }
  }

 private:
  const CheckInstance& in_;
  std::vector<uint32_t> rank_;
  uint64_t nx_ = 0;
  uint64_t ny_ = 0;
};

// Pairs covered at least once and at least twice, as bitsets over the
// pair universe (m^2 / 8 bytes each: 0.5 MB at m = 2000).
struct Coverage {
  std::vector<uint64_t> once;
  std::vector<uint64_t> twice;

  static bool Test(const std::vector<uint64_t>& bits, uint64_t p) {
    return (bits[p / 64] >> (p % 64) & 1) != 0;
  }
};

Coverage CoverageOf(const PairIndex& index, const Reducers& reducers) {
  Coverage c;
  c.once.assign((index.universe() + 63) / 64, 0);
  c.twice.assign(c.once.size(), 0);
  for (const auto& reducer : reducers) {
    index.ForEachPair(reducer, [&](uint64_t p) {
      const uint64_t bit = uint64_t{1} << (p % 64);
      if ((c.once[p / 64] & bit) != 0) c.twice[p / 64] |= bit;
      c.once[p / 64] |= bit;
    });
  }
  return c;
}

bool ExpectRejected(const CheckInstance& in, const Reducers& broken,
                    const std::string& what, std::string* error) {
  const SchemaCheck check = CheckSchema(in, broken);
  if (check.ok) {
    *error = "checker accepted " + what;
    return false;
  }
  return true;
}

// Runs the two negative cases (and the positive one) on one schema.
bool SelfTestOn(const CheckInstance& in, const Reducers& valid,
                const std::string& label, std::string* error) {
  const SchemaCheck base = CheckSchema(in, valid);
  if (!base.ok) {
    *error = label + ": valid schema rejected: " + base.error;
    return false;
  }
  // One reducer removed: pick a reducer that is the only one covering
  // some required pair, so its removal must break coverage.
  const PairIndex index(in);
  const Coverage coverage = CoverageOf(index, valid);
  std::size_t victim = valid.size();
  for (std::size_t r = 0; r < valid.size() && victim == valid.size(); ++r) {
    index.ForEachPair(valid[r], [&](uint64_t p) {
      if (!Coverage::Test(coverage.twice, p)) victim = r;
    });
  }
  if (victim == valid.size()) {
    *error = label + ": no reducer covers a pair alone";
    return false;
  }
  Reducers removed = valid;
  removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(victim));
  if (!ExpectRejected(in, removed, label + " with one reducer removed",
                      error)) {
    return false;
  }
  // Overloaded reducer: add absent inputs to reducer 0 until its load
  // exceeds q. Coverage only grows, so only the load check can fire.
  Reducers overloaded = valid;
  std::vector<uint32_t>& target = overloaded[0];
  uint64_t load = 0;
  for (uint32_t id : target) load += in.sizes[id];
  for (uint32_t id = 0; id < in.sizes.size() && load <= in.capacity; ++id) {
    if (std::find(target.begin(), target.end(), id) != target.end()) continue;
    target.push_back(id);
    load += in.sizes[id];
  }
  if (load <= in.capacity) {
    *error = label + ": cannot overload a reducer";
    return false;
  }
  return ExpectRejected(in, overloaded, label + " with an overloaded reducer",
                        error);
}

}  // namespace

bool ComputePaperBounds(const CheckInstance& in, PaperBounds* bounds,
                        std::string* error) {
  const uint64_t q = in.capacity;
  U128 total[2] = {0, 0};  // A2A: everything in total[0]
  U128 sum_sq = 0;
  for (std::size_t i = 0; i < in.sizes.size(); ++i) {
    const int side = in.x2y && in.is_y[i] != 0 ? 1 : 0;
    total[side] += in.sizes[i];
    sum_sq += U128{in.sizes[i]} * in.sizes[i];
  }
  bounds->copies.assign(in.sizes.size(), 0);
  U128 comm = 0;
  for (std::size_t i = 0; i < in.sizes.size(); ++i) {
    const uint64_t w = in.sizes[i];
    // Partner mass input i must meet, at most q - w_i of it per copy.
    const U128 partners = in.x2y ? total[in.is_y[i] != 0 ? 0 : 1]
                                 : total[0] - w;
    if (partners == 0) {
      *error = "instance has an input without partners";
      return false;
    }
    if (w >= q) {
      *error = "infeasible instance: an input fills a whole reducer";
      return false;
    }
    bounds->copies[i] = CeilDiv(partners, q - w);
    comm += U128{w} * bounds->copies[i];
  }
  bounds->communication = static_cast<uint64_t>(comm);
  if (in.x2y) {
    // A reducer with a units of X and b of Y, a + b <= q, covers a * b
    // <= floor(q^2 / 4) of the pair mass W_X * W_Y.
    bounds->pair_mass = CeilDiv(total[0] * total[1], U128{q} * q / 4);
  } else {
    // Pair mass P = (W^2 - sum w_i^2) / 2; a reducer covers < q^2 / 2.
    bounds->pair_mass = CeilDiv(total[0] * total[0] - sum_sq, U128{q} * q);
  }
  bounds->reducers =
      std::max({bounds->pair_mass, CeilDiv(comm, q), uint64_t{1}});
  return true;
}

SchemaCheck CheckSchema(const CheckInstance& in, const Reducers& reducers) {
  SchemaCheck check;
  check.reducers = reducers.size();
  if (!ComputePaperBounds(in, &check.bounds, &check.error)) return check;
  const std::size_t m = in.sizes.size();
  const PairIndex index(in);
  std::vector<uint64_t> covered_bits((index.universe() + 63) / 64, 0);
  std::vector<uint64_t> copies(m, 0);
  uint64_t covered = 0;
  std::vector<uint32_t> sorted;
  for (std::size_t r = 0; r < reducers.size(); ++r) {
    sorted = reducers[r];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      check.error = "reducer " + std::to_string(r) + " repeats an input";
      return check;
    }
    uint64_t load = 0;
    for (uint32_t id : sorted) {
      if (id >= m) {
        check.error = "reducer " + std::to_string(r) + " names unknown input " +
                      std::to_string(id);
        return check;
      }
      load += in.sizes[id];
      ++copies[id];
    }
    if (load > in.capacity) {
      check.error = "reducer " + std::to_string(r) + " load " +
                    std::to_string(load) + " exceeds q=" +
                    std::to_string(in.capacity);
      return check;
    }
    check.communication += load;
    index.ForEachPair(sorted, [&](uint64_t p) {
      uint64_t& word = covered_bits[p / 64];
      const uint64_t bit = uint64_t{1} << (p % 64);
      if ((word & bit) == 0) {
        word |= bit;
        ++covered;
      }
    });
  }
  if (covered != index.required()) {
    check.error = "only " + std::to_string(covered) + " of " +
                  std::to_string(index.required()) +
                  " required pairs meet in a reducer";
    return check;
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (copies[i] < check.bounds.copies[i]) {
      check.error = "input " + std::to_string(i) + " has " +
                    std::to_string(copies[i]) +
                    " copies, below the replication bound " +
                    std::to_string(check.bounds.copies[i]);
      return check;
    }
  }
  if (check.communication < check.bounds.communication ||
      check.reducers < check.bounds.reducers) {
    check.error = "schema beats a lower bound (reducers " +
                  std::to_string(check.reducers) + " vs " +
                  std::to_string(check.bounds.reducers) + ", communication " +
                  std::to_string(check.communication) + " vs " +
                  std::to_string(check.bounds.communication) + ")";
    return check;
  }
  check.ok = true;
  return check;
}

bool CheckerSelfTest(std::string* error, const CheckInstance* real_instance,
                     const Reducers* real) {
  // A2A: four inputs of size 3 at q = 6 need all six pairs.
  CheckInstance a2a;
  a2a.capacity = 6;
  a2a.sizes = {3, 3, 3, 3};
  const Reducers a2a_pairs = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  if (!SelfTestOn(a2a, a2a_pairs, "hand-built A2A", error)) return false;
  // X2Y: two X inputs of size 2, two Y inputs of size 3, q = 5.
  CheckInstance x2y;
  x2y.x2y = true;
  x2y.capacity = 5;
  x2y.sizes = {2, 2, 3, 3};
  x2y.is_y = {0, 0, 1, 1};
  const Reducers x2y_pairs = {{0, 2}, {0, 3}, {1, 2}, {1, 3}};
  if (!SelfTestOn(x2y, x2y_pairs, "hand-built X2Y", error)) return false;
  if (real_instance != nullptr && real != nullptr) {
    return SelfTestOn(*real_instance, *real, "workload schema", error);
  }
  return true;
}

}  // namespace perfbench
