// The benchmark's own output checks. They share no code with the
// library's ValidateA2A/ValidateX2Y oracle or its *LowerBounds::Compute:
// validity, the paper's bounds and the communication cost are computed
// here from the definitions (Afrati et al., EDBT 2015; extended
// arXiv:1507.04461, Sec. "Lower Bounds").
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Reducers = std::vector<std::vector<uint32_t>>;

/// A problem instance in the checker's terms: inputs 0..m-1.
struct CheckInstance {
  bool x2y = false;
  uint64_t capacity = 0;
  std::vector<uint64_t> sizes;
  std::vector<uint8_t> is_y;  // X2Y only: 1 when the input is on side Y
};

/// The paper's lower bounds for a feasible instance with at least one
/// required output.
struct PaperBounds {
  /// Replication bound: input i must appear in at least copies[i]
  /// reducers (A2A: ceil((W - w_i) / (q - w_i)); X2Y: ceil(W_other /
  /// (q - w_i))).
  std::vector<uint64_t> copies;
  uint64_t communication = 0;  // sum of w_i * copies[i]
  uint64_t pair_mass = 0;      // reducers needed to cover the pair mass
  uint64_t reducers = 0;       // max(pair_mass, ceil(communication / q))
};

/// Computes the bounds; false (with `*error`) on an instance that has
/// no required output or is infeasible.
bool ComputePaperBounds(const CheckInstance& instance, PaperBounds* bounds,
                        std::string* error);

/// Result of checking one schema.
struct SchemaCheck {
  bool ok = false;
  std::string error;
  uint64_t reducers = 0;
  uint64_t communication = 0;  // recomputed: sum of reducer loads
  PaperBounds bounds;
};

/// Checks that every reducer's load is at most q, every required pair
/// meets in some reducer, and the schema is at or above the paper's
/// bounds (per-input copies, communication, reducers).
SchemaCheck CheckSchema(const CheckInstance& instance,
                        const Reducers& reducers);

/// Shows the checks can fail: a schema with one reducer removed and a
/// schema with an overloaded reducer must both be rejected, on small
/// hand-built A2A and X2Y schemas and, when given, on `real` (a valid
/// schema the workload produced for `real_instance`).
bool CheckerSelfTest(std::string* error,
                     const CheckInstance* real_instance = nullptr,
                     const Reducers* real = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
