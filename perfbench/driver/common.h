// Shared plumbing of the benchmark driver: options, timing, sample
// statistics, process probes, set-up time accounting, the traced
// phase's span recording, and the report every workload fills.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch root for WAL directories and traces
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Wall-clock instant the process entered main(); setup_s runs from it.
Clock::time_point ProcessStart();

/// Latency samples in microseconds with exact order statistics.
class Samples {
 public:
  void Add(double us) {
    values_.push_back(us);
    sorted_ = false;
  }
  std::size_t count() const { return values_.size(); }
  /// Nearest-rank percentile (p in 0..100); 0 when empty.
  double Percentile(double p) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Latency samples per step of a round that repeats the same work
/// (the same request, update or restore every round). A step's median
/// over the rounds is its typical latency: a slow spell of the machine
/// (here they last seconds and slow everything in them by 20% or more)
/// then has to hit the same step in most rounds to move a figure, where
/// a median over whole rounds or over all samples moves once a spell
/// covers most rounds or half the samples.
class StepSamples {
 public:
  void Add(std::size_t step, double us);
  /// Sum over steps of each step's median: a round at typical speed.
  double TypicalSumUs() const;
  /// Median over steps of each step's median.
  double TypicalMedianUs() const;
  /// Sum over steps of each step's fastest sample: a round at the
  /// machine's best speed, for work that is the same in every round.
  double FastestSumUs() const;

 private:
  std::vector<Samples> steps_;
};

/// Highest tail percentile (of 99, 99.9) with at least ten samples
/// beyond it, or 0 when there are too few samples for any tail.
double TailPercentileFor(std::size_t count);

/// Process probes.
double PeakRssMb();
double ProcessCpuSeconds();

/// One metric as printed in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload hands back to main().
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;  // first few check failures

  void Fail(const std::string& why);
  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Wall time the benchmark spends on its own work (checks, schema
/// diffs, snapshot copies for recover_s) rather than in the program:
/// each scope adds its duration to a process-wide total.
class OwnWork {
 public:
  OwnWork() : start_(Clock::now()) {}
  ~OwnWork();
  OwnWork(const OwnWork&) = delete;
  OwnWork& operator=(const OwnWork&) = delete;
  static double TotalSeconds();

 private:
  Clock::time_point start_;
};

/// setup_s: wall time since the process started, less the OwnWork
/// spent so far.
double SetupSeconds();

/// Span recording for the traced phase. Arms the program's obs::Tracer,
/// which then records the benchmark's own obs::Span around each layer
/// call (one id per request or update as a span arg) and the program's
/// spans inside them; nesting per thread gives each span its parent.
/// The first kKeptEvents events are written to `path` as a Chrome trace;
/// later ones are dropped at round ends, so memory stays bounded while
/// every span still costs what it costs.
class TracedPhase {
 public:
  static constexpr std::size_t kKeptEvents = 1 << 18;

  explicit TracedPhase(std::string path);
  ~TracedPhase();
  /// Between rounds: writes the trace once it is full, then drops.
  void RoundEnd();
  /// Stops the tracer and writes the trace if not yet written; false
  /// when the file cannot be written.
  bool Finish();

 private:
  bool Write();

  std::string path_;
  bool written_ = false;
  bool write_ok_ = true;
};

/// Reads one series of a registry, summed across its labels: a
/// counter's count, a gauge's value, or a histogram's count/sum
/// (`field` = "count" | "sum" | "value").
double RegistrySum(const msp::obs::Registry& registry,
                   const std::string& metric, const std::string& field);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
