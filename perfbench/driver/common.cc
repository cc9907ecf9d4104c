#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <utility>

#include "obs/span.h"

namespace perfbench {

Clock::time_point ProcessStart() {
  // First called at the top of main(); later calls return that instant.
  static const Clock::time_point start = Clock::now();
  return start;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

void StepSamples::Add(std::size_t step, double us) {
  if (step >= steps_.size()) steps_.resize(step + 1);
  steps_[step].Add(us);
}

double StepSamples::TypicalSumUs() const {
  double sum = 0;
  for (const Samples& step : steps_) sum += step.Percentile(50);
  return sum;
}

double StepSamples::TypicalMedianUs() const {
  Samples medians;
  for (const Samples& step : steps_) {
    if (step.count() > 0) medians.Add(step.Percentile(50));
  }
  return medians.Percentile(50);
}

double StepSamples::FastestSumUs() const {
  double sum = 0;
  for (const Samples& step : steps_) sum += step.Percentile(0);
  return sum;
}

double TailPercentileFor(std::size_t count) {
  // p keeps >= 10 samples beyond it when count * (1 - p/100) >= 10.
  if (count >= 10'000) return 99.9;
  if (count >= 1'000) return 99.0;
  return 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Report::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) errors.push_back(why);
}

namespace {
double own_work_seconds = 0;  // the driver's workloads run it on one thread
}  // namespace

OwnWork::~OwnWork() { own_work_seconds += SecondsSince(start_); }

double OwnWork::TotalSeconds() { return own_work_seconds; }

double SetupSeconds() {
  return SecondsSince(ProcessStart()) - OwnWork::TotalSeconds();
}

TracedPhase::TracedPhase(std::string path) : path_(std::move(path)) {
  msp::obs::Tracer::Start();
}

TracedPhase::~TracedPhase() { msp::obs::Tracer::Stop(); }

void TracedPhase::RoundEnd() {
  if (!written_ && msp::obs::Tracer::event_count() >= kKeptEvents) Write();
  if (written_) msp::obs::Tracer::Clear();
}

bool TracedPhase::Finish() {
  msp::obs::Tracer::Stop();
  if (!written_) Write();
  msp::obs::Tracer::Clear();
  return write_ok_;
}

bool TracedPhase::Write() {
  written_ = true;
  std::ofstream out(path_);
  if (out) msp::obs::Tracer::WriteChromeTrace(out);
  write_ok_ = static_cast<bool>(out);
  return write_ok_;
}

double RegistrySum(const msp::obs::Registry& registry,
                   const std::string& metric, const std::string& field) {
  std::vector<std::vector<std::string>> rows;
  registry.WriteCsvRows(&rows);
  double sum = 0;
  for (const auto& row : rows) {
    if (row.size() == 4 && row[0] == metric && row[2] == field) {
      sum += std::stod(row[3]);
    }
  }
  return sum;
}

}  // namespace perfbench
