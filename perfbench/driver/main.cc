// perfbench_driver — the repository's end-to-end benchmark.
//
//   perfbench_driver --workload online|serve --seed N --seconds S
//                    --trace 0|1 --work-dir DIR
//   perfbench_driver --self-test
//
// Prints human-readable reference lines, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero when any output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct Spec {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports, in print order. A workload that
// does not exercise a layer reports 0 for it.
const Spec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "ops/s"},
    {"op_p50_us", "us"},       {"read_p50_us", "us"},
    {"peak_rss_mb", "MB"},     {"reducers_over_lb", "ratio"},
    {"comm_over_lb", "ratio"}, {"churn_per_update", "units/update"},
    {"recover_s", "s"},
};

const Spec kLayers[] = {
    {"planner.plan_us_sum", "us"},
    {"planner.plans", "count"},
    {"planner.cache_hit_ratio", "ratio"},
    {"planner.allocs", "count"},
    {"online.repair_us_sum", "us"},
    {"online.repair_p50_us", "us"},
    {"online.repairs", "count"},
    {"online.replan_us_sum", "us"},
    {"online.replans", "count"},
    {"online.policy_consults", "count"},
    {"online.deploy_ratio", "ratio"},
    {"online.churn_repair_bytes", "units"},
    {"online.churn_replan_bytes", "units"},
    {"online.allocs", "count"},
    {"serving.apply_p50_us", "us"},
    {"serving.apply_us_sum", "us"},
    {"serving.queue_depth_mean", "count"},
    {"serving.shard_skew", "ratio"},
    {"durability.records", "count"},
    {"durability.fsyncs", "count"},
    {"durability.records_per_fsync", "ratio"},
    {"durability.bytes_per_update", "bytes"},
    {"durability.fsync_p50_us", "us"},
    {"durability.rotations", "count"},
    {"durability.replay_records", "count"},
    {"durability.encode_ns_per_record", "ns"},
    {"rpc.submit_rtt_p50_us", "us"},
    {"rpc.bytes_per_request", "bytes"},
    {"rpc.codec_ns_per_frame", "ns"},
    {"process.cpu_s", "s"},
    {"obs.traced_over_untraced", "ratio"},
};

std::vector<Spec> LayerSpecs() {
  static std::vector<std::string> names;  // owns the generated names
  if (names.empty()) {
    for (const char* a : perfbench::kPortfolioAlgorithms) {
      names.push_back(std::string("core.wins.") + a);
    }
  }
  std::vector<Spec> specs;
  for (const std::string& name : names) specs.push_back({name.c_str(), "count"});
  specs.insert(specs.end(), std::begin(kLayers), std::end(kLayers));
  return specs;
}

// Orders the reported metrics by `specs`; a spec the workload did not
// fill is 0 when `zero_fill`, and an error otherwise.
std::vector<Metric> Arrange(const std::vector<Spec>& specs,
                            const std::vector<Metric>& reported,
                            bool zero_fill, perfbench::Report* report) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      report->Fail("metric " + m.name + " is not a finite number");
      by_name[m.name] = {m.name, 0, m.unit};
    } else {
      by_name[m.name] = m;
    }
  }
  std::vector<Metric> out;
  for (const Spec& spec : specs) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      if (!zero_fill) report->Fail(std::string("missing metric ") + spec.name);
      out.push_back({spec.name, 0, spec.unit});
      continue;
    }
    if (it->second.unit != spec.unit) {
      report->Fail("metric " + it->second.name + " has unit " +
                   it->second.unit + ", expected " + spec.unit);
    }
    out.push_back({spec.name, it->second.value, spec.unit});
    by_name.erase(it);
  }
  for (const auto& [name, metric] : by_name) {
    report->Fail("unlisted metric " + name);
  }
  return out;
}

bool ParseArgs(int argc, char** argv, perfbench::Options* options,
               bool* self_test) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg == "self-test") {
      *self_test = true;
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return false;
    }
  }
  try {
    for (const auto& [key, value] : flags) {
      if (key == "workload") {
        options->workload = value;
      } else if (key == "seed") {
        options->seed = std::stoull(value);
      } else if (key == "seconds") {
        options->seconds = std::stod(value);
      } else if (key == "trace") {
        if (value != "0" && value != "1") return false;
        options->trace = value == "1";
      } else if (key == "work-dir") {
        options->work_dir = value;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return *self_test || (!options->workload.empty() && options->seconds > 0 &&
                        !options->work_dir.empty());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ProcessStart();
  perfbench::Options options;
  bool self_test = false;
  if (!ParseArgs(argc, argv, &options, &self_test)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload online|serve "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
                 "       perfbench_driver --self-test\n");
    return 2;
  }
  if (self_test) {
    std::string error;
    const bool ok = perfbench::CheckerSelfTest(&error);
    std::printf("checker self-test: %s%s\n", ok ? "ok" : "FAILED: ",
                error.c_str());
    return ok ? 0 : 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  perfbench::Report report;
  if (options.workload == "online") {
    perfbench::RunOnline(options, &report);
  } else if (options.workload == "serve") {
    perfbench::RunServe(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  const std::vector<Spec> e2e(std::begin(kEndToEnd), std::end(kEndToEnd));
  const std::vector<Metric> metrics =
      options.trace ? Arrange(LayerSpecs(), report.per_layer, true, &report)
                    : Arrange(e2e, report.end_to_end, false, &report);
  if (report.attempted == 0) report.Fail("no operation was attempted");
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
