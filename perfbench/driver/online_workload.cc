// Workload `online`: single-threaded replays through OnlineAssigner
// with the product defaults (drift policy, cooldown 0, greedy
// matching): one A2A mixed-shape trace that grows to m ~ 200 and one
// X2Y trace of similar size.
//
// One round replays both traces on fresh assigners; the phase repeats
// rounds until its time is up. Every update's churn is recomputed by
// diffing the schemas before and after it through the reducers' stable
// uids, and the live schema is checked at fixed checkpoints.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "inputs.h"
#include "obs/span.h"
#include "online/assigner.h"
#include "online/snapshot.h"
#include "planner/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using msp::online::LiveState;
using msp::online::OnlineAssigner;
using msp::online::Update;

constexpr std::size_t kInitialInputs = 200;
constexpr std::size_t kSteps = 2000;
constexpr std::size_t kCheckpointEvery = 20;
constexpr std::size_t kReadEvery = 4;
constexpr std::size_t kSnapshotEvery = 250;
// recover_s: one snapshot restore after every kRestoreEvery-th update
// of a round, the snapshots in turn (80 restores, five of each
// snapshot, per round).
constexpr std::size_t kRestoreEvery = 50;

struct Trace {
  std::string name;
  bool x2y = false;
  uint64_t capacity = 0;
  // The warm start every round seeds a fresh assigner with: the
  // initial inputs (live ids 0..m-1) and their planned schema.
  std::vector<uint64_t> initial_sizes;
  std::vector<msp::online::Side> initial_sides;
  msp::MappingSchema initial_schema;
  std::vector<Update> updates;
};

Trace MakeTrace(const std::string& name, bool x2y, uint64_t seed) {
  StreamParams params;
  params.x2y = x2y;
  params.capacity = 100;
  params.hi = 20;
  params.p_resize = 0.40;  // no capacity retunes: see the README
  params.target_alive = kInitialInputs;
  StreamGen gen(params, seed);
  Trace trace;
  trace.name = name;
  trace.x2y = x2y;
  trace.capacity = params.capacity;
  std::vector<uint32_t> ids_on_side[2];
  for (std::size_t i = 0; i < kInitialInputs; ++i) {
    const msp::online::Side side =
        x2y && i % 2 == 1 ? msp::online::Side::kY : msp::online::Side::kX;
    trace.initial_sizes.push_back(gen.NextAdd(side).value);
    trace.initial_sides.push_back(side);
    ids_on_side[side == msp::online::Side::kY].push_back(static_cast<uint32_t>(i));
  }
  msp::planner::PlannerService planner;
  if (x2y) {
    std::vector<uint64_t> sizes[2];
    for (int side = 0; side < 2; ++side) {
      for (uint32_t id : ids_on_side[side]) sizes[side].push_back(trace.initial_sizes[id]);
    }
    const auto plan = planner.Plan(
        *msp::X2YInstance::Create(sizes[0], sizes[1], params.capacity));
    trace.initial_schema = *plan.schema;
    const std::size_t nx = sizes[0].size();
    for (auto& reducer : trace.initial_schema.reducers) {
      for (uint32_t& id : reducer) {
        id = id < nx ? ids_on_side[0][id] : ids_on_side[1][id - nx];
      }
      std::sort(reducer.begin(), reducer.end());
    }
  } else {
    trace.initial_schema = *planner.Plan(
        *msp::A2AInstance::Create(trace.initial_sizes, params.capacity)).schema;
  }
  for (std::size_t i = 0; i < kSteps; ++i) trace.updates.push_back(gen.Next());
  return trace;
}

// The live schema as the checker sees it: alive inputs renumbered
// densely in alive-index order.
void DenseView(const LiveState& s, CheckInstance* in, Reducers* reducers) {
  std::vector<uint32_t> dense(s.sizes.size(), ~uint32_t{0});
  in->x2y = s.x2y;
  in->capacity = s.capacity;
  in->sizes.clear();
  in->is_y.clear();
  for (uint32_t id : s.alive_ids) {
    dense[id] = static_cast<uint32_t>(in->sizes.size());
    in->sizes.push_back(s.sizes[id]);
    in->is_y.push_back(s.sides[id] == msp::online::Side::kY ? 1 : 0);
  }
  reducers->clear();
  for (const auto& reducer : s.reducers) {
    std::vector<uint32_t> members;
    for (uint32_t id : reducer) members.push_back(dense[id]);
    reducers->push_back(std::move(members));
  }
}

// Placement copy keyed by reducer uid, for churn recomputation.
using Placement = std::vector<std::pair<uint64_t, std::vector<uint32_t>>>;

Placement Capture(const LiveState& s) {
  Placement p;
  p.reserve(s.reducers.size());
  for (std::size_t r = 0; r < s.reducers.size(); ++r) {
    p.emplace_back(s.reducer_uids[r], s.reducers[r]);
    std::sort(p.back().second.begin(), p.back().second.end());
  }
  std::sort(p.begin(), p.end());
  return p;
}

struct Diff {
  uint64_t shipped = 0;
  uint64_t shipped_bytes = 0;
  uint64_t dropped = 0;
};

// Copies present after but not before (per reducer uid) ship, at the
// input's current size; copies present before but not after drop.
Diff DiffPlacements(const Placement& before, const Placement& after,
                    const std::vector<uint64_t>& sizes) {
  Diff d;
  std::size_t i = 0;
  std::size_t j = 0;
  const std::vector<uint32_t> none;
  while (i < before.size() || j < after.size()) {
    const bool take_before =
        j == after.size() ||
        (i < before.size() && before[i].first < after[j].first);
    const bool take_after =
        i == before.size() ||
        (j < after.size() && after[j].first < before[i].first);
    const std::vector<uint32_t>& old_m = take_after ? none : before[i].second;
    const std::vector<uint32_t>& new_m = take_before ? none : after[j].second;
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < old_m.size() || b < new_m.size()) {
      if (b == new_m.size() || (a < old_m.size() && old_m[a] < new_m[b])) {
        ++d.dropped;
        ++a;
      } else if (a == old_m.size() || new_m[b] < old_m[a]) {
        ++d.shipped;
        d.shipped_bytes += sizes[new_m[b]];
        ++b;
      } else {
        ++a;
        ++b;
      }
    }
    if (!take_after) ++i;
    if (!take_before) ++j;
  }
  return d;
}

struct Phase {
  uint64_t rounds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One step per update of the round (both streams): Apply calls, and
  // the Schema() reads after every kReadEvery-th update.
  StepSamples apply_us;
  StepSamples read_us;
  Samples latency;  // every Apply call, for the tail
  Samples repair_latency;  // Apply calls that made no planner call
  double churn_bytes = 0;
  uint64_t applied = 0;
  // Updates whose ledger charged copies shipped and dropped again
  // within the same update (reference figures).
  uint64_t round_trip_updates = 0;
  uint64_t round_trip_replans = 0;
  double round_trip_bytes = 0;
  double reducer_ratio_sum = 0;
  double comm_ratio_sum = 0;
  uint64_t checkpoints = 0;
  double planner_us = 0;  // planner time inside Apply calls (traced)
  double apply_us_sum = 0;  // time inside Apply calls (traced)
  double cpu_s = 0;
  // Snapshots of the first round's states, every kSnapshotEvery updates
  // of each stream and at its end.
  std::vector<std::string> snapshots;
  StepSamples restore_us;  // one step per snapshot
  uint64_t restores = 0;
};

// Restores the next snapshot of the first round (none before the first
// is taken) and times it as that snapshot's step.
void RestoreNext(Phase* phase, Report* report) {
  if (phase->snapshots.empty()) return;
  const std::size_t j = phase->restores++ % phase->snapshots.size();
  std::string error;
  const Clock::time_point t0 = Clock::now();
  const auto restored =
      msp::online::SnapshotCodec::Restore(phase->snapshots[j], &error);
  phase->restore_us.Add(j, MicrosBetween(t0, Clock::now()));
  if (!restored) report->Fail("snapshot restore failed: " + error);
}

// The ledger prices every copy the moment it ships, so a copy shipped
// and dropped again within one update is charged though the diff
// cannot see it: the ledger may exceed the diff only by such round
// trips, as many extra ships as extra drops.
void CheckChurn(const std::string& trace, std::size_t k,
                const Placement& before, const LiveState& state,
                const msp::online::UpdateResult& result, Phase* phase,
                Report* report) {
  const Diff diff = DiffPlacements(before, Capture(state), state.sizes);
  const msp::online::ChurnStats& churn = result.churn;
  const uint64_t extra = churn.inputs_moved - diff.shipped;
  if (diff.shipped > churn.inputs_moved ||
      diff.dropped > churn.inputs_dropped ||
      diff.shipped_bytes > churn.bytes_moved ||
      churn.inputs_dropped - diff.dropped != extra ||
      (extra == 0) != (diff.shipped_bytes == churn.bytes_moved)) {
    report->Fail(trace + " update " + std::to_string(k) +
                 ": schema diff ships " + std::to_string(diff.shipped) +
                 " copies / " + std::to_string(diff.shipped_bytes) +
                 " units and drops " + std::to_string(diff.dropped) +
                 ", the ledger " + std::to_string(churn.inputs_moved) + " / " +
                 std::to_string(churn.bytes_moved) + " / " +
                 std::to_string(churn.inputs_dropped));
  }
  if (extra > 0) {
    ++phase->round_trip_updates;
    phase->round_trip_bytes +=
        static_cast<double>(churn.bytes_moved - diff.shipped_bytes);
    if (result.replanned) ++phase->round_trip_replans;
  }
}

void ReplayTrace(const Trace& trace, bool first_round,
                 msp::obs::Registry* registry, uint64_t* update_id,
                 std::size_t first_step, Phase* phase, Report* report) {
  msp::online::OnlineConfig config;
  config.x2y = trace.x2y;
  config.capacity = trace.capacity;
  config.metrics = registry;
  OnlineAssigner assigner(config);
  std::string seed_error;
  if (!assigner.Seed(trace.initial_sizes, trace.initial_sides,
                     trace.initial_schema, false, &seed_error)) {
    report->Fail(trace.name + ": warm start rejected: " + seed_error);
    return;
  }
  const bool traced = registry != nullptr;
  msp::obs::Counter* plans =
      traced ? registry->counter("planner.plans_total") : nullptr;
  msp::obs::Histogram* plan_us =
      traced ? registry->histogram("planner.plan_latency_us") : nullptr;
  double plan_us_seen = traced ? static_cast<double>(plan_us->snapshot().sum()) : 0;

  std::vector<std::optional<uint32_t>> live_of_trace;
  msp::online::TraceIdTranslator translator(&live_of_trace);
  for (uint32_t id = 0; id < trace.initial_sizes.size(); ++id) {
    translator.RecordAdd(id);
  }
  CheckInstance dense;
  Reducers dense_reducers;
  uint64_t ledger_bytes = 0;
  for (std::size_t k = 0; k < trace.updates.size(); ++k) {
    Update update = trace.updates[k];
    ++phase->attempted;
    if (!translator.Translate(&update)) {
      ++phase->failed;
      report->Fail(trace.name + ": update names a rejected input");
      continue;
    }
    Placement before;
    {
      OwnWork own;
      before = Capture(assigner.live_state());
    }
    const uint64_t plans_before = plans != nullptr ? plans->value() : 0;
    msp::online::UpdateResult result;
    double us = 0;
    {
      msp::obs::Span span("bench.online_apply");
      span.Arg("update", ++*update_id);
      const Clock::time_point t0 = Clock::now();
      result = assigner.Apply(update);
      us = MicrosBetween(t0, Clock::now());
    }
    phase->apply_us.Add(first_step + k, us);
    phase->latency.Add(us);
    if (update.kind == msp::online::UpdateKind::kAddInput) {
      translator.RecordAdd(result.new_id);
    }
    if (!result.applied) {
      ++phase->failed;
      report->Fail(trace.name + ": update rejected: " + result.error);
      continue;
    }
    ++phase->applied;
    phase->churn_bytes += static_cast<double>(result.churn.bytes_moved);
    ledger_bytes += result.churn.bytes_moved;
    if (traced) {
      double planner_us = 0;
      if (plans->value() != plans_before) {
        const double seen = static_cast<double>(plan_us->snapshot().sum());
        planner_us = seen - plan_us_seen;
        plan_us_seen = seen;
      } else {
        phase->repair_latency.Add(us);
      }
      phase->planner_us += planner_us;
      phase->apply_us_sum += us;
    }

    const LiveState& state = assigner.live_state();
    {
      OwnWork own;
      CheckChurn(trace.name, k, before, state, result, phase, report);
    }
    if (k % kReadEvery == 0) {
      msp::MappingSchema schema;
      {
        msp::obs::Span span("bench.online_schema");
        span.Arg("update", *update_id);
        const Clock::time_point r0 = Clock::now();
        schema = assigner.Schema();
        phase->read_us.Add(first_step + k, MicrosBetween(r0, Clock::now()));
      }
      if (schema.num_reducers() != state.reducers.size()) {
        report->Fail(trace.name + ": Schema() lost reducers");
      }
    }
    if ((first_step + k + 1) % kRestoreEvery == 0) RestoreNext(phase, report);
    OwnWork own;  // the rest of the update is the benchmark's
    if (first_round && (k + 1) % kSnapshotEvery == 0) {
      phase->snapshots.push_back(
          msp::online::SnapshotCodec::Serialize(assigner));
    }
    if ((k + 1) % kCheckpointEvery == 0) {
      DenseView(state, &dense, &dense_reducers);
      const SchemaCheck check = CheckSchema(dense, dense_reducers);
      const msp::online::QualitySnapshot quality = assigner.Quality();
      if (!check.ok) {
        report->Fail(trace.name + " update " + std::to_string(k) + ": " +
                     check.error);
      } else if (check.communication != quality.live_communication ||
                 check.reducers != quality.live_reducers) {
        report->Fail(trace.name + ": live quality disagrees with the schema");
      } else if (first_round) {
        phase->reducer_ratio_sum += static_cast<double>(check.reducers) /
                                    static_cast<double>(check.bounds.reducers);
        phase->comm_ratio_sum +=
            static_cast<double>(check.communication) /
            static_cast<double>(check.bounds.communication);
        ++phase->checkpoints;
      }
    }
  }
  if (assigner.totals().churn.bytes_moved != ledger_bytes) {
    report->Fail(trace.name + ": lifetime churn differs from per-update sum");
  }
}

void RunPhase(const std::vector<Trace>& traces, double budget_s,
              msp::obs::Registry* registry, TracedPhase* tracing,
              Phase* phase, Report* report) {
  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  uint64_t update_id = 0;
  while (phase->rounds == 0 || SecondsSince(start) < budget_s) {
    {
      msp::obs::Span round_span("bench.online_round");
      round_span.Arg("round", phase->rounds);
      std::size_t first_step = 0;
      for (const Trace& trace : traces) {
        ReplayTrace(trace, phase->rounds == 0, registry, &update_id,
                    first_step, phase, report);
        first_step += trace.updates.size();
      }
    }
    ++phase->rounds;
    if (tracing != nullptr) tracing->RoundEnd();
  }
  phase->cpu_s = ProcessCpuSeconds() - cpu_start;
}

}  // namespace

void RunOnline(const Options& options, Report* report) {
  const std::vector<Trace> traces = {
      MakeTrace("a2a", false, options.seed * 2 + 1),
      MakeTrace("x2y", true, options.seed * 2 + 2),
  };
  {
    // The checker must also reject broken copies of a real plan: the
    // A2A stream's planned warm start.
    OwnWork own;
    CheckInstance real;
    real.capacity = traces[0].capacity;
    real.sizes = traces[0].initial_sizes;
    std::string self_test_error;
    if (!CheckerSelfTest(&self_test_error, &real,
                         &traces[0].initial_schema.reducers)) {
      report->Fail(self_test_error);
    }
  }
  // Warm-up: one checked, unmeasured round. setup_s leaves out the
  // checks' own time (OwnWork).
  Phase warm;
  RunPhase(traces, 0, nullptr, nullptr, &warm, report);
  const double setup_s = SetupSeconds();

  Phase untraced;
  RunPhase(traces, options.trace ? options.seconds / 2 : options.seconds,
           nullptr, nullptr, &untraced, report);

  report->attempted = untraced.attempted;
  report->failed = untraced.failed;
  std::size_t updates_per_round = 0;
  for (const Trace& trace : traces) updates_per_round += trace.updates.size();
  const double ops_per_s = static_cast<double>(updates_per_round) /
                           (untraced.apply_us.TypicalSumUs() * 1e-6);
  if (!options.trace) {
    report->E2E("setup_s", setup_s, "s");
    report->E2E("ops_per_s", ops_per_s, "ops/s");
    report->E2E("op_p50_us", untraced.apply_us.TypicalMedianUs(), "us");
    report->E2E("read_p50_us", untraced.read_us.TypicalMedianUs(), "us");
    report->E2E("peak_rss_mb", PeakRssMb(), "MB");
    report->E2E("reducers_over_lb",
                untraced.reducer_ratio_sum /
                    static_cast<double>(untraced.checkpoints),
                "ratio");
    report->E2E("comm_over_lb",
                untraced.comm_ratio_sum /
                    static_cast<double>(untraced.checkpoints),
                "ratio");
    report->E2E("churn_per_update",
                untraced.churn_bytes / static_cast<double>(untraced.applied),
                "units/update");
    // Every restore of a snapshot is the same work, so its samples
    // differ only by the machine: each snapshot's fastest restore is its
    // cost. Restored in five passes at each round's end, one pass's
    // restores took 3.7-4.1 ms in some rounds and 5.3-5.6 ms in others,
    // and ten runs spread 0.30 (medians) or 0.25 (fastest).
    report->E2E("recover_s", untraced.restore_us.FastestSumUs() * 1e-6, "s");
    const double tail = TailPercentileFor(untraced.latency.count());
    std::printf("online: %llu rounds, %zu update samples; p%.1f %.0f us, "
                "max %.0f us; %llu updates (%llu re-plans) shipped %.0f "
                "units that the same update dropped again\n",
                static_cast<unsigned long long>(untraced.rounds),
                untraced.latency.count(), tail,
                untraced.latency.Percentile(tail),
                untraced.latency.Percentile(100),
                static_cast<unsigned long long>(untraced.round_trip_updates),
                static_cast<unsigned long long>(untraced.round_trip_replans),
                untraced.round_trip_bytes);
    return;
  }

  msp::obs::Registry registry;
  TracedPhase tracing(options.work_dir + "/trace-online.json");
  Phase traced;
  RunPhase(traces, options.seconds / 2, &registry, &tracing, &traced, report);
  if (!tracing.Finish()) report->Fail("cannot write the span trace");
  report->attempted += traced.attempted;
  report->failed += traced.failed;
  const double rounds = static_cast<double>(traced.rounds);
  const double plans = RegistrySum(registry, "planner.plans_total", "count");
  const double hits = RegistrySum(registry, "planner.cache_hits_total", "count");
  const double misses =
      RegistrySum(registry, "planner.cache_misses_total", "count");
  const double replans = RegistrySum(registry, "online.replans_total", "count");
  const double churn_total =
      RegistrySum(registry, "online.churn_bytes_total", "count");
  const double churn_replan = static_cast<double>(
      registry.counter("online.churn_bytes_total", {{"kind", "replan"}})
          ->value());
  report->Layer("planner.plan_us_sum",
                RegistrySum(registry, "planner.plan_latency_us", "sum") / rounds,
                "us");
  report->Layer("planner.plans", plans / rounds, "count");
  report->Layer("planner.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report->Layer("planner.allocs",
                plans > 0 ? RegistrySum(registry, "planner.allocs_total",
                                        "count") / plans
                          : 0,
                "count");
  report->Layer("online.repair_us_sum",
                (traced.apply_us_sum - traced.planner_us) / rounds, "us");
  report->Layer("online.repair_p50_us", traced.repair_latency.Percentile(50),
                "us");
  report->Layer("online.repairs",
                RegistrySum(registry, "online.repairs_total", "count") / rounds,
                "count");
  report->Layer("online.replan_us_sum", traced.planner_us / rounds, "us");
  report->Layer("online.replans", replans / rounds, "count");
  report->Layer(
      "online.policy_consults",
      RegistrySum(registry, "online.policy_consults_total", "count") / rounds,
      "count");
  report->Layer("online.deploy_ratio", plans > 0 ? replans / plans : 0,
                "ratio");
  report->Layer("online.churn_repair_bytes",
                (churn_total - churn_replan) / rounds, "units");
  report->Layer("online.churn_replan_bytes", churn_replan / rounds, "units");
  report->Layer("online.allocs",
                RegistrySum(registry, "online.allocs_total", "count") /
                    static_cast<double>(traced.applied),
                "count");
  for (const char* algorithm : kPortfolioAlgorithms) {
    report->Layer(std::string("core.wins.") + algorithm,
                  static_cast<double>(
                      registry
                          .counter("planner.portfolio_wins_total",
                                   {{"algorithm", algorithm}})
                          ->value()) /
                      rounds,
                  "count");
  }
  report->Layer("process.cpu_s", traced.cpu_s / rounds, "s");
  report->Layer("obs.traced_over_untraced",
                static_cast<double>(updates_per_round) /
                    (traced.apply_us.TypicalSumUs() * 1e-6) / ops_per_s,
                "ratio");
}

}  // namespace perfbench
