// Workload `serve`: a closed loop over loopback RPC into a sharded
// ServingService with per-shard WALs (group-commit fsync, rotation on).
//
// Every key has its own stationary seeded stream of small A2A or X2Y
// updates; the single client connection owns every key and draws the
// key it advances next from a Zipf distribution. A write round is a
// SubmitBatch followed by a Query of the same key (read-your-writes);
// a read is a bare Query. One client thread, the event loop and two
// shard workers stay within four cores.
//
// One round is a fixed schedule of 64 operations, repeated until the
// phase's time is up.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "checks.h"
#include "core/schema_io.h"
#include "durability/changelog.h"
#include "inputs.h"
#include "obs/span.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "serving/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using msp::rpc::MsgType;
using msp::rpc::Request;
using msp::rpc::Response;

constexpr std::size_t kShards = 2;
constexpr std::size_t kKeys = 64;
constexpr double kKeySkew = 1.1;
constexpr std::size_t kAlive = 24;      // stationary alive inputs per key
constexpr std::size_t kBatch = 8;       // updates per write round
constexpr std::size_t kRoundOps = 64;   // operations per round
constexpr std::size_t kReadsPerRound = 16;  // 25% reads
constexpr uint64_t kFsyncEveryN = 32;
constexpr uint64_t kRotateEvery = 1024;
constexpr std::size_t kWarmupRounds = 16;

struct Key {
  std::string name;
  bool x2y = false;
  std::unique_ptr<StreamGen> gen;
  uint64_t applied = 0;  // updates the client expects applied
};

struct Op {
  std::size_t key = 0;
  bool read = false;
};

struct Run {
  uint64_t rounds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Samples round_rate;     // confirmed updates per second, per round
  Samples write_latency;  // SubmitBatch + Query
  Samples read_latency;   // bare Query
  Samples submit_rtt;     // SubmitBatch alone (acked at enqueue)
  double depth_sum = 0;
  uint64_t depth_samples = 0;
  double churn_per_update = 0;
  double reducer_ratio = 0;
  double comm_ratio = 0;
  double recover_s = 0;
  double cpu_s = 0;
  // Deltas over the measured phase.
  msp::serving::ServingStats before;
  msp::serving::ServingStats after;
  msp::rpc::RpcServerCounters rpc_before;
  msp::rpc::RpcServerCounters rpc_after;
  uint64_t recovered_records = 0;
  std::vector<Request> sample_requests;  // for the codec timing
};

class Client {
 public:
  Client(msp::rpc::RpcClient* rpc, Report* report, Run* run)
      : rpc_(rpc), report_(report), run_(run) {}

  bool Call(const Request& request, Response* response) {
    std::string error;
    if (!rpc_->Call(request, response, &error)) {
      report_->Fail("rpc call failed: " + error);
      return false;
    }
    if (response->req_id != request.req_id) {
      report_->Fail("response out of order");
      return false;
    }
    return true;
  }

  // Query `key` and compare with the client's own mirror of it.
  bool QueryAndCheck(const Key& key) {
    Request query;
    query.type = MsgType::kQuery;
    query.req_id = ++next_id_;
    query.key = key.name;
    Response response;
    if (!Call(query, &response)) return false;
    if (response.type != MsgType::kQueryResult || !response.found) {
      report_->Fail(key.name + ": query refused");
      return false;
    }
    if (response.inputs != key.gen->alive() ||
        response.capacity != key.gen->capacity() ||
        response.applied_updates != key.applied ||
        response.rejected_updates != 0) {
      report_->Fail(key.name + ": query reports " +
                    std::to_string(response.inputs) + " inputs, q=" +
                    std::to_string(response.capacity) + ", " +
                    std::to_string(response.applied_updates) +
                    " applied; the client expects " +
                    std::to_string(key.gen->alive()) + ", q=" +
                    std::to_string(key.gen->capacity()) + ", " +
                    std::to_string(key.applied));
      return false;
    }
    return true;
  }

  bool Submit(Key* key, std::vector<msp::online::Update> updates,
              double* rtt_us) {
    Request submit;
    submit.type = MsgType::kSubmitBatch;
    submit.req_id = ++next_id_;
    submit.key = key->name;
    submit.batch_size = static_cast<uint32_t>(updates.size());
    submit.updates = std::move(updates);
    Response response;
    const Clock::time_point t0 = Clock::now();
    const bool ok = Call(submit, &response);
    *rtt_us = MicrosBetween(t0, Clock::now());
    if (run_->sample_requests.size() < 4096) {
      run_->sample_requests.push_back(submit);
    }
    if (!ok) return false;
    if (response.type != MsgType::kOk ||
        response.accepted != submit.updates.size()) {
      report_->Fail(key->name + ": submit not accepted (" +
                    std::string(msp::rpc::MsgTypeName(response.type)) + ")");
      return false;
    }
    key->applied += submit.updates.size();
    acked_ += submit.updates.size();
    return true;
  }

  uint64_t next_id() { return ++next_id_; }
  uint64_t acked() const { return acked_; }

 private:
  msp::rpc::RpcClient* rpc_;
  Report* report_;
  Run* run_;
  uint64_t next_id_ = 0;
  uint64_t acked_ = 0;
};

std::vector<Key> MakeKeys(uint64_t seed) {
  std::vector<Key> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    Key key;
    key.name = "key-" + std::to_string(i);
    key.x2y = i % 2 == 1;
    StreamParams params;
    params.x2y = key.x2y;
    params.capacity = 100;
    params.hi = 40;
    params.p_add = 0.3;
    params.p_remove = 0.2;
    params.p_resize = 0.45;  // the remaining 5% retune q
    params.retune_factor = 1.25;
    params.target_alive = kAlive;
    key.gen = std::make_unique<StreamGen>(params, seed * 1000003 + i);
    keys.push_back(std::move(key));
  }
  return keys;
}

std::vector<Op> MakeSchedule(uint64_t seed) {
  Rng rng(seed * 7919 + 3);
  const Zipf zipf(kKeys, kKeySkew);
  std::vector<Op> ops(kRoundOps);
  for (Op& op : ops) op.key = zipf.Sample(&rng) - 1;
  // Spread the reads evenly through the round.
  for (std::size_t r = 0; r < kReadsPerRound; ++r) {
    ops[r * (kRoundOps / kReadsPerRound) + kRoundOps / kReadsPerRound - 1]
        .read = true;
  }
  return ops;
}

// Runs one round of the schedule; returns the updates it confirmed.
// `measure` records latencies and counts; `traced` also samples the
// shards' queue depths.
uint64_t RunRound(const std::vector<Op>& schedule, std::vector<Key>* keys,
                  Client* client, const msp::serving::ServingService& service,
                  bool measure, bool traced, Run* run, Report* report) {
  uint64_t confirmed = 0;
  for (const Op& op : schedule) {
    Key& key = (*keys)[op.key];
    if (measure) ++run->attempted;
    if (traced) {
      for (std::size_t s = 0; s < kShards; ++s) {
        run->depth_sum += static_cast<double>(
            service.shard_heartbeat(s).queue_depth.load(
                std::memory_order_relaxed));
        ++run->depth_samples;
      }
    }
    const uint64_t op_id = client->next_id();
    const Clock::time_point t0 = Clock::now();
    if (op.read) {
      bool ok = false;
      {
        msp::obs::Span span("bench.query");
        span.Arg("op", op_id);
        ok = client->QueryAndCheck(key);
      }
      if (!ok) {
        if (measure) ++run->failed;
        continue;
      }
      if (measure) run->read_latency.Add(MicrosBetween(t0, Clock::now()));
      continue;
    }
    std::vector<msp::online::Update> updates;
    for (std::size_t i = 0; i < kBatch; ++i) updates.push_back(key.gen->Next());
    double rtt_us = 0;
    bool ok = false;
    {
      msp::obs::Span round_span("bench.write_round");
      round_span.Arg("op", op_id);
      {
        msp::obs::Span span("bench.submit_batch");
        ok = client->Submit(&key, std::move(updates), &rtt_us);
      }
      if (ok) {
        msp::obs::Span span("bench.query");
        ok = client->QueryAndCheck(key);
      }
    }
    if (!ok) {
      if (measure) ++run->failed;
      report->Fail(key.name + ": write round failed");
      continue;
    }
    confirmed += kBatch;
    if (measure) {
      run->write_latency.Add(MicrosBetween(t0, Clock::now()));
      run->submit_rtt.Add(rtt_us);
    }
  }
  return confirmed;
}

// A serving service on a WAL directory, the RPC server in front of it
// and one connected client.
class Stack {
 public:
  Stack(const msp::durability::WalOptions& wal, msp::obs::Registry* registry,
        Report* report, Run* run) {
    msp::serving::ServingConfig config;
    config.num_shards = kShards;
    config.metrics = registry;
    service_ = std::make_unique<msp::serving::ServingService>(config);
    std::string error;
    if (!service_->AttachWal(wal, &error)) {
      report->Fail("cannot open the WAL: " + error);
      return;
    }
    msp::rpc::RpcServerOptions server_options;
    server_options.service = service_.get();
    server_options.metrics = registry;
    server_ = std::make_unique<msp::rpc::RpcServer>(server_options);
    if (!server_->Start(&error)) {
      report->Fail("cannot start the RPC server: " + error);
      return;
    }
    if (!rpc_.Connect("127.0.0.1", server_->port(), &error)) {
      report->Fail("cannot connect: " + error);
      return;
    }
    client_ = std::make_unique<Client>(&rpc_, report, run);
  }
  ~Stack() {
    rpc_.Close();
    if (server_) server_->Shutdown();
  }

  bool ok() const { return client_ != nullptr; }
  msp::serving::ServingService& service() { return *service_; }
  msp::rpc::RpcServer& server() { return *server_; }
  Client& client() { return *client_; }

  // Closes the connection and drains the server, then checks the
  // front door's and the shards' books: requests == responses with no
  // refusal, and every update this client had acked applied.
  void ShutdownAndCheck(Report* report) {
    rpc_.Close();
    server_->Shutdown();
    const msp::rpc::RpcServerCounters counters = server_->counters();
    if (counters.requests != counters.responses ||
        counters.frame_errors != 0 || counters.overloaded != 0 ||
        counters.errors != 0) {
      report->Fail("server counters: requests " +
                   std::to_string(counters.requests) + ", responses " +
                   std::to_string(counters.responses) + ", overloaded " +
                   std::to_string(counters.overloaded) + ", errors " +
                   std::to_string(counters.errors));
    }
    const msp::serving::ServingStats stats = service_->stats();
    if (stats.total.updates != client_->acked() || stats.total.rejected != 0 ||
        stats.total.skipped != 0) {
      report->Fail("acked " + std::to_string(client_->acked()) +
                   " updates, shards applied " +
                   std::to_string(stats.total.updates) + " (rejected " +
                   std::to_string(stats.total.rejected) + ", skipped " +
                   std::to_string(stats.total.skipped) + ")");
    }
  }

 private:
  std::unique_ptr<msp::serving::ServingService> service_;
  std::unique_ptr<msp::rpc::RpcServer> server_;
  msp::rpc::RpcClient rpc_;
  std::unique_ptr<Client> client_;
};

// Times one recovery of the sealed set-up directory: a fresh copy of it
// into a fresh service (recovery rotates the directory it recovers, so
// every pass starts from its own copy).
void TimeRecovery(const msp::durability::WalOptions& sealed,
                  const std::string& scratch, Samples* times, Run* run,
                  Report* report) {
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  std::filesystem::copy(sealed.dir, scratch,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) {
    report->Fail("cannot copy the WAL directory: " + ec.message());
    return;
  }
  msp::durability::WalOptions recover = sealed;
  recover.dir = scratch;
  recover.recover = true;
  msp::serving::ServingConfig config;
  config.num_shards = kShards;
  msp::serving::ServingService recovered(config);
  std::string error;
  const Clock::time_point t0 = Clock::now();
  const bool ok = recovered.AttachWal(recover, &error);
  times->Add(SecondsSince(t0));
  if (!ok) report->Fail("recovery failed: " + error);
  run->recovered_records = recovered.stats().total.recovered_records;
}

// Set-up on a fresh service: creates and loads every key, then warms
// up with write rounds on every key in turn. Every batch logs the same
// number of records, so each shard's changelog is the same whatever
// the seed.
void SetUp(Stack* stack, std::vector<Key>* keys, Run* run, Report* report) {
  Client& client = stack->client();
  for (Key& key : *keys) {
    Request create;
    create.type = MsgType::kCreateInstance;
    create.req_id = client.next_id();
    create.key = key.name;
    create.spec.x2y = key.x2y;
    create.spec.capacity = key.gen->capacity();
    Response response;
    if (!client.Call(create, &response) || response.type != MsgType::kOk) {
      report->Fail(key.name + ": create refused");
      continue;
    }
    std::vector<msp::online::Update> initial;
    for (std::size_t i = 0; i < kAlive; ++i) {
      initial.push_back(key.gen->NextAdd(
          key.x2y && i % 2 == 1 ? msp::online::Side::kY
                                : msp::online::Side::kX));
    }
    double rtt_us = 0;
    if (!client.Submit(&key, std::move(initial), &rtt_us) ||
        !client.QueryAndCheck(key)) {
      report->Fail(key.name + ": initial load failed");
    }
  }
  std::vector<Op> every_key(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) every_key[k].key = k;
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    RunRound(every_key, keys, &client, stack->service(), false, false, run,
             report);
  }
  run->sample_requests.clear();
}

// One complete serve run. recover_s's input is built first: the same
// set-up on a service of its own, whose shutdown seals its changelogs.
// Its history is fixed work, whereas the measured service's WAL grows
// with however many rounds the machine manages (the snapshot images
// carry every trace id a key ever added). Then the measured service is
// set up the same way and serves the measured phase; one timed recovery
// of a copy of the sealed directory runs every second between its
// rounds. At the end the measured service's own WAL is recovered once
// and must reproduce the live schemas exactly.
void ServeRun(const Options& options, double budget_s,
              msp::obs::Registry* registry, Run* run, Report* report,
              double* setup_s) {
  const bool traced = registry != nullptr;
  const std::string wal_dir = options.work_dir + "/wal-serve-" +
                              std::to_string(getpid()) +
                              (traced ? "-traced" : "");
  const std::string sealed_dir = wal_dir + "-sealed";
  const std::string scratch_dir = wal_dir + "-recover";
  std::error_code ec;
  for (const std::string& dir : {wal_dir, sealed_dir, scratch_dir}) {
    std::filesystem::remove_all(dir, ec);
  }
  msp::durability::WalOptions wal;
  wal.dir = wal_dir;
  wal.fsync_every_n = kFsyncEveryN;
  wal.rotate_every = kRotateEvery;
  msp::durability::WalOptions sealed = wal;
  sealed.dir = sealed_dir;
  {
    OwnWork own;  // recover_s's input, not part of the measured set-up
    std::vector<Key> keys = MakeKeys(options.seed);
    Stack stack(sealed, nullptr, report, run);
    if (!stack.ok()) return;
    SetUp(&stack, &keys, run, report);
    stack.ShutdownAndCheck(report);
  }  // the service's destruction seals the changelogs

  std::vector<Key> keys = MakeKeys(options.seed);
  const std::vector<Op> schedule = MakeSchedule(options.seed);
  std::map<std::string, std::string> live_schemas;
  uint64_t live_applied = 0;
  Samples recover_times;
  {
    wal.metrics = registry;
    Stack stack(wal, registry, report, run);
    if (!stack.ok()) return;
    msp::serving::ServingService& service = stack.service();
    Client& client = stack.client();
    SetUp(&stack, &keys, run, report);
    if (setup_s != nullptr) *setup_s = SetupSeconds();

    // Measured phase.
    run->before = service.stats();
    run->rpc_before = stack.server().counters();
    std::optional<TracedPhase> tracing;
    if (traced) tracing.emplace(options.work_dir + "/trace-serve.json");
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    Clock::time_point last_recovery = start;
    while (run->rounds == 0 || SecondsSince(start) < budget_s) {
      const Clock::time_point r0 = Clock::now();
      const uint64_t confirmed = RunRound(schedule, &keys, &client, service,
                                          true, traced, run, report);
      run->round_rate.Add(static_cast<double>(confirmed) / SecondsSince(r0));
      ++run->rounds;
      if (tracing) tracing->RoundEnd();
      if (SecondsSince(last_recovery) >= 1.0) {
        TimeRecovery(sealed, scratch_dir, &recover_times, run, report);
        last_recovery = Clock::now();
      }
    }
    run->cpu_s = ProcessCpuSeconds() - cpu_start;
    if (tracing && !tracing->Finish()) {
      report->Fail("cannot write the span trace");
    }
    run->after = service.stats();
    run->rpc_after = stack.server().counters();
    if (recover_times.count() == 0) {
      TimeRecovery(sealed, scratch_dir, &recover_times, run, report);
    }

    stack.ShutdownAndCheck(report);  // drains: every acked update applied
    const uint64_t updates = run->after.total.updates - run->before.total.updates;
    run->churn_per_update =
        static_cast<double>(run->after.total.churn.bytes_moved -
                            run->before.total.churn.bytes_moved) /
        static_cast<double>(updates);
    // Every instance at the end: valid, at or above the paper's bounds,
    // and in the state the client's own mirror predicts.
    std::map<std::string, const Key*> by_name;
    for (const Key& key : keys) by_name[key.name] = &key;
    std::size_t instances = 0;
    service.ForEachInstance([&](const std::string& name,
                                const msp::online::OnlineAssigner& a) {
      ++instances;
      const msp::online::LiveState& s = a.live_state();
      CheckInstance in;
      in.x2y = s.x2y;
      in.capacity = s.capacity;
      std::vector<uint32_t> dense(s.sizes.size(), 0);
      for (uint32_t id : s.alive_ids) {
        dense[id] = static_cast<uint32_t>(in.sizes.size());
        in.sizes.push_back(s.sizes[id]);
        in.is_y.push_back(s.sides[id] == msp::online::Side::kY ? 1 : 0);
      }
      Reducers reducers;
      for (const auto& reducer : s.reducers) {
        reducers.emplace_back();
        for (uint32_t id : reducer) reducers.back().push_back(dense[id]);
      }
      const SchemaCheck check = CheckSchema(in, reducers);
      const msp::online::QualitySnapshot quality = a.Quality();
      const Key* key = by_name.count(name) != 0 ? by_name[name] : nullptr;
      if (!check.ok) {
        report->Fail(name + ": " + check.error);
      } else if (check.communication != quality.live_communication) {
        report->Fail(name + ": live communication disagrees with the schema");
      } else if (key == nullptr || a.num_inputs() != key->gen->alive() ||
                 a.totals().updates != key->applied) {
        report->Fail(name + ": final state differs from the client's mirror");
      } else {
        run->reducer_ratio += static_cast<double>(check.reducers) /
                              static_cast<double>(check.bounds.reducers);
        run->comm_ratio += static_cast<double>(check.communication) /
                           static_cast<double>(check.bounds.communication);
      }
      live_schemas[name] = msp::SchemaToText(a.Schema());
      live_applied += a.totals().updates;
    });
    if (instances != keys.size()) report->Fail("instances lost");
    run->reducer_ratio /= static_cast<double>(keys.size());
    run->comm_ratio /= static_cast<double>(keys.size());
  }  // the service's destruction seals the changelogs
  run->recover_s = recover_times.Percentile(50);

  // The measured service's WAL, recovered once, must reproduce every
  // live schema.
  {
    msp::serving::ServingConfig config;
    config.num_shards = kShards;
    msp::serving::ServingService recovered(config);
    msp::durability::WalOptions recover = wal;
    recover.recover = true;
    std::string error;
    if (!recovered.AttachWal(recover, &error)) {
      report->Fail("recovery failed: " + error);
    }
    std::size_t seen = 0;
    uint64_t applied = 0;
    recovered.ForEachInstance([&](const std::string& name,
                                  const msp::online::OnlineAssigner& a) {
      ++seen;
      applied += a.totals().updates;
      auto it = live_schemas.find(name);
      if (it == live_schemas.end() ||
          it->second != msp::SchemaToText(a.Schema())) {
        report->Fail(name + ": recovered schema differs from the live one");
      }
    });
    if (seen != live_schemas.size() || applied != live_applied) {
      report->Fail("recovery lost instances or updates");
    }
  }
  for (const std::string& dir : {wal_dir, sealed_dir, scratch_dir}) {
    std::filesystem::remove_all(dir, ec);
  }
}

double Delta(uint64_t after, uint64_t before) {
  return static_cast<double>(after - before);
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  {
    OwnWork own;
    std::string self_test_error;
    if (!CheckerSelfTest(&self_test_error)) report->Fail(self_test_error);
  }
  Run untraced;
  double setup_s = 0;
  ServeRun(options, options.trace ? options.seconds / 2 : options.seconds,
           nullptr, &untraced, report, &setup_s);
  report->attempted = untraced.attempted;
  report->failed = untraced.failed;
  const double ops_per_s = untraced.round_rate.Percentile(50);
  if (!options.trace) {
    report->E2E("setup_s", setup_s, "s");
    report->E2E("ops_per_s", ops_per_s, "ops/s");
    report->E2E("op_p50_us", untraced.write_latency.Percentile(50), "us");
    report->E2E("read_p50_us", untraced.read_latency.Percentile(50), "us");
    report->E2E("peak_rss_mb", PeakRssMb(), "MB");
    report->E2E("reducers_over_lb", untraced.reducer_ratio, "ratio");
    report->E2E("comm_over_lb", untraced.comm_ratio, "ratio");
    report->E2E("churn_per_update", untraced.churn_per_update, "units/update");
    report->E2E("recover_s", untraced.recover_s, "s");
    const double wt = TailPercentileFor(untraced.write_latency.count());
    const double rt = TailPercentileFor(untraced.read_latency.count());
    std::printf("serve: %llu rounds; write round p%.1f %.0f us over %zu "
                "samples; read p%.1f %.0f us over %zu samples\n",
                static_cast<unsigned long long>(untraced.rounds), wt,
                untraced.write_latency.Percentile(wt),
                untraced.write_latency.count(), rt,
                untraced.read_latency.Percentile(rt),
                untraced.read_latency.count());
    return;
  }

  msp::obs::Registry registry;
  Run traced;
  ServeRun(options, options.seconds / 2, &registry, &traced, report, nullptr);
  report->attempted += traced.attempted;
  report->failed += traced.failed;
  const double rounds = static_cast<double>(traced.rounds);
  const msp::serving::ShardStats& a = traced.after.total;
  const msp::serving::ShardStats& b = traced.before.total;
  const double updates = Delta(a.updates, b.updates);

  const double plans = RegistrySum(registry, "planner.plans_total", "count");
  const double hits = RegistrySum(registry, "planner.cache_hits_total", "count");
  const double misses =
      RegistrySum(registry, "planner.cache_misses_total", "count");
  report->Layer("planner.plans", plans / rounds, "count");
  report->Layer("planner.plan_us_sum",
                RegistrySum(registry, "planner.plan_latency_us", "sum") / rounds,
                "us");
  report->Layer("planner.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  report->Layer("online.repairs", Delta(a.repairs, b.repairs) / rounds, "count");
  report->Layer("online.replans", Delta(a.replans, b.replans) / rounds, "count");
  report->Layer(
      "online.policy_consults",
      RegistrySum(registry, "online.policy_consults_total", "count") / rounds,
      "count");
  const double churn_total =
      RegistrySum(registry, "online.churn_bytes_total", "count");
  const double churn_replan = static_cast<double>(
      registry.counter("online.churn_bytes_total", {{"kind", "replan"}})
          ->value());
  report->Layer("online.churn_repair_bytes",
                (churn_total - churn_replan) / rounds, "units");
  report->Layer("online.churn_replan_bytes", churn_replan / rounds, "units");

  report->Layer("serving.apply_p50_us", a.latency.Percentile(50), "us");
  report->Layer("serving.apply_us_sum",
                Delta(a.latency.sum(), b.latency.sum()) / rounds, "us");
  report->Layer("serving.queue_depth_mean",
                traced.depth_sum / static_cast<double>(traced.depth_samples),
                "count");
  double max_shard = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    max_shard = std::max(max_shard, Delta(traced.after.shards[s].updates,
                                          traced.before.shards[s].updates));
  }
  report->Layer("serving.shard_skew",
                max_shard / (updates / static_cast<double>(kShards)), "ratio");

  const double records = Delta(a.wal_records, b.wal_records);
  const double fsyncs = Delta(a.wal_fsyncs, b.wal_fsyncs);
  report->Layer("durability.records", records / rounds, "count");
  report->Layer("durability.fsyncs", fsyncs / rounds, "count");
  report->Layer("durability.records_per_fsync",
                fsyncs > 0 ? records / fsyncs : 0, "ratio");
  report->Layer("durability.bytes_per_update",
                Delta(a.wal_bytes, b.wal_bytes) / updates, "bytes");
  report->Layer("durability.fsync_p50_us",
                registry.histogram("durability.fsync_latency_us")
                    ->snapshot()
                    .Percentile(50),
                "us");
  report->Layer("durability.rotations",
                Delta(a.wal_rotations, b.wal_rotations) / rounds, "count");
  report->Layer("durability.replay_records",
                static_cast<double>(traced.recovered_records), "count");

  // Codec costs over the run's own requests.
  uint64_t frame_bytes = 0;
  std::size_t decoded = 0;
  const Clock::time_point c0 = Clock::now();
  for (const Request& request : traced.sample_requests) {
    const std::string frame =
        msp::rpc::EncodeFrame(msp::rpc::EncodeRequest(request));
    std::size_t frame_size = 0;
    std::string_view payload;
    std::string error;
    Request back;
    if (msp::rpc::DecodeFrame(frame, &frame_size, &payload, &error) ==
            msp::rpc::FrameStatus::kFrame &&
        msp::rpc::DecodeRequest(payload, &back, &error) &&
        back.updates == request.updates) {
      ++decoded;
    }
    frame_bytes += frame.size();
  }
  const double codec_ns = MicrosBetween(c0, Clock::now()) * 1e3;
  if (decoded != traced.sample_requests.size()) {
    report->Fail("a request did not survive its own codec round trip");
  }
  uint64_t record_count = 0;
  uint64_t record_seq = 0;
  const Clock::time_point e0 = Clock::now();
  for (const Request& request : traced.sample_requests) {
    for (const msp::online::Update& update : request.updates) {
      const std::string bytes = msp::durability::EncodeRecord(
          msp::durability::LogRecord::Event(
              msp::durability::RecordKind::kApplied, request.key,
              ++record_seq, update));
      record_count += bytes.empty() ? 0 : 1;
    }
  }
  const double encode_ns = MicrosBetween(e0, Clock::now()) * 1e3;
  report->Layer("durability.encode_ns_per_record",
                record_count > 0 ? encode_ns / static_cast<double>(record_count)
                                 : 0,
                "ns");
  report->Layer("rpc.submit_rtt_p50_us", traced.submit_rtt.Percentile(50),
                "us");
  report->Layer("rpc.bytes_per_request",
                Delta(traced.rpc_after.bytes_read, traced.rpc_before.bytes_read) /
                    Delta(traced.rpc_after.requests,
                          traced.rpc_before.requests),
                "bytes");
  report->Layer("rpc.codec_ns_per_frame",
                decoded > 0 ? codec_ns / static_cast<double>(decoded) : 0,
                "ns");
  report->Layer("process.cpu_s", traced.cpu_s / rounds, "s");
  report->Layer("obs.traced_over_untraced",
                traced.round_rate.Percentile(50) / ops_per_s, "ratio");
  if (frame_bytes == 0) report->Fail("no request was sampled");
}

}  // namespace perfbench
