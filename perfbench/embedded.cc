// Embedded window: the benchmark's own closed-loop worker threads drive
// tpcc::RunOneTpccTxn against a TpccSystem in this process, each through a
// TimedEnv. Worker t is bound to home warehouse (t mod W) + 1, as in the
// real-thread runner.

#include <sys/prctl.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "driver.h"
#include "tpcc/consistency.h"

namespace perfbench {

namespace {

class Worker {
 public:
  Worker(tpcc::TpccSystem* system, const tpcc::WorkloadConfig& config,
         const Options& options, int index, uint64_t seed,
         const std::atomic<bool>* measuring, const std::atomic<bool>* done)
      : system_(system),
        config_(config),
        index_(index),
        trace_(options.trace),
        env_(options.cost_scale),
        gen_(Inputs(config, index), seed),
        deck_(config.inputs, seed ^ 0x9e3779b97f4a7c15ULL),
        measuring_(measuring),
        done_(done) {
    // Reserved up front so the samples' own growth does not count as
    // memory the window retained.
    const size_t expected =
        static_cast<size_t>(options.seconds * 20000 / options.threads) + 1024;
    latency["OK"].reserve(expected);
    started["OK"].reserve(expected);
    if (trace_) log.spans.reserve(expected);
  }

  void Run() {
    // Sleep precisely: the default 50 us timer slack would inflate every
    // modeled statement cost.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    bool recording = false;
    uint64_t seq = 0;
    while (!done_->load(std::memory_order_acquire)) {
      const tpcc::TxnType type = deck_.Next();
      if (!recording && measuring_->load(std::memory_order_acquire)) {
        recording = true;
        base_server_ = env_.server_sleep_seconds;
        base_client_ = env_.client_sleep_seconds;
      }
      const uint64_t id = (static_cast<uint64_t>(index_) << 40) | seq++;
      const double start = env_.Now();
      int32_t span = -1;
      if (recording && trace_) {
        span = log.Add(id, -1, SpanName::kTxn, start, start);
        env_.Attach(&log, id, span);
      }
      const acc::ExecResult exec = tpcc::RunOneTpccTxn(
          &system_->db(), &system_->engine(), gen_, type,
          config_.compute_seconds, config_.granularity, env_, config_.mode);
      const double end = env_.Now();
      if (span >= 0) {
        log.spans[span].end = end;
        env_.Attach(nullptr, 0, -1);
      }
      // Whole run, warmup included: the consistency check must know whether
      // any compensation ran at all.
      if (exec.compensated) ++compensated_whole_run;
      if (!recording) continue;
      const std::string key = OutcomeKey(StatusCodeName(exec.status.code()),
                                         exec.status.message());
      latency[key].push_back(end - start);
      started[key].push_back(start);
      steps += exec.steps_completed;
      restarts += exec.txn_restarts;
      step_retries += exec.step_deadlock_retries;
      if (exec.compensated) ++compensated;
    }
    server_sleep_seconds = env_.server_sleep_seconds - base_server_;
    client_sleep_seconds = env_.client_sleep_seconds - base_client_;
  }

  // Valid once the thread has been joined.
  SampleMap latency;  // Per outcome key.
  SampleMap started;  // Start times, parallel to `latency`.
  uint64_t steps = 0, restarts = 0, step_retries = 0, compensated = 0;
  uint64_t compensated_whole_run = 0;
  double server_sleep_seconds = 0, client_sleep_seconds = 0;
  SpanLog log;

 private:
  static tpcc::InputGenConfig Inputs(const tpcc::WorkloadConfig& config,
                                     int index) {
    tpcc::InputGenConfig inputs = config.inputs;
    const int64_t warehouses = inputs.scale.warehouses;
    if (warehouses > 1) inputs.home_warehouse = (index % warehouses) + 1;
    return inputs;
  }

  tpcc::TpccSystem* system_;
  const tpcc::WorkloadConfig& config_;
  const int index_;
  const bool trace_;
  TimedEnv env_;
  tpcc::InputGenerator gen_;
  TypeDeck deck_;
  const std::atomic<bool>* measuring_;
  const std::atomic<bool>* done_;
  double base_server_ = 0, base_client_ = 0;
};

void SleepFor(double seconds) {
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

}  // namespace

int RunEmbedded(const Options& options) {
  const tpcc::WorkloadConfig config = MakeWorkloadConfig(options);
  const double setup_start = Now();
  tpcc::TpccSystem system(config);
  const double setup_s = Now() - setup_start;

  Json doc = Json::Object();
  doc["kind"] = Json("embedded");
  doc["setup_s"] = Json(setup_s);
  if (options.setup_only) {
    return WriteResult(options.out, doc, {}) ? 0 : 1;
  }

  std::atomic<bool> measuring{false};
  std::atomic<bool> done{false};
  Rng seeder(options.seed * 7919 + 17);
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> threads;
  for (int t = 0; t < options.threads; ++t) {
    workers.push_back(std::make_unique<Worker>(
        &system, config, options, t, seeder.Next(), &measuring, &done));
  }
  for (auto& worker : workers) {
    threads.emplace_back([w = worker.get()] { w->Run(); });
  }

  // Warmup: threads and their malloc arenas settle before the window.
  SleepFor(kWarmupSeconds);
  lock::LockManager& locks = system.engine().lock_manager();
  const lock::LockManager::Stats lock_before = locks.StatsSnapshot();
  const uint64_t rows_before = TotalRows(system.database());
  const uint64_t heap_before = HeapBytes();
  const double cpu_before = CpuSeconds();
  measuring.store(true, std::memory_order_release);
  const double window_start = Now();
  SleepFor(options.seconds);
  done.store(true, std::memory_order_release);
  const double window_s = Now() - window_start;
  for (std::thread& thread : threads) thread.join();
  const double cpu_s = CpuSeconds() - cpu_before;
  const uint64_t heap_after = HeapBytes();
  const uint64_t rows_after = TotalRows(system.database());
  const lock::LockManager::Stats lock_after = locks.StatsSnapshot();
  const acc::EngineMetrics metrics = system.engine().MetricsSnapshot();

  SampleMap latency, started;
  uint64_t steps = 0, restarts = 0, step_retries = 0, compensated = 0;
  uint64_t compensated_whole_run = 0;
  double server_sleep = 0, client_sleep = 0;
  std::vector<const SpanLog*> logs;
  for (const auto& w : workers) {
    for (const auto& [key, samples] : w->latency) {
      latency[key].insert(latency[key].end(), samples.begin(), samples.end());
    }
    for (const auto& [key, times] : w->started) {
      for (double t : times) started[key].push_back(t - window_start);
    }
    steps += w->steps;
    restarts += w->restarts;
    step_retries += w->step_retries;
    compensated += w->compensated;
    compensated_whole_run += w->compensated_whole_run;
    server_sleep += w->server_sleep_seconds;
    client_sleep += w->client_sleep_seconds;
    logs.push_back(&w->log);
  }

  const bool strict = compensated_whole_run == 0;
  const tpcc::ConsistencyReport consistency =
      tpcc::CheckConsistency(system.db(), strict);

  doc["window_s"] = Json(window_s);
  doc["cpu_s"] = Json(cpu_s);
  doc["heap_before"] = Json(heap_before);
  doc["heap_after"] = Json(heap_after);
  doc["rows_before"] = Json(rows_before);
  doc["rows_after"] = Json(rows_after);
  std::map<std::string, uint64_t> outcomes;
  for (const auto& [key, samples] : latency) outcomes[key] = samples.size();
  doc["outcomes"] = Outcomes(outcomes);
  Json exec = Json::Object();
  exec["steps"] = Json(steps);
  exec["restarts"] = Json(restarts);
  exec["step_retries"] = Json(step_retries);
  exec["compensated"] = Json(compensated);
  doc["exec"] = std::move(exec);
  Json env = Json::Object();
  env["server_sleep_s"] = Json(server_sleep);
  env["client_sleep_s"] = Json(client_sleep);
  doc["env"] = std::move(env);
  doc["lock"] = LockStatsDelta(lock_before, lock_after);
  Json audit = Json::Object();
  audit["enabled"] = Json(options.audit);
  audit["audited"] = Json(metrics.assertions_audited);
  audit["violations"] = Json(metrics.assertion_violations);
  audit["first_violation"] = Json(metrics.first_assertion_violation);
  doc["audit"] = std::move(audit);
  Json check = Json::Object();
  check["ok"] = Json(consistency.ok);
  check["strict"] = Json(strict);
  check["first_violation"] =
      Json(consistency.ok ? std::string() : consistency.violations[0]);
  doc["consistency"] = std::move(check);

  std::string latency_json, start_json;
  AppendSampleMap(latency_json, latency);
  AppendSampleMap(start_json, started);
  std::vector<std::pair<std::string, std::string>> raw = {
      {"latency_s", std::move(latency_json)},
      {"start_s", std::move(start_json)}};
  if (options.trace) {
    std::string spans;
    AppendSpans(spans, logs);
    raw.emplace_back("spans", std::move(spans));
  }
  if (!WriteResult(options.out, doc, raw)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 options.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
