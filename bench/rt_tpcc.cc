// Real-thread TPC-C: the CC backends under true hardware parallelism.
//
// The real-thread counterpart of the figure benches: a closed-loop TPC-C
// mix runs on OS worker threads (src/runtime) against the same engine and
// lock manager, sweeping the thread count and comparing the systems under
// test (default: all four backends — acc, 2pl, occ, mvcc — on the same
// seed) on wall-clock response time and throughput.
//
// Unlike the simulation tables, these numbers are hardware-dependent (core
// count, scheduler, clock) and will vary run to run — the tables and the
// BENCH_rt_tpcc.json report share the simulation benches' format, not their
// bit-for-bit determinism.
//
// Flags (own parser; the shared ParseBenchOptions aborts on unknown flags):
//   --threads=1,2,4,8,16   comma-separated worker-thread sweep
//   --modes=acc,2pl,occ,mvcc  comma-separated systems under test (default:
//                          all four); --mode=X is shorthand for a single one
//   --warehouses=1,2,4,8   comma-separated warehouse-count sweep (falls back
//                          to the ACCDB_WAREHOUSES environment variable);
//                          W>1 cells shard storage per warehouse and bind
//                          worker t to home warehouse (t mod W) + 1
//   --seconds=S            measured wall-clock window per cell (default 2)
//   --warmup=S             warmup excluded from metrics (default 0.5)
//   --seed=N               workload seed (default 20250806)
//   --cost-scale=F         scales modeled statement costs (default 1)
//   --think-scale=F        scales keying/think times (default 0: saturated)
//   --audit                re-evaluate interstep assertion predicates at
//                          their contract points (EngineConfig::
//                          audit_assertions); exits nonzero if any predicate
//                          was found false
//   --wal-path=FILE        write-ahead log path; every cell starts from an
//                          empty log (default: no WAL, pure in-memory)
//   --group-commit-us=N    group-commit window in microseconds (0 = fsync
//                          per commit; only meaningful with --wal-path)
//   --json=PATH | --no-json  report destination (default BENCH_rt_tpcc.json)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "runtime/rt_runner.h"

namespace {

struct RtOptions {
  std::vector<int> threads = {1, 2, 4, 8, 16};
  std::vector<int> warehouses = {1, 2, 4, 8};
  std::vector<accdb::bench::SystemSpec> systems = accdb::bench::AllSystems();
  double seconds = 2.0;
  double warmup = 0.5;
  uint64_t seed = 20250806;
  double cost_scale = 1.0;
  double think_scale = 0.0;
  bool affinity = true;
  uint32_t txn_id_block = accdb::acc::TxnIdAllocator::kDefaultBlock;
  std::string wal_path;
  uint32_t group_commit_us = 0;
  bool audit = false;
  std::string json_path = "BENCH_rt_tpcc.json";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads=1,2,4,8,16] [--warehouses=1,2,4,8]\n"
               "          [--modes=acc,2pl,occ,mvcc] [--mode=X]\n"
               "          [--seconds=S] [--warmup=S] [--seed=N]\n"
               "          [--cost-scale=F] [--think-scale=F]\n"
               "          [--affinity=0|1]\n"
               "          [--txn-id-block=N] [--audit] [--wal-path=FILE]\n"
               "          [--group-commit-us=N] [--json=PATH | --no-json]\n",
               argv0);
  std::exit(2);
}

bool ParseValue(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// Parses a comma-separated list of mode names into system specs; empty
// result on an unknown name.
std::vector<accdb::bench::SystemSpec> ParseModeList(const std::string& value) {
  std::vector<accdb::bench::SystemSpec> out;
  for (size_t pos = 0; pos <= value.size();) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    const std::string name = value.substr(pos, comma - pos);
    auto mode = accdb::acc::ParseExecMode(name);
    if (!mode.has_value()) return {};
    out.push_back({name, *mode});
    pos = comma + 1;
  }
  return out;
}

// Parses a comma-separated list of positive ints; empty result on error.
std::vector<int> ParseIntList(const std::string& value) {
  std::vector<int> out;
  for (size_t pos = 0; pos < value.size();) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    int n = std::atoi(value.substr(pos, comma - pos).c_str());
    if (n <= 0) return {};
    out.push_back(n);
    pos = comma + 1;
  }
  return out;
}

RtOptions ParseOptions(int argc, char** argv) {
  RtOptions options;
  // Flags override the environment variable.
  if (const char* env = std::getenv("ACCDB_WAREHOUSES")) {
    std::vector<int> parsed = ParseIntList(env);
    if (!parsed.empty()) options.warehouses = parsed;
  }
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseValue(argv[i], "--threads", &value)) {
      options.threads = ParseIntList(value);
      if (options.threads.empty()) Usage(argv[0]);
    } else if (ParseValue(argv[i], "--modes", &value) ||
               ParseValue(argv[i], "--mode", &value)) {
      options.systems = ParseModeList(value);
      if (options.systems.empty()) Usage(argv[0]);
    } else if (ParseValue(argv[i], "--warehouses", &value)) {
      options.warehouses = ParseIntList(value);
      if (options.warehouses.empty()) Usage(argv[0]);
    } else if (ParseValue(argv[i], "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (ParseValue(argv[i], "--warmup", &value)) {
      options.warmup = std::atof(value.c_str());
    } else if (ParseValue(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseValue(argv[i], "--cost-scale", &value)) {
      options.cost_scale = std::atof(value.c_str());
    } else if (ParseValue(argv[i], "--think-scale", &value)) {
      options.think_scale = std::atof(value.c_str());
    } else if (ParseValue(argv[i], "--affinity", &value)) {
      options.affinity = std::atoi(value.c_str()) != 0;
    } else if (ParseValue(argv[i], "--txn-id-block", &value)) {
      options.txn_id_block = static_cast<uint32_t>(
          std::strtoul(value.c_str(), nullptr, 10));
      if (options.txn_id_block < 1) Usage(argv[0]);
    } else if (ParseValue(argv[i], "--wal-path", &value)) {
      options.wal_path = value;
    } else if (ParseValue(argv[i], "--group-commit-us", &value)) {
      options.group_commit_us =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      options.audit = true;
    } else if (ParseValue(argv[i], "--json", &value)) {
      options.json_path = value;
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      options.json_path.clear();
    } else {
      Usage(argv[0]);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accdb;
  using namespace accdb::bench;

  RtOptions options = ParseOptions(argc, argv);
  BenchOptions report_options;
  report_options.name = "rt_tpcc";
  report_options.jobs = 1;
  report_options.json_path = options.json_path;
  BenchReport report(report_options);
  const std::vector<SystemSpec>& systems = options.systems;
  PrintTitle(
      "Real-thread TPC-C: CC backends on OS worker threads (wall clock; "
      "hardware-dependent, not deterministic)");
  std::printf("systems:");
  for (const SystemSpec& spec : systems) {
    std::printf(" %s", spec.label.c_str());
  }
  std::printf("\n");

  runtime::RtConfig base;
  base.workload = BaseConfig(options.seed);
  base.workload.inputs.skew_districts = true;
  base.workload.inputs.hot_districts = 1;
  base.workload.inputs.hot_fraction = 0.5;
  base.seconds = options.seconds;
  base.warmup_seconds = options.warmup;
  base.cost_scale = options.cost_scale;
  base.think_scale = options.think_scale;
  base.workload.engine.wal.path = options.wal_path;
  base.workload.engine.wal.group_commit_us = options.group_commit_us;
  base.workload.engine.audit_assertions = options.audit;
  base.warehouse_affinity = options.affinity;
  base.txn_id_block = options.txn_id_block;
  const size_t resolved_partitions =
      lock::LockManager::ResolvePartitionCount(0);
  std::printf("lock partitions: %zu\n", resolved_partitions);

  report.root()["environment"] = Json("real-thread");
  report.root()["measured_seconds"] = Json(options.seconds);
  report.root()["warmup_seconds"] = Json(options.warmup);
  report.root()["cost_scale"] = Json(options.cost_scale);
  report.root()["think_scale"] = Json(options.think_scale);
  report.root()["lock_partitions"] =
      Json(static_cast<uint64_t>(resolved_partitions));
  if (!options.wal_path.empty()) {
    report.root()["wal_path"] = Json(options.wal_path);
    report.root()["group_commit_us"] =
        Json(static_cast<uint64_t>(options.group_commit_us));
  }

  if (options.audit) {
    report.root()["audit"] = Json(true);
    std::printf("assertion auditor: on\n");
  }

  bool consistent = true;
  uint64_t audited = 0, violations = 0;
  for (int warehouses : options.warehouses) {
    // Every W keeps the same per-warehouse regime (one hot district, 50%
    // of that warehouse's traffic): the W=1 cells reproduce the
    // single-warehouse contention figures, the W>1 cells show the load —
    // spread by worker-to-warehouse affinity and per-warehouse storage
    // shards — scaling out.
    std::printf("\n== warehouses = %d ==\n", warehouses);
    std::vector<MultiResult> sweep;
    sweep.reserve(options.threads.size());
    for (int threads : options.threads) {
      runtime::RtConfig config = base;
      config.workload.inputs.scale.warehouses = warehouses;
      config.workload.terminals = threads;
      MultiResult point;
      point.terminals = threads;
      point.sweep_x = threads;
      point.systems.reserve(systems.size());
      // Same seed, same thread count, same load for every system: the only
      // variable across a row is the concurrency-control backend.
      for (const SystemSpec& spec : systems) {
        config.workload.mode = spec.mode;
        point.systems.push_back(runtime::RunRtWorkload(config));
      }
      sweep.push_back(std::move(point));
    }

    std::printf("%-8s", "threads");
    for (const SystemSpec& spec : systems) {
      std::printf(" %11s %10s", (spec.label + " tput/s").c_str(),
                  (spec.label + " resp").c_str());
    }
    std::printf("\n");
    for (const MultiResult& point : sweep) {
      std::printf("%-8d", point.terminals);
      for (size_t s = 0; s < systems.size(); ++s) {
        const tpcc::WorkloadResult& r = point.systems[s];
        std::printf(" %11.1f %10s", r.throughput(),
                    TailCell(r.response_all.mean()).c_str());
      }
      std::printf("%s\n",
                  point.degenerate() ? "  [degenerate: zero-sample run]" : "");
      for (size_t s = 0; s < systems.size(); ++s) {
        const tpcc::WorkloadResult& r = point.systems[s];
        if (!r.consistent) {
          std::printf(
              "!! consistency violation at W=%d, %d threads (%s: %s)\n",
              warehouses, point.terminals, systems[s].label.c_str(),
              r.first_violation.c_str());
          consistent = false;
        }
        audited += r.assertions_audited;
        violations += r.assertion_violations;
        if (r.assertion_violations > 0) {
          std::printf(
              "!! assertion violation at W=%d, %d threads (%s: %llu of %llu "
              "audits; first: %s)\n",
              warehouses, point.terminals, systems[s].label.c_str(),
              static_cast<unsigned long long>(r.assertion_violations),
              static_cast<unsigned long long>(r.assertions_audited),
              r.first_assertion_violation.c_str());
        }
      }
    }

    std::printf("\n");
    PrintMultiTailTable(
        "real-thread TPC-C (skewed districts, W=" +
            std::to_string(warehouses) + ")",
        "thr", systems, sweep);

    // W=1 keeps the historical sweep label so existing report consumers
    // line up; every sweep carries the new "warehouses" field.
    const std::string label =
        warehouses == 1 ? "rt_skewed" : "rt_w" + std::to_string(warehouses);
    report.AddMultiSweep(label, "threads", systems, sweep,
                         {{"warehouses", Json(warehouses)}});
  }
  if (options.audit) {
    std::printf("assertion audits: %llu, violations: %llu\n",
                static_cast<unsigned long long>(audited),
                static_cast<unsigned long long>(violations));
  }
  report.Write();
  return (consistent && violations == 0) ? 0 : 1;
}
