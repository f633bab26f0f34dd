// Lock-manager throughput microbenchmark: threads × partitions sweep.
//
// Hammers one LockManager from OS worker threads under three contention
// profiles and reports lock operations per second for every (threads,
// partitions) cell, making the tentpole's claim measurable: uncontended
// grant/release traffic scales with the partition count (one partition
// serializes every call through a single latch), while the contended and
// deadlock-heavy profiles bound the two-tier overhead — they funnel
// through the wait tier no matter how many partitions exist.
//
// Profiles:
//   uncontended    disjoint item ranges per thread; every request grants
//                  immediately (partition-latch fast path only)
//   hot_item       every thread X-locks the same item (FIFO queue + wait
//                  protocol; the wait tier carries all traffic)
//   deadlock       two hot items locked in opposite order by alternating
//                  threads (constant cycle detection + victim aborts)
//
// A fourth table measures transaction-id allocation (acc::TxnIdAllocator)
// across the same thread sweep for block sizes 1 (the shared atomic
// counter every transaction start used to funnel through) and the batched
// default, pinning the win from per-thread id blocks.
//
// Wall-clock numbers, hardware-dependent; the table format and the
// BENCH_lock_throughput.json report follow the bench-harness conventions.
//
// Flags (own parser, rt_tpcc style):
//   --threads=1,2,4,8      worker-thread sweep
//   --partitions=1,4,16,64,1024
//                          lock-table partition sweep (0 = the default,
//                          1024)
//   --seconds=S            measured window per cell (default 0.5)
//   --items-per-txn=N      locks acquired per txn, uncontended (default 8)
//   --json=PATH | --no-json  report destination
//                            (default BENCH_lock_throughput.json)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "acc/engine.h"
#include "bench/harness.h"
#include "lock/conflict.h"
#include "lock/lock_manager.h"
#include "runtime/thread_env.h"

namespace {

using accdb::Json;
using accdb::lock::ItemId;
using accdb::lock::LockManager;
using accdb::lock::LockManagerOptions;
using accdb::lock::LockMode;
using accdb::lock::Outcome;
using accdb::lock::TxnId;

struct Options {
  std::vector<int> threads = {1, 2, 4, 8};
  std::vector<size_t> partitions = {1, 4, 16, 64, 1024};
  double seconds = 0.5;
  int items_per_txn = 8;
  std::string json_path = "BENCH_lock_throughput.json";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads=1,2,4,8] [--partitions=1,4,16,64,1024]\n"
               "          [--seconds=S] [--items-per-txn=N]\n"
               "          [--json=PATH | --no-json]\n",
               argv0);
  std::exit(2);
}

bool ParseValue(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

template <typename T>
std::vector<T> ParseList(const std::string& value, const char* argv0) {
  std::vector<T> out;
  for (size_t pos = 0; pos < value.size();) {
    size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    long long n = std::atoll(value.substr(pos, comma - pos).c_str());
    if (n < 0) Usage(argv0);
    out.push_back(static_cast<T>(n));
    pos = comma + 1;
  }
  if (out.empty()) Usage(argv0);
  return out;
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseValue(argv[i], "--threads", &value)) {
      options.threads = ParseList<int>(value, argv[0]);
      for (int n : options.threads)
        if (n <= 0) Usage(argv[0]);
    } else if (ParseValue(argv[i], "--partitions", &value)) {
      options.partitions = ParseList<size_t>(value, argv[0]);
    } else if (ParseValue(argv[i], "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (ParseValue(argv[i], "--items-per-txn", &value)) {
      options.items_per_txn = std::atoi(value.c_str());
      if (options.items_per_txn <= 0) Usage(argv[0]);
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

// Routes grant/abort notifications to the owning worker's env (txn ids are
// striped per worker, as in the mt stress test).
class StripedRouter : public LockManager::Listener {
 public:
  explicit StripedRouter(std::vector<accdb::runtime::ThreadExecutionEnv>* envs)
      : envs_(envs) {}

  void OnGranted(TxnId txn, void*) override { EnvOf(txn).LockGranted(txn); }
  void OnWaiterAborted(TxnId txn, void*) override {
    EnvOf(txn).LockAborted(txn);
  }

 private:
  accdb::runtime::ThreadExecutionEnv& EnvOf(TxnId txn) {
    return (*envs_)[(txn - 1) % envs_->size()];
  }

  std::vector<accdb::runtime::ThreadExecutionEnv>* envs_;
};

struct CellResult {
  int threads = 0;
  size_t partitions_requested = 0;
  size_t partitions = 0;  // Resolved count.
  double seconds = 0;
  uint64_t ops = 0;  // Granted lock requests.
  uint64_t txns = 0;
  uint64_t deadlock_aborts = 0;
  LockManager::Stats stats;

  double OpsPerSec() const { return seconds > 0 ? ops / seconds : 0.0; }
};

enum class Profile { kUncontended, kHotItem, kDeadlock };

const char* ProfileName(Profile profile) {
  switch (profile) {
    case Profile::kUncontended:
      return "uncontended";
    case Profile::kHotItem:
      return "hot_item";
    case Profile::kDeadlock:
      return "deadlock";
  }
  return "?";
}

CellResult RunCell(Profile profile, int threads, size_t partitions,
                   const Options& options) {
  accdb::lock::MatrixConflictResolver resolver;
  LockManagerOptions lm_options;
  lm_options.partitions = partitions;
  LockManager lm(&resolver, std::move(lm_options));

  std::vector<accdb::runtime::ThreadExecutionEnv> envs(threads);
  StripedRouter router(&envs);
  lm.set_listener(&router);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<uint64_t> total_txns{0};
  std::atomic<uint64_t> total_aborts{0};

  // The two hot items of the contended profiles. Different rows so they
  // (usually) land on different partitions when there are several.
  const ItemId hot_a = ItemId::Row(1, 1);
  const ItemId hot_b = ItemId::Row(1, 2);

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      accdb::runtime::ThreadExecutionEnv& env = envs[w];
      uint64_t ops = 0, txns = 0, aborts = 0;
      // Disjoint per-thread row range for the uncontended profile.
      const uint64_t row_base = 1000 + static_cast<uint64_t>(w) * 100000;
      uint64_t k = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const TxnId txn =
            static_cast<TxnId>(w + 1) + static_cast<TxnId>(k++) * threads;
        bool aborted = false;
        if (profile == Profile::kUncontended) {
          for (int j = 0; j < options.items_per_txn; ++j) {
            ItemId item = ItemId::Row(
                1, row_base + (k * options.items_per_txn + j) % 4096);
            LockMode mode = (j % 4 == 0) ? LockMode::kX : LockMode::kS;
            Outcome outcome = lm.Request(txn, item, mode, {});
            if (outcome == Outcome::kGranted) ++ops;
          }
        } else {
          // First lock: A for even workers, B for odd. Deadlock profile
          // takes the second lock in the opposite order.
          const bool even = (w % 2) == 0;
          const ItemId first = even ? hot_a : hot_b;
          const ItemId second = even ? hot_b : hot_a;
          const int locks = profile == Profile::kHotItem ? 1 : 2;
          for (int j = 0; j < locks && !aborted; ++j) {
            ItemId item = (j == 0) ? first : second;
            env.PrepareWait(txn);
            Outcome outcome = lm.Request(txn, item, LockMode::kX, {});
            bool granted;
            if (outcome == Outcome::kWaiting) {
              granted = env.AwaitLock(txn);
            } else {
              env.DiscardWait(txn);
              granted = outcome == Outcome::kGranted;
            }
            if (granted) {
              ++ops;
            } else {
              aborted = true;
              ++aborts;
            }
          }
        }
        lm.ReleaseAll(txn);
        if (!aborted) ++txns;
      }
      total_ops.fetch_add(ops);
      total_txns.fetch_add(txns);
      total_aborts.fetch_add(aborts);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  CellResult cell;
  cell.threads = threads;
  cell.partitions_requested = partitions;
  cell.partitions = lm.partition_count();
  cell.seconds = elapsed;
  cell.ops = total_ops.load();
  cell.txns = total_txns.load();
  cell.deadlock_aborts = total_aborts.load();
  cell.stats = lm.StatsSnapshot();
  return cell;
}

// Transaction-id allocation cell: every thread draws ids as fast as it can
// from one shared allocator for the measured window.
struct TxnIdCell {
  int threads = 0;
  uint32_t block = 0;
  double seconds = 0;
  uint64_t ids = 0;

  double IdsPerSec() const { return seconds > 0 ? ids / seconds : 0.0; }
};

TxnIdCell RunTxnIdCell(int threads, uint32_t block, double seconds) {
  accdb::acc::TxnIdAllocator allocator(block);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_ids{0};

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      uint64_t ids = 0;
      TxnId last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        last = allocator.Next();
        ++ids;
      }
      (void)last;
      total_ids.fetch_add(ids);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  TxnIdCell cell;
  cell.threads = threads;
  cell.block = block;
  cell.seconds = elapsed;
  cell.ids = total_ids.load();
  return cell;
}

Json TxnIdCellJson(const TxnIdCell& cell) {
  Json j = Json::Object();
  j["threads"] = Json(static_cast<int64_t>(cell.threads));
  j["block"] = Json(static_cast<uint64_t>(cell.block));
  j["seconds"] = Json(cell.seconds);
  j["ids"] = Json(cell.ids);
  j["ids_per_sec"] = Json(cell.IdsPerSec());
  return j;
}

Json CellJson(const CellResult& cell) {
  Json j = Json::Object();
  j["threads"] = Json(static_cast<int64_t>(cell.threads));
  j["partitions_requested"] =
      Json(static_cast<uint64_t>(cell.partitions_requested));
  j["partitions"] = Json(static_cast<uint64_t>(cell.partitions));
  j["seconds"] = Json(cell.seconds);
  j["ops"] = Json(cell.ops);
  j["txns"] = Json(cell.txns);
  j["ops_per_sec"] = Json(cell.OpsPerSec());
  j["deadlock_aborts"] = Json(cell.deadlock_aborts);
  j["lm_requests"] = Json(cell.stats.requests);
  j["lm_immediate_grants"] = Json(cell.stats.immediate_grants);
  j["lm_waits"] = Json(cell.stats.waits);
  j["lm_deadlocks"] = Json(cell.stats.deadlocks);
  j["lm_release_calls"] = Json(cell.stats.release_calls);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accdb::bench;

  Options options = ParseOptions(argc, argv);
  BenchOptions report_options;
  report_options.name = "lock_throughput";
  report_options.jobs = 1;
  report_options.json_path = options.json_path;
  BenchReport report(report_options);
  PrintTitle(
      "Lock-manager throughput: threads x partitions (wall clock; "
      "hardware-dependent, not deterministic)");

  Json scenarios = Json::Array();
  for (Profile profile :
       {Profile::kUncontended, Profile::kHotItem, Profile::kDeadlock}) {
    std::printf("\n[%s] lock ops/sec\n", ProfileName(profile));
    std::printf("%-8s", "threads");
    for (size_t p : options.partitions) std::printf(" %10zup", p);
    std::printf("\n");

    Json points = Json::Array();
    for (int threads : options.threads) {
      std::printf("%-8d", threads);
      for (size_t partitions : options.partitions) {
        CellResult cell = RunCell(profile, threads, partitions, options);
        std::printf(" %11.0f", cell.OpsPerSec());
        std::fflush(stdout);
        points.Append(CellJson(cell));
      }
      std::printf("\n");
    }
    Json scenario = Json::Object();
    scenario["name"] = Json(ProfileName(profile));
    scenario["points"] = std::move(points);
    scenarios.Append(scenario);
  }

  const std::vector<uint32_t> blocks = {
      1, accdb::acc::TxnIdAllocator::kDefaultBlock};
  std::printf("\n[txn_id_alloc] ids/sec (shared allocator)\n");
  std::printf("%-8s", "threads");
  for (uint32_t block : blocks) std::printf(" %9ub", block);
  std::printf("\n");
  Json txn_id_points = Json::Array();
  for (int threads : options.threads) {
    std::printf("%-8d", threads);
    for (uint32_t block : blocks) {
      TxnIdCell cell = RunTxnIdCell(threads, block, options.seconds);
      std::printf(" %10.0f", cell.IdsPerSec());
      std::fflush(stdout);
      txn_id_points.Append(TxnIdCellJson(cell));
    }
    std::printf("\n");
  }
  Json txn_id_scenario = Json::Object();
  txn_id_scenario["name"] = Json("txn_id_alloc");
  txn_id_scenario["points"] = std::move(txn_id_points);
  scenarios.Append(txn_id_scenario);

  report.root()["environment"] = Json("real-thread");
  report.root()["measured_seconds"] = Json(options.seconds);
  report.root()["items_per_txn"] =
      Json(static_cast<int64_t>(options.items_per_txn));
  report.root()["hardware_concurrency"] = Json(
      static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.root()["scenarios"] = std::move(scenarios);
  report.Write();
  return 0;
}
