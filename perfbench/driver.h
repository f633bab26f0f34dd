// Benchmark driver: runs ONE measured window of one workload against a
// freshly loaded TPC-C system and writes everything it observed — exact
// per-request samples, outcome counts, counter snapshots taken before and
// after the window, correctness verdicts and (when tracing) spans — to a
// JSON file. perfbench/run.py turns those raw observations into metrics.
//
// Every layer is measured from outside, through public entry points:
// TimedEnv wraps the engine's ExecutionEnv, the served client times the
// wire, and the counters come from the public snapshot calls.

#ifndef ACCDB_PERFBENCH_DRIVER_H_
#define ACCDB_PERFBENCH_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "acc/engine.h"
#include "common/json.h"
#include "common/rng.h"
#include "lock/lock_manager.h"
#include "runtime/thread_env.h"
#include "storage/database.h"
#include "tpcc/driver.h"

namespace perfbench {

using namespace accdb;

struct Options {
  std::string kind = "embedded";  // "embedded" or "served".
  acc::ExecMode mode = acc::ExecMode::kAccDecomposed;
  int warehouses = 4;
  int threads = 4;  // Embedded workers, or server workers when served.
  double cost_scale = 0;
  double seconds = 5;
  uint64_t seed = 1;
  bool trace = false;
  bool audit = false;
  bool setup_only = false;
  std::string out;  // Result file.
  // Served only.
  double rate = 500;  // Offered Poisson arrivals per second.
  std::string wal;  // WAL file path; empty = no WAL.
};

// Every window is preceded by this much unmeasured load, so that threads,
// connections and malloc arenas settle before the counters are snapshotted.
constexpr double kWarmupSeconds = 0.5;

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The repository's standard TPC-C configuration (experiment scale, modeled
// statement costs) with the skew every workload uses: one hot district per
// warehouse receives 50% of that warehouse's traffic.
tpcc::WorkloadConfig MakeWorkloadConfig(const Options& options);

// Transaction types drawn from a shuffled deck of 100 cards holding the
// mix's shares (TPC-C clause 5.2.4.2), so every 100 draws carry the exact
// mix. Independent draws would let a short window's few deliveries and
// stock-levels swing its throughput by tens of percent between seeds.
class TypeDeck {
 public:
  static constexpr int kCards = 100;

  // Aborts unless the mix's shares are whole percentages.
  TypeDeck(const tpcc::InputGenConfig& inputs, uint64_t seed);
  tpcc::TxnType Next();

 private:
  Rng rng_;
  std::vector<tpcc::TxnType> cards_;
  size_t next_ = 0;
};

// --- Spans -----------------------------------------------------------------

enum class SpanName : uint8_t {
  kTxn,          // One embedded transaction, RunOneTpccTxn entry to exit.
  kLockWait,     // ExecutionEnv::AwaitLock / AwaitLockUntil.
  kServerSleep,  // ExecutionEnv::UseServer (modeled statement cost).
  kClientSleep,  // ExecutionEnv::ClientDelay (modeled client compute).
  kRequest,      // One served request, intended send to response receipt.
  kSendLate,     // Intended send to actual send (generator lateness).
  kWire,         // Loopback transfer, event-loop handling, in-order parking.
  kQueue,        // Server admission queue (response queue_seconds).
  kExec,         // Server execution (response server_seconds).
  kRecovery,     // Fresh server over the run's WAL, constructed + recovered.
  kLoad,         // Recovery: server construction (reload from the seed).
  kReplay,       // Recovery: RecoverFromWal.
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t id;      // Shared by every span of one request.
  int32_t parent;   // Index (within the same SpanLog) of the parent, or -1.
  SpanName name;
  double start;
  double end;
};

// Spans recorded by one thread, kept in memory until the run ends.
struct SpanLog {
  std::vector<Span> spans;

  int32_t Add(uint64_t id, int32_t parent, SpanName name, double start,
              double end) {
    spans.push_back(Span{id, parent, name, start, end});
    return static_cast<int32_t>(spans.size() - 1);
  }
};

// Appends `logs` as [[id, name, start, end, parent], ...] with parents
// rebased to indexes into the merged array.
void AppendSpans(std::string& out, const std::vector<const SpanLog*>& logs);

// --- The timed execution environment --------------------------------------

// Forwards every call to a ThreadExecutionEnv and times the calls that
// block: lock waits (as spans; the lock manager counts their totals) and the
// modeled sleeps (as spans and totals). Sleeps that the time scale turns
// into nothing are forwarded untimed.
class TimedEnv : public acc::ExecutionEnv {
 public:
  explicit TimedEnv(double time_scale) : inner_(time_scale), scale_(time_scale) {}

  // Child spans recorded from here on go to `log` under (`id`, `parent`);
  // a null log records totals only.
  void Attach(SpanLog* log, uint64_t id, int32_t parent) {
    log_ = log;
    id_ = id;
    parent_ = parent;
  }

  void UseServer(double seconds) override;
  void ClientDelay(double seconds) override;
  double Now() const override { return inner_.Now(); }
  void PrepareWait(lock::TxnId txn) override { inner_.PrepareWait(txn); }
  bool AwaitLock(lock::TxnId txn) override;
  acc::WaitVerdict AwaitLockUntil(lock::TxnId txn, double deadline) override;
  void DiscardWait(lock::TxnId txn) override { inner_.DiscardWait(txn); }
  double LockWaitDeadline() const override {
    return inner_.LockWaitDeadline();
  }
  void LockGranted(lock::TxnId txn) override { inner_.LockGranted(txn); }
  void LockAborted(lock::TxnId txn) override { inner_.LockAborted(txn); }

  double server_sleep_seconds = 0;
  double client_sleep_seconds = 0;

 private:
  void Record(SpanName name, double start, double end);

  runtime::ThreadExecutionEnv inner_;
  const double scale_;
  SpanLog* log_ = nullptr;
  uint64_t id_ = 0;
  int32_t parent_ = -1;
};

// --- Observations ----------------------------------------------------------

// Outcome key of one request: "OK", or "<STATUS>:<message>". The run
// script classifies keys into correct outcomes and failures.
std::string OutcomeKey(std::string_view status, std::string_view message);

// Heap bytes in use by this process (all malloc arenas plus mmapped
// blocks): what the program retains, at byte granularity. The resident set
// moves in pages and arena chunks, which on a window of a few hundred
// transactions is mostly noise.
uint64_t HeapBytes();

// User + system CPU seconds consumed by this process so far (every thread).
double CpuSeconds();

uint64_t TotalRows(const storage::Database& db);
Json RowCounts(const storage::Database& db);
Json LockStatsDelta(const lock::LockManager::Stats& before,
                    const lock::LockManager::Stats& after);
Json WalStatsDelta(const acc::Wal* wal, const acc::Wal::Stats& before);
Json Outcomes(const std::map<std::string, uint64_t>& outcomes);
void AppendNumbers(std::string& out, const std::vector<double>& values);

// Latency samples keyed by outcome, appended as {"<key>": [...], ...}.
using SampleMap = std::map<std::string, std::vector<double>>;
void AppendSampleMap(std::string& out, const SampleMap& samples);

// Writes `doc` with the extra raw members (already-serialized JSON values
// keyed by name) spliced into the top-level object.
bool WriteResult(const std::string& path, const Json& doc,
                 const std::vector<std::pair<std::string, std::string>>& raw);

int RunEmbedded(const Options& options);
int RunServed(const Options& options);

}  // namespace perfbench

#endif  // ACCDB_PERFBENCH_DRIVER_H_
