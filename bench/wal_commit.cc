// WAL commit-path microbenchmark: sync-per-commit vs group commit.
//
// Hammers one Wal from OS worker threads, each looping Append + WaitDurable
// of a commit-shaped record (an end-of-step record with a serialized work
// area and a couple of redo after-images), and reports durable commits per
// second for every (threads, group-commit window) cell. The claim under
// test: with window = 0 every committer pays its own fsync, so commit rate
// is bounded by the fsync rate regardless of thread count; with window > 0
// the flusher batches all committers that arrive within the window into a
// single fsync, so commit rate scales with the batch size.
//
// Wall-clock numbers, storage-hardware-dependent; the table format and the
// BENCH_wal_commit.json report follow the bench-harness conventions.
//
// Flags (own parser, rt_tpcc style):
//   --threads=1,2,4,8          committer-thread sweep
//   --windows=0,50,100,250     group-commit window sweep, microseconds
//                              (0 = sync-per-commit)
//   --seconds=S                measured window per cell (default 1)
//   --wal-path=FILE            log file, recreated per cell
//                              (default wal_commit.tmp.wal)
//   --json=PATH | --no-json    report destination
//                              (default BENCH_wal_commit.json)

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "acc/wal.h"
#include "bench/harness.h"

namespace {

using accdb::Json;
using accdb::Status;
using accdb::acc::LogRecordType;
using accdb::acc::Wal;
using accdb::acc::WalRecord;
using accdb::storage::RowWrite;

struct Options {
  std::vector<int> threads = {1, 2, 4, 8};
  std::vector<uint32_t> windows = {0, 50, 100, 250};
  double seconds = 1.0;
  std::string wal_path = "wal_commit.tmp.wal";
  std::string json_path = "BENCH_wal_commit.json";
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads=1,2,4,8] [--windows=0,50,100,250]\n"
               "          [--seconds=S] [--wal-path=FILE]\n"
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
    } else if (ParseValue(argv[i], "--windows", &value)) {
      options.windows = ParseList<uint32_t>(value, argv[0]);
    } else if (ParseValue(argv[i], "--seconds", &value)) {
      options.seconds = std::atof(value.c_str());
    } else if (ParseValue(argv[i], "--wal-path", &value)) {
      options.wal_path = value;
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

// A record shaped like a TPC-C end-of-step force: a serialized work area and
// two redo after-images (one update, one insert), ~200 bytes framed.
WalRecord CommitShapedRecord(uint64_t txn) {
  WalRecord rec;
  rec.type = LogRecordType::kEndOfStep;
  rec.txn = txn;
  rec.step_index = 1;
  rec.work_area.assign(96, 'w');
  RowWrite update;
  update.kind = RowWrite::Kind::kUpdate;
  update.table = 3;
  update.row = txn % 4096 + 1;
  update.columns.emplace_back(2, accdb::storage::Value(int64_t{42}));
  update.columns.emplace_back(5, accdb::storage::Value(std::string("OE")));
  rec.redo.push_back(std::move(update));
  RowWrite insert;
  insert.kind = RowWrite::Kind::kInsert;
  insert.table = 7;
  insert.row = txn + 1;
  insert.row_data = {accdb::storage::Value(int64_t{1}),
                     accdb::storage::Value(3.14),
                     accdb::storage::Value(std::string("order-line"))};
  rec.redo.push_back(std::move(insert));
  return rec;
}

struct CellResult {
  int threads = 0;
  uint32_t window_us = 0;
  double seconds = 0;
  uint64_t commits = 0;
  Wal::Stats stats;

  double CommitsPerSec() const { return seconds > 0 ? commits / seconds : 0; }
  double CommitsPerFsync() const {
    return stats.fsyncs > 0 ? static_cast<double>(commits) / stats.fsyncs : 0;
  }
};

CellResult RunCell(int threads, uint32_t window_us, const Options& options) {
  ::unlink(options.wal_path.c_str());
  Wal::Options wal_options;
  wal_options.path = options.wal_path;
  wal_options.group_commit_us = window_us;
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open(wal_options, &status);
  if (!wal) {
    std::fprintf(stderr, "wal open failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total_commits{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      uint64_t commits = 0;
      uint64_t txn = static_cast<uint64_t>(w) * 1000000 + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t lsn = wal->Append(CommitShapedRecord(txn++));
        wal->WaitDurable(lsn);
        ++commits;
      }
      total_commits.fetch_add(commits);
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
  cell.window_us = window_us;
  cell.seconds = elapsed;
  cell.commits = total_commits.load();
  cell.stats = wal->StatsSnapshot();
  wal.reset();
  ::unlink(options.wal_path.c_str());
  return cell;
}

Json CellJson(const CellResult& cell) {
  Json j = Json::Object();
  j["threads"] = Json(static_cast<int64_t>(cell.threads));
  j["window_us"] = Json(static_cast<uint64_t>(cell.window_us));
  j["seconds"] = Json(cell.seconds);
  j["commits"] = Json(cell.commits);
  j["commits_per_sec"] = Json(cell.CommitsPerSec());
  j["fsyncs"] = Json(cell.stats.fsyncs);
  j["commits_per_fsync"] = Json(cell.CommitsPerFsync());
  j["appends"] = Json(cell.stats.appends);
  j["bytes_written"] = Json(cell.stats.bytes_written);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace accdb::bench;

  Options options = ParseOptions(argc, argv);
  BenchOptions report_options;
  report_options.name = "wal_commit";
  report_options.jobs = 1;
  report_options.json_path = options.json_path;
  BenchReport report(report_options);
  PrintTitle(
      "WAL commit path: sync-per-commit vs group commit (wall clock; "
      "storage-hardware-dependent, not deterministic)");

  std::printf("\ndurable commits/sec (rows: threads, cols: window us)\n");
  std::printf("%-8s", "threads");
  for (uint32_t w : options.windows) std::printf(" %10uus", w);
  std::printf("\n");

  std::vector<CellResult> cells;
  Json points = Json::Array();
  for (int threads : options.threads) {
    std::printf("%-8d", threads);
    for (uint32_t window : options.windows) {
      CellResult cell = RunCell(threads, window, options);
      std::printf(" %12.0f", cell.CommitsPerSec());
      std::fflush(stdout);
      points.Append(CellJson(cell));
      cells.push_back(cell);
    }
    std::printf("\n");
  }

  std::printf("\ncommits per fsync (batching factor)\n");
  std::printf("%-8s", "threads");
  for (uint32_t w : options.windows) std::printf(" %10uus", w);
  std::printf("\n");
  size_t i = 0;
  for (int threads : options.threads) {
    std::printf("%-8d", threads);
    for (size_t c = 0; c < options.windows.size(); ++c) {
      std::printf(" %12.1f", cells[i++].CommitsPerFsync());
    }
    std::printf("\n");
  }

  Json scenario = Json::Object();
  scenario["name"] = Json("wal_commit");
  scenario["points"] = std::move(points);
  Json scenarios = Json::Array();
  scenarios.Append(scenario);

  report.root()["environment"] = Json("real-thread");
  report.root()["measured_seconds"] = Json(options.seconds);
  report.root()["hardware_concurrency"] =
      Json(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.root()["scenarios"] = std::move(scenarios);
  report.Write();
  return 0;
}
