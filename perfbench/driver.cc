// Benchmark driver entry point and the helpers shared by the embedded and
// served windows. Usage (perfbench/run.py builds the flags from
// perfbench/workloads.json):
//
//   perfbench_driver --kind=embedded|served --mode=acc|2pl|occ|mvcc
//       --warehouses=N --threads=N --cost-scale=F --seconds=S
//       --seed=N [--trace] [--audit] [--setup-only] --out=FILE
//       [--rate=R --wal=FILE]

#include "driver.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace perfbench {

tpcc::WorkloadConfig MakeWorkloadConfig(const Options& options) {
  tpcc::WorkloadConfig config;
  config.seed = options.seed;
  config.mode = options.mode;
  config.compute_seconds = 0;
  config.mean_think_seconds = 0;
  config.keying_seconds = 0;
  config.inputs.scale = tpcc::ScaleConfig::Experiment();
  config.inputs.scale.warehouses = options.warehouses;
  config.inputs.skew_districts = true;
  config.inputs.hot_districts = 1;
  config.inputs.hot_fraction = 0.5;
  // Statement costs of the repository's standard configuration (the
  // calibration behind the paper's figures, EXPERIMENTS.md).
  config.engine.costs.read_statement = 0.0015;
  config.engine.costs.write_statement = 0.002;
  config.engine.costs.acc_lock_overhead = 0.00006;
  config.engine.costs.acc_step_end_overhead = 0.0007;
  config.engine.costs.acc_init_overhead = 0.0003;
  config.engine.audit_assertions = options.audit;
  config.engine.txn_id_block = acc::TxnIdAllocator::kDefaultBlock;
  return config;
}

TypeDeck::TypeDeck(const tpcc::InputGenConfig& inputs, uint64_t seed)
    : rng_(seed) {
  double total = 0;
  for (double w : inputs.mix) total += w;
  for (int t = 0; t < tpcc::kNumTxnTypes; ++t) {
    const double share = inputs.mix[t] / total * kCards;
    const long cards = std::lround(share);
    if (std::fabs(share - static_cast<double>(cards)) > 1e-9) {
      std::fprintf(stderr, "perfbench_driver: mix share %g%% of type %d is "
                   "not a whole percentage\n", share, t);
      std::abort();
    }
    cards_.insert(cards_.end(), cards, static_cast<tpcc::TxnType>(t));
  }
  next_ = cards_.size();
}

tpcc::TxnType TypeDeck::Next() {
  if (next_ == cards_.size()) {
    for (size_t i = cards_.size() - 1; i > 0; --i) {
      std::swap(cards_[i], cards_[rng_.UniformInt(0, static_cast<int64_t>(i))]);
    }
    next_ = 0;
  }
  return cards_[next_++];
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kTxn: return "txn";
    case SpanName::kLockWait: return "lock_wait";
    case SpanName::kServerSleep: return "server_sleep";
    case SpanName::kClientSleep: return "client_sleep";
    case SpanName::kRequest: return "request";
    case SpanName::kSendLate: return "send_late";
    case SpanName::kWire: return "wire";
    case SpanName::kQueue: return "queue";
    case SpanName::kExec: return "exec";
    case SpanName::kRecovery: return "recovery";
    case SpanName::kLoad: return "load";
    case SpanName::kReplay: return "replay";
  }
  return "?";
}

void AppendSpans(std::string& out, const std::vector<const SpanLog*>& logs) {
  out += '[';
  size_t base = 0;
  bool first = true;
  char buf[160];
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans) {
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base + s.parent);
      std::snprintf(buf, sizeof(buf), "%s[%llu,\"%s\",%.9f,%.9f,%lld]",
                    first ? "" : ",", static_cast<unsigned long long>(s.id),
                    SpanNameString(s.name), s.start, s.end, parent);
      out += buf;
      first = false;
    }
    base += log->spans.size();
  }
  out += ']';
}

// --- TimedEnv ----------------------------------------------------------------

void TimedEnv::Record(SpanName name, double start, double end) {
  if (log_ != nullptr) log_->Add(id_, parent_, name, start, end);
}

void TimedEnv::UseServer(double seconds) {
  if (seconds * scale_ <= 0) return inner_.UseServer(seconds);
  const double start = inner_.Now();
  inner_.UseServer(seconds);
  const double end = inner_.Now();
  server_sleep_seconds += end - start;
  Record(SpanName::kServerSleep, start, end);
}

void TimedEnv::ClientDelay(double seconds) {
  if (seconds * scale_ <= 0) return inner_.ClientDelay(seconds);
  const double start = inner_.Now();
  inner_.ClientDelay(seconds);
  const double end = inner_.Now();
  client_sleep_seconds += end - start;
  Record(SpanName::kClientSleep, start, end);
}

bool TimedEnv::AwaitLock(lock::TxnId txn) {
  const double start = inner_.Now();
  const bool granted = inner_.AwaitLock(txn);
  Record(SpanName::kLockWait, start, inner_.Now());
  return granted;
}

acc::WaitVerdict TimedEnv::AwaitLockUntil(lock::TxnId txn, double deadline) {
  const double start = inner_.Now();
  const acc::WaitVerdict verdict = inner_.AwaitLockUntil(txn, deadline);
  Record(SpanName::kLockWait, start, inner_.Now());
  return verdict;
}

// --- Observations --------------------------------------------------------------

std::string OutcomeKey(std::string_view status, std::string_view message) {
  if (status == "OK") return "OK";
  std::string key(status);
  key += ':';
  key += message;
  return key;
}

uint64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t TotalRows(const storage::Database& db) {
  uint64_t rows = 0;
  for (const storage::Table* table : db.AllTables()) rows += table->size();
  return rows;
}

Json RowCounts(const storage::Database& db) {
  Json counts = Json::Object();
  for (const storage::Table* table : db.AllTables()) {
    counts[table->name()] = Json(static_cast<uint64_t>(table->size()));
  }
  return counts;
}

Json LockStatsDelta(const lock::LockManager::Stats& before,
                    const lock::LockManager::Stats& after) {
  Json j = Json::Object();
  j["requests"] = Json(after.requests - before.requests);
  j["immediate_grants"] = Json(after.immediate_grants - before.immediate_grants);
  j["waits"] = Json(after.waits - before.waits);
  j["release_calls"] = Json(after.release_calls - before.release_calls);
  j["deadlock_victim_aborts"] =
      Json(after.deadlock_victim_aborts - before.deadlock_victim_aborts);
  j["conv_conv_blocks"] = Json(after.conv_conv_blocks - before.conv_conv_blocks);
  j["write_assert_blocks"] =
      Json(after.write_assert_blocks - before.write_assert_blocks);
  j["assert_write_blocks"] =
      Json(after.assert_write_blocks - before.assert_write_blocks);
  j["other_blocks"] = Json(after.other_blocks - before.other_blocks);
  // The high-water mark is not resettable from outside; it covers the run.
  j["queue_depth_max"] = Json(after.queue_depth_max);
  Json wait_seconds = Json::Object();
  for (int c = 0; c < lock::kNumWaitClasses; ++c) {
    const std::string name(
        lock::WaitClassName(static_cast<lock::WaitClass>(c)));
    wait_seconds[name] = Json(after.wait_seconds_by_class[c] -
                              before.wait_seconds_by_class[c]);
  }
  j["wait_seconds_by_class"] = std::move(wait_seconds);
  return j;
}

Json WalStatsDelta(const acc::Wal* wal, const acc::Wal::Stats& before) {
  if (wal == nullptr) return Json();
  const acc::Wal::Stats after = wal->StatsSnapshot();
  Json j = Json::Object();
  j["appends"] = Json(after.appends - before.appends);
  j["forced_waits"] = Json(after.forced_waits - before.forced_waits);
  j["fsyncs"] = Json(after.fsyncs - before.fsyncs);
  j["bytes_written"] = Json(after.bytes_written - before.bytes_written);
  return j;
}

Json Outcomes(const std::map<std::string, uint64_t>& outcomes) {
  Json j = Json::Object();
  for (const auto& [key, count] : outcomes) j[key] = Json(count);
  return j;
}

void AppendNumbers(std::string& out, const std::vector<double>& values) {
  out += '[';
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  out += ']';
}

void AppendSampleMap(std::string& out, const SampleMap& samples) {
  out += '{';
  bool first = true;
  for (const auto& [key, values] : samples) {
    if (!first) out += ',';
    first = false;
    out += Json(key).Dump() + ':';
    AppendNumbers(out, values);
  }
  out += '}';
}

bool WriteResult(const std::string& path, const Json& doc,
                 const std::vector<std::pair<std::string, std::string>>& raw) {
  std::string text = doc.Dump(0);
  // Splice the raw members in before the object's closing brace.
  text.pop_back();
  for (const auto& [key, value] : raw) {
    text += ",\"" + key + "\":" + value;
  }
  text += "}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* argv0, std::string_view bad) {
  std::fprintf(stderr, "%s: bad argument '%.*s' (see perfbench/driver.cc)\n",
               argv0, static_cast<int>(bad.size()), bad.data());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value(eq == std::string_view::npos ? ""
                                                         : arg.substr(eq + 1));
    if (key == "--kind") {
      o.kind = value;
    } else if (key == "--mode") {
      auto mode = accdb::acc::ParseExecMode(value);
      if (!mode) Usage(argv[0], arg);
      o.mode = *mode;
    } else if (key == "--warehouses") {
      o.warehouses = std::atoi(value.c_str());
    } else if (key == "--threads") {
      o.threads = std::atoi(value.c_str());
    } else if (key == "--cost-scale") {
      o.cost_scale = std::atof(value.c_str());
    } else if (key == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--trace") {
      o.trace = true;
    } else if (key == "--audit") {
      o.audit = true;
    } else if (key == "--setup-only") {
      o.setup_only = true;
    } else if (key == "--out") {
      o.out = value;
    } else if (key == "--rate") {
      o.rate = std::atof(value.c_str());
    } else if (key == "--wal") {
      o.wal = value;
    } else {
      Usage(argv[0], arg);
    }
  }
  if (o.out.empty() || o.warehouses < 1 || o.threads < 1 || o.seconds <= 0 ||
      o.rate <= 0) {
    Usage(argv[0], "--out/--warehouses/--threads/--seconds/--rate");
  }
  if (o.kind == "embedded") return perfbench::RunEmbedded(o);
  if (o.kind == "served") return perfbench::RunServed(o);
  Usage(argv[0], o.kind);
}
