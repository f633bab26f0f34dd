// Served window: an in-process AccdbServer driven over loopback by one
// open-loop client thread. Arrivals are Poisson at a fixed rate, each sent
// on the connection with the fewest outstanding requests (the server answers
// a connection in order, so a request behind a slower one on its connection
// waits for it). Each request keeps its exact intended send time, actual
// send time, receive time and the server's own queue and execution times.
// With a WAL (--wal), after a graceful drain the run's WAL is recovered into
// a fresh server, which must reproduce the live database.

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "driver.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "server/server.h"
#include "tpcc/consistency.h"

namespace perfbench {

namespace {

// How long the client waits for outstanding replies after its last send;
// requests still unanswered then count as failed.
constexpr double kDrainSeconds = 10;

// The serving configuration of every served workload: one event-loop shard
// and four client connections.
constexpr int kLoopShards = 1;
constexpr int kConnections = 4;

struct Request {
  double intended = 0;
  double sent = 0;
  double received = -1;  // < 0: unanswered.
  double queue_s = 0;
  double exec_s = 0;
  uint32_t restarts = 0;
  uint32_t step_retries = 0;
  bool compensated = false;
  bool in_window = false;
  std::string outcome;
};

struct Connection {
  net::ScopedFd fd;
  net::FrameDecoder decoder;
  std::string tx;
  bool broken = false;
};

server::ServerOptions MakeServerOptions(const Options& options) {
  server::ServerOptions s;
  s.workload = MakeWorkloadConfig(options);
  s.workers = options.threads;
  s.loop_shards = kLoopShards;
  s.cost_scale = options.cost_scale;
  s.wal_path = options.wal;
  s.group_commit_us = 0;  // Sync per commit.
  return s;
}

bool Flush(Connection& c) {
  while (!c.tx.empty()) {
    size_t n = 0;
    const net::IoResult r = net::WriteSome(c.fd.get(), c.tx.data(), c.tx.size(), &n);
    if (r == net::IoResult::kWouldBlock) return true;
    if (r != net::IoResult::kOk) return false;
    c.tx.erase(0, n);
  }
  return true;
}

std::string ConservationError(const server::ServerStats& s) {
  if (s.requests_received !=
      s.requests_admitted + s.admission_rejects + s.shutdown_rejects) {
    return "received != admitted + rejects";
  }
  if (s.requests_admitted != s.committed + s.aborted +
                                 s.deadline_exceeded_queue +
                                 s.deadline_exceeded_exec + s.internal_errors) {
    return "admitted != sum of outcomes";
  }
  if (s.requests_admitted != s.responses_sent + s.responses_dropped) {
    return "admitted != sent + dropped";
  }
  return "";
}

Json ServerStatsDelta(const server::ServerStats& before,
                      const server::ServerStats& after) {
  Json j = Json::Object();
  j["admission_rejects"] = Json(after.admission_rejects - before.admission_rejects);
  j["shutdown_rejects"] = Json(after.shutdown_rejects - before.shutdown_rejects);
  j["queue_depth_peak"] = Json(after.queue_depth_peak);
  return j;
}

}  // namespace

int RunServed(const Options& options) {
  const server::ServerOptions sopts = MakeServerOptions(options);
  // Sleep precisely: the default 50 us timer slack would show up as send
  // lateness, and in the server's workers (which inherit it) would inflate
  // every modeled statement cost.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double setup_start = Now();
  auto live = std::make_unique<server::AccdbServer>(sopts);
  const Status started = live->Start();
  const double setup_s = Now() - setup_start;
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench_driver: server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  Json doc = Json::Object();
  doc["kind"] = Json("served");
  doc["setup_s"] = Json(setup_s);
  if (options.setup_only) {
    live->Shutdown();
    return WriteResult(options.out, doc, {}) ? 0 : 1;
  }

  std::vector<Connection> conns(kConnections);
  std::vector<pollfd> pfds(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    auto fd = net::ConnectLoopback(live->port());
    if (!fd.ok() || !net::SetNonBlocking(fd->get()).ok()) {
      std::fprintf(stderr, "perfbench_driver: connect failed\n");
      return 1;
    }
    conns[i].fd = std::move(*fd);
  }

  TypeDeck types(sopts.workload.inputs, options.seed * 7919 + 31);
  std::vector<Request> requests;
  std::vector<std::deque<uint64_t>> pending(kConnections);

  acc::Engine& engine = live->engine();
  const acc::Wal* wal = engine.wal();
  const double t0 = Now();
  const double window_start = t0 + kWarmupSeconds;
  const double window_end = window_start + options.seconds;
  // Poisson arrivals conditioned on their count: exactly rate x length
  // requests, placed uniformly at random, in the warmup and in the window.
  // The offered load of every run is then the same, and tput measures
  // whether the server kept up rather than how many arrivals a seed drew.
  Rng arrivals(options.seed * 7919 + 29);
  std::vector<double> schedule;
  for (const auto& [from, length] :
       {std::pair{t0, kWarmupSeconds}, std::pair{window_start, options.seconds}}) {
    const size_t count = static_cast<size_t>(std::llround(options.rate * length));
    const size_t first = schedule.size();
    for (size_t i = 0; i < count; ++i) {
      schedule.push_back(from + arrivals.UniformDouble() * length);
    }
    std::sort(schedule.begin() + first, schedule.end());
  }
  requests.reserve(schedule.size());
  size_t next_arrival = 0;
  auto next_intended = [&] {
    return next_arrival < schedule.size() ? schedule[next_arrival]
                                          : std::numeric_limits<double>::infinity();
  };
  bool window_open = false;
  server::ServerStats server_before;
  uint64_t steps_before = 0;
  lock::LockManager::Stats lock_before;
  acc::Wal::Stats wal_before;
  uint64_t rows_before = 0, heap_before = 0;
  double cpu_before = 0;
  size_t outstanding = 0;
  std::string transport_error;
  double drain_deadline = std::numeric_limits<double>::infinity();

  for (;;) {
    double now = Now();
    if (!window_open && now >= window_start) {
      window_open = true;
      server_before = live->StatsSnapshot();
      steps_before = engine.MetricsSnapshot().step_latency.count();
      lock_before = engine.lock_manager().StatsSnapshot();
      if (wal != nullptr) wal_before = wal->StatsSnapshot();
      rows_before = TotalRows(live->system().database());
      heap_before = HeapBytes();
      cpu_before = CpuSeconds();
      now = Now();
    }
    while (next_intended() <= now) {
      const uint64_t id = requests.size();
      Request& req = requests.emplace_back();
      req.intended = schedule[next_arrival++];
      req.in_window = req.intended >= window_start;
      size_t ci = 0;
      for (size_t i = 1; i < conns.size(); ++i) {
        if (pending[i].size() < pending[ci].size()) ci = i;
      }
      Connection& c = conns[ci];
      net::ExecRequest exec;
      exec.request_id = id;
      exec.txn_type = static_cast<uint8_t>(types.Next());
      c.tx += net::EncodeFrame(net::Message(exec));
      req.sent = Now();
      if (!c.broken && !Flush(c)) c.broken = true;
      pending[ci].push_back(id);
      ++outstanding;
    }
    const bool sending = next_arrival < schedule.size();
    if (!sending && !std::isfinite(drain_deadline)) {
      drain_deadline = window_end + kDrainSeconds;
    }
    if (outstanding == 0 && !sending) break;
    const double until = sending ? next_intended() : drain_deadline;
    if (now >= drain_deadline) break;

    for (int i = 0; i < kConnections; ++i) {
      pfds[i].fd = conns[i].broken ? -1 : conns[i].fd.get();
      pfds[i].events = POLLIN | (conns[i].tx.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    const double wait = std::max(0.0, until - Now());
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (int i = 0; i < kConnections; ++i) {
      Connection& c = conns[i];
      if (pfds[i].revents == 0 || c.broken) continue;
      if ((pfds[i].revents & POLLOUT) && !Flush(c)) c.broken = true;
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[64 * 1024];
      for (;;) {
        size_t n = 0;
        const net::IoResult r = net::ReadSome(c.fd.get(), buf, sizeof(buf), &n);
        if (r == net::IoResult::kWouldBlock) break;
        if (r != net::IoResult::kOk) {
          c.broken = true;
          transport_error = "connection lost";
          break;
        }
        c.decoder.Append(std::string_view(buf, n));
      }
      const double received = Now();
      net::Message msg;
      net::DecodeResult d;
      while ((d = c.decoder.Next(&msg)) == net::DecodeResult::kMessage) {
        const auto* resp = std::get_if<net::ExecResponse>(&msg);
        if (resp == nullptr || pending[i].empty() ||
            pending[i].front() != resp->request_id) {
          c.broken = true;
          transport_error = "out-of-order or unexpected response";
          break;
        }
        pending[i].pop_front();
        --outstanding;
        Request& req = requests[resp->request_id];
        req.received = received;
        req.queue_s = resp->queue_seconds;
        req.exec_s = resp->server_seconds;
        req.restarts = resp->txn_restarts;
        req.step_retries = resp->step_deadlock_retries;
        req.compensated = resp->compensated != 0;
        req.outcome =
            OutcomeKey(net::WireStatusName(resp->status), resp->message);
      }
      if (d == net::DecodeResult::kError) {
        c.broken = true;
        transport_error = "malformed response";
      }
    }
  }

  const double gave_up = Now();
  const double cpu_s = CpuSeconds() - cpu_before;
  const uint64_t heap_after = HeapBytes();
  const uint64_t rows_after = TotalRows(live->system().database());
  // Steps (forward and compensating) the engine completed: the wire does
  // not report them per request.
  const uint64_t steps =
      engine.MetricsSnapshot().step_latency.count() - steps_before;
  const lock::LockManager::Stats lock_after =
      engine.lock_manager().StatsSnapshot();
  Json wal_delta = WalStatsDelta(wal, wal_before);
  const server::ServerStats server_mid = live->StatsSnapshot();
  live->Shutdown();
  conns.clear();
  const server::ServerStats server_after = live->StatsSnapshot();
  const acc::EngineMetrics metrics = engine.MetricsSnapshot();
  const std::string conservation = ConservationError(server_after);
  const bool strict = server_after.compensated == 0;
  const tpcc::ConsistencyReport live_check =
      tpcc::CheckConsistency(live->system().db(), strict);
  const Json live_rows = RowCounts(live->system().database());
  live.reset();  // Closes the WAL.

  // Recovery: a fresh server reloads from the seed and replays the log.
  Json recovery = Json::Object();
  double rec_start = 0, rec_loaded = 0, rec_end = 0;
  if (!options.wal.empty()) {
    rec_start = Now();
    auto recovered = std::make_unique<server::AccdbServer>(sopts);
    rec_loaded = Now();
    const Status status = recovered->RecoverFromWal();
    rec_end = Now();
    const acc::RecoveryReport& report = recovered->recovery_report();
    const tpcc::ConsistencyReport check =
        tpcc::CheckConsistency(recovered->system().db(), strict);
    const Json rows = RowCounts(recovered->system().database());
    recovery["s"] = Json(rec_end - rec_start);
    recovery["load_s"] = Json(rec_loaded - rec_start);
    recovery["replay_s"] = Json(rec_end - rec_loaded);
    recovery["ok"] = Json(status.ok() && report.clean());
    recovery["error"] = Json(status.ok() ? std::string() : status.ToString());
    recovery["records"] = Json(static_cast<uint64_t>(
        recovered->engine().wal() ? recovered->engine().wal()->recovered().size()
                                  : 0));
    recovery["in_flight"] = Json(static_cast<int64_t>(report.in_flight));
    recovery["compensated"] = Json(static_cast<int64_t>(report.compensated));
    recovery["rows_match"] = Json(rows.Dump() == live_rows.Dump());
    recovery["consistent"] = Json(check.ok);
    recovery["first_violation"] =
        Json(check.ok ? std::string() : check.violations[0]);
  }

  // Per-request samples of every request intended in the window, keyed by
  // intended send time; an unanswered one waited until the client gave up.
  std::map<std::string, uint64_t> outcomes;
  SampleMap latency, intended;
  std::vector<double> queue, exec, wire, late;
  uint64_t restarts = 0, step_retries = 0, compensated = 0;
  for (const Request& req : requests) {
    if (!req.in_window) continue;
    if (req.received < 0) {
      const std::string key = transport_error.empty()
                                  ? "UNANSWERED:"
                                  : "TRANSPORT:" + transport_error;
      ++outcomes[key];
      latency[key].push_back(gave_up - req.intended);
      intended[key].push_back(req.intended - window_start);
      continue;
    }
    ++outcomes[req.outcome];
    latency[req.outcome].push_back(req.received - req.intended);
    intended[req.outcome].push_back(req.intended - window_start);
    restarts += req.restarts;
    step_retries += req.step_retries;
    compensated += req.compensated ? 1 : 0;
    queue.push_back(req.queue_s);
    exec.push_back(req.exec_s);
    wire.push_back(req.received - req.sent - req.queue_s - req.exec_s);
    late.push_back(req.sent - req.intended);
  }

  doc["window_s"] = Json(window_end - window_start);
  doc["cpu_s"] = Json(cpu_s);
  doc["offered_rate"] = Json(options.rate);
  doc["heap_before"] = Json(heap_before);
  doc["heap_after"] = Json(heap_after);
  doc["rows_before"] = Json(rows_before);
  doc["rows_after"] = Json(rows_after);
  doc["outcomes"] = Outcomes(outcomes);
  Json exec_counts = Json::Object();
  exec_counts["steps"] = Json(steps);
  exec_counts["restarts"] = Json(restarts);
  exec_counts["step_retries"] = Json(step_retries);
  exec_counts["compensated"] = Json(compensated);
  doc["exec"] = std::move(exec_counts);
  doc["lock"] = LockStatsDelta(lock_before, lock_after);
  doc["wal"] = std::move(wal_delta);
  doc["server"] = ServerStatsDelta(server_before, server_mid);
  Json conserved = Json::Object();
  conserved["ok"] = Json(conservation.empty());
  conserved["why"] = Json(conservation);
  doc["conservation"] = std::move(conserved);
  Json audit = Json::Object();
  audit["enabled"] = Json(options.audit);
  audit["audited"] = Json(metrics.assertions_audited);
  audit["violations"] = Json(metrics.assertion_violations);
  audit["first_violation"] = Json(metrics.first_assertion_violation);
  doc["audit"] = std::move(audit);
  Json check = Json::Object();
  check["ok"] = Json(live_check.ok);
  check["strict"] = Json(strict);
  check["first_violation"] =
      Json(live_check.ok ? std::string() : live_check.violations[0]);
  doc["consistency"] = std::move(check);
  doc["recovery"] = std::move(recovery);

  std::string latency_json, start_json;
  AppendSampleMap(latency_json, latency);
  AppendSampleMap(start_json, intended);
  std::vector<std::pair<std::string, std::string>> raw = {
      {"latency_s", std::move(latency_json)},
      {"start_s", std::move(start_json)}};
  for (auto& [name, values] :
       {std::pair{"queue_s", &queue},
        std::pair{"exec_s", &exec}, std::pair{"wire_s", &wire},
        std::pair{"late_s", &late}}) {
    std::string text;
    AppendNumbers(text, *values);
    raw.emplace_back(name, std::move(text));
  }
  if (options.trace) {
    // The server reports its queue and execution times as durations, so
    // those spans are placed inside the request: send lateness, then the
    // wire time split evenly around queue + exec. The wire is what remains
    // of the client's round trip; should the server report more time than
    // that round trip, queue + exec stick out of the request and
    // trace.coverage exceeds 1.
    SpanLog log;
    for (size_t id = 0; id < requests.size(); ++id) {
      const Request& req = requests[id];
      if (!req.in_window || req.received < 0) continue;
      const int32_t root = log.Add(id, -1, SpanName::kRequest, req.intended,
                                   req.received);
      log.Add(id, root, SpanName::kSendLate, req.intended, req.sent);
      const double wire_s =
          std::max(0.0, req.received - req.sent - req.queue_s - req.exec_s);
      double t = req.sent;
      log.Add(id, root, SpanName::kWire, t, t + wire_s / 2);
      t += wire_s / 2;
      log.Add(id, root, SpanName::kQueue, t, t + req.queue_s);
      t += req.queue_s;
      log.Add(id, root, SpanName::kExec, t, t + req.exec_s);
      t += req.exec_s;
      log.Add(id, root, SpanName::kWire, t, std::max(t, req.received));
    }
    if (!options.wal.empty()) {
      const uint64_t id = requests.size();
      const int32_t root =
          log.Add(id, -1, SpanName::kRecovery, rec_start, rec_end);
      log.Add(id, root, SpanName::kLoad, rec_start, rec_loaded);
      log.Add(id, root, SpanName::kReplay, rec_loaded, rec_end);
    }
    std::string spans;
    AppendSpans(spans, {&log});
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
