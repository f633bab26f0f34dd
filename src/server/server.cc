#include "server/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/json.h"
#include "runtime/thread_env.h"
#include "tpcc/input.h"

namespace accdb::server {

namespace {

// Per-shard socket read buffer: one drain per readable wakeup decodes every
// complete frame in a single pass, so the buffer is sized for batches.
constexpr size_t kReadBufferBytes = 64 * 1024;

net::ExecResponse MakeReject(uint64_t request_id, net::WireStatus status,
                             std::string message) {
  net::ExecResponse resp;
  resp.request_id = request_id;
  resp.status = status;
  resp.message = std::move(message);
  return resp;
}

// Engine knobs implied by the serving context: worker threads draw txn ids
// in per-thread blocks.
tpcc::WorkloadConfig ServerWorkload(const ServerOptions& options) {
  tpcc::WorkloadConfig workload = options.workload;
  workload.engine.txn_id_block = options.txn_id_block;
  workload.engine.wal.path = options.wal_path;
  workload.engine.wal.group_commit_us = options.group_commit_us;
  return workload;
}

}  // namespace

AccdbServer::AccdbServer(const ServerOptions& options)
    : options_(options), system_(ServerWorkload(options)) {
  options_.loop_shards = std::max(1, options_.loop_shards);
}

AccdbServer::~AccdbServer() { Shutdown(); }

double AccdbServer::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status AccdbServer::RecoverFromWal() {
  if (recovered_) return Status::Ok();
  recovered_ = true;
  acc::Engine& engine = system_.engine();
  if (options_.wal_path.empty()) return Status::Ok();
  // The engine opened (and scanned) the WAL in its constructor.
  ACCDB_RETURN_IF_ERROR(engine.wal_status());
  acc::Wal* wal = engine.wal();
  if (wal->recovered().empty()) return Status::Ok();

  // Redo pass: the database was just deterministically reloaded from the
  // seed, so replaying every logged write in LSN order reconstructs the
  // exact durable state of the crashed process.
  ACCDB_RETURN_IF_ERROR(acc::ReplayWal(system_.database(), wal->recovered()));

  // Compensation pass (§3.4): every transaction with durable forward steps
  // but no commit/compensated record runs its compensating step, which logs
  // (and forces) a kCompensated record through the engine's live WAL.
  acc::CompensatorRegistry registry;
  tpcc::RegisterTpccCompensators(&system_.db(), &registry);
  acc::ImmediateEnv env;
  recovery_report_ =
      acc::RunRecovery(engine, wal->recovered(), registry, env);
  if (!recovery_report_.clean()) {
    return Status::Internal(
        "recovery not clean: " + std::to_string(recovery_report_.failed) +
        " failed, " + std::to_string(recovery_report_.missing_compensator) +
        " missing compensators" +
        (recovery_report_.first_error.ok()
             ? std::string()
             : "; first error: " + recovery_report_.first_error.ToString()));
  }
  return Status::Ok();
}

Status AccdbServer::Start() {
  if (started_) return Status::Internal("server already started");
  ACCDB_RETURN_IF_ERROR(RecoverFromWal());

  shards_.clear();
  for (int si = 0; si < options_.loop_shards; ++si) {
    auto shard = std::make_unique<LoopShard>();
    shard->loop = std::make_unique<net::EventLoop>();
    ACCDB_RETURN_IF_ERROR(shard->loop->status());
    shard->loop->SetPostEventHook([this, si] { FlushDirty(si); });
    shards_.push_back(std::move(shard));
  }

  auto listener = net::ListenLoopback(options_.port, options_.listen_backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  auto port = net::LocalPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = *port;

  // Shard 0 is the acceptor: its loop owns the listener and hands accepted
  // connections round-robin to every shard (including itself).
  shards_[0]->loop->Add(listener_.get(), [this](uint32_t events) {
    if (events & net::EventLoop::kReadable) OnListenerReadable();
  });

  workers_.reserve(options_.workers);
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  for (auto& shard : shards_) {
    net::EventLoop* loop = shard->loop.get();
    shard->thread = std::thread([loop] { loop->Run(); });
  }
  started_ = true;
  return Status::Ok();
}

void AccdbServer::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  // 1. Refuse new work: every EXEC request from here on gets SHUTTING_DOWN.
  {
    std::lock_guard<std::mutex> guard(queue_mu_);
    draining_ = true;
  }
  // 2. Stop accepting connections (on the acceptor's thread, which owns
  //    the fd).
  shards_[0]->loop->Defer([this] {
    if (listener_.valid()) {
      shards_[0]->loop->Remove(listener_.get());
      listener_.Reset();
    }
  });
  // 3. Wait until every admitted request has finished executing. Workers
  //    post each response to its loop shard *before* dropping in_flight_,
  //    so at quiescence all responses are already queued behind this point.
  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    drain_cv_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // 4. Flush: each loop processes Stop() only after all already-deferred
  //    response deliveries and one final post-event flush pass, so every
  //    queued response is written out before the loop exits.
  for (auto& shard : shards_) shard->loop->Stop();
  for (auto& shard : shards_) shard->thread.join();
  // Loops are dead; safe to tear down sessions from this thread.
  for (auto& shard : shards_) shard->sessions.clear();
}

// ---------------------------------------------------------------------------
// Loop-shard threads.

void AccdbServer::OnListenerReadable() {
  // Drain the whole backlog: accept4 until EAGAIN, not one connection per
  // wakeup — an open-loop load generator connects in bursts.
  for (;;) {
    net::ScopedFd accepted;
    net::IoResult r = net::AcceptOne(listener_.get(), &accepted);
    if (r != net::IoResult::kOk) return;  // Drained (or resource-exhausted).
    net::SetNoDelay(accepted.get());

    // Ids are assigned here, on the acceptor thread (the only writer of
    // next_session_id_), and are unique process-wide.
    const uint64_t id = next_session_id_++;
    const int target = next_shard_;
    next_shard_ = (next_shard_ + 1) % static_cast<int>(shards_.size());
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      ++stats_.connections_accepted;
    }
    if (target == 0) {
      InstallSession(0, id, accepted.Release());
    } else {
      // Hand the raw fd across threads; the target shard re-wraps it. The
      // loop drains all deferred tasks before honoring Stop, so the
      // session is installed (and later torn down) on the target shard.
      const int raw_fd = accepted.Release();
      shards_[target]->loop->Defer(
          [this, target, id, raw_fd] { InstallSession(target, id, raw_fd); });
    }
  }
}

void AccdbServer::InstallSession(int si, uint64_t id, int raw_fd) {
  LoopShard& shard = *shards_[si];
  Session& session = shard.sessions[id];
  session.id = id;
  session.shard = si;
  session.fd = net::ScopedFd(raw_fd);
  shard.loop->Add(session.fd.get(), [this, si, id](uint32_t events) {
    OnSessionEvent(si, id, events);
  });
}

void AccdbServer::OnSessionEvent(int si, uint64_t session_id,
                                 uint32_t events) {
  LoopShard& shard = *shards_[si];
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) return;
  Session& session = it->second;

  if (events & net::EventLoop::kError) {
    CloseSession(si, session_id);
    return;
  }
  if (events & net::EventLoop::kWritable) {
    FlushTx(session);
    if (shard.sessions.count(session_id) == 0) return;  // Write error.
  }
  if ((events & net::EventLoop::kReadable) == 0) return;

  // Drain the socket into the decoder in one pass per wakeup.
  char buf[kReadBufferBytes];
  for (;;) {
    size_t n = 0;
    net::IoResult r = net::ReadSome(session.fd.get(), buf, sizeof(buf), &n);
    if (r == net::IoResult::kWouldBlock) break;
    if (r != net::IoResult::kOk) {  // EOF or reset: the client is gone.
      CloseSession(si, session_id);
      return;
    }
    session.decoder.Append(std::string_view(buf, n));
  }

  // Decode every complete frame in a single pass; responses produced here
  // (rejects, stats) coalesce in the session buffer and flush once in the
  // post-event hook.
  for (;;) {
    net::Message msg;
    switch (session.decoder.Next(&msg)) {
      case net::DecodeResult::kMessage:
        HandleMessage(si, session, msg);
        if (shard.sessions.count(session_id) == 0) return;  // Killed.
        continue;
      case net::DecodeResult::kNeedMore:
        return;
      case net::DecodeResult::kError: {
        {
          std::lock_guard<std::mutex> guard(stats_mu_);
          ++stats_.malformed_frames;
        }
        // A malformed frame is connection-fatal, but only for its own
        // session: in-flight pipelined requests still execute and their
        // responses are dropped at delivery.
        CloseSession(si, session_id);
        return;
      }
    }
  }
}

void AccdbServer::HandleMessage(int si, Session& session,
                                const net::Message& msg) {
  // Every request — admitted, rejected, or stats — consumes one sequence
  // number; responses are delivered strictly in sequence order, so a
  // pipeline of requests answered by different workers still reads back in
  // request order.
  if (const auto* req = std::get_if<net::ExecRequest>(&msg)) {
    const uint64_t seq = session.next_arrival_seq++;
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      ++stats_.requests_received;
    }
    bool admitted = false;
    bool shutting_down = false;
    {
      std::lock_guard<std::mutex> guard(queue_mu_);
      if (draining_) {
        shutting_down = true;
      } else if (queue_.size() < options_.max_queue) {
        queue_.push_back(Work{session.id, si, seq, *req, NowSeconds()});
        admitted = true;
        std::lock_guard<std::mutex> stats_guard(stats_mu_);
        ++stats_.requests_admitted;
        if (queue_.size() > stats_.queue_depth_peak) {
          stats_.queue_depth_peak = queue_.size();
        }
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
      return;
    }
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      if (shutting_down) {
        ++stats_.shutdown_rejects;
      } else {
        ++stats_.admission_rejects;
      }
    }
    QueueResponse(
        si, session, seq,
        net::EncodeFrame(net::Message(MakeReject(
            req->request_id,
            shutting_down ? net::WireStatus::kShuttingDown
                          : net::WireStatus::kOverloaded,
            shutting_down ? "server draining" : "request queue full"))));
    return;
  }
  if (const auto* req = std::get_if<net::StatsRequest>(&msg)) {
    const uint64_t seq = session.next_arrival_seq++;
    {
      std::lock_guard<std::mutex> guard(stats_mu_);
      ++stats_.stats_requests;
    }
    net::StatsResponse resp;
    resp.request_id = req->request_id;
    resp.json = StatsJson();
    QueueResponse(si, session, seq, net::EncodeFrame(net::Message(resp)));
    return;
  }
  // A client sending response kinds is violating the protocol.
  {
    std::lock_guard<std::mutex> guard(stats_mu_);
    ++stats_.malformed_frames;
  }
  CloseSession(si, session.id);
}

void AccdbServer::QueueResponse(int si, Session& session, uint64_t seq,
                                std::string frame) {
  if (seq == session.next_send_seq) {
    session.tx += frame;
    ++session.next_send_seq;
    // Release any parked successors that are now in order.
    auto it = session.parked.begin();
    while (it != session.parked.end() && it->first == session.next_send_seq) {
      session.tx += it->second;
      ++session.next_send_seq;
      it = session.parked.erase(it);
    }
  } else {
    session.parked.emplace(seq, std::move(frame));
  }
  MarkDirty(si, session);
}

void AccdbServer::MarkDirty(int si, Session& session) {
  if (session.dirty) return;
  session.dirty = true;
  shards_[si]->flush_list.push_back(session.id);
}

void AccdbServer::FlushDirty(int si) {
  LoopShard& shard = *shards_[si];
  // FlushTx may close a session (erasing it) but never dirties new ones,
  // so one linear pass over a moved-out list is safe.
  std::vector<uint64_t> list = std::move(shard.flush_list);
  shard.flush_list.clear();
  for (uint64_t id : list) {
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) continue;
    it->second.dirty = false;
    if (!it->second.tx.empty()) FlushTx(it->second);
  }
}

void AccdbServer::FlushTx(Session& session) {
  net::EventLoop& loop = *shards_[session.shard]->loop;
  while (!session.tx.empty()) {
    size_t n = 0;
    net::IoResult r =
        net::WriteSome(session.fd.get(), session.tx.data(), session.tx.size(),
                       &n);
    if (r == net::IoResult::kOk) {
      session.tx.erase(0, n);
      continue;
    }
    if (r == net::IoResult::kWouldBlock) {
      loop.SetWriteInterest(session.fd.get(), true);
      return;
    }
    CloseSession(session.shard, session.id);  // Peer reset: droppable.
    return;
  }
  loop.SetWriteInterest(session.fd.get(), false);
}

void AccdbServer::CloseSession(int si, uint64_t session_id) {
  LoopShard& shard = *shards_[si];
  auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) return;
  shard.loop->Remove(it->second.fd.get());
  shard.sessions.erase(it);
  std::lock_guard<std::mutex> guard(stats_mu_);
  ++stats_.connections_closed;
}

void AccdbServer::DeliverResponse(int si, uint64_t session_id, uint64_t seq,
                                  std::string frame) {
  LoopShard& shard = *shards_[si];
  auto it = shard.sessions.find(session_id);
  {
    std::lock_guard<std::mutex> guard(stats_mu_);
    if (it == shard.sessions.end()) {
      // The connection died while its transaction ran; the execution still
      // completed (commit or compensation), only the response is lost.
      ++stats_.responses_dropped;
      return;
    }
    ++stats_.responses_sent;
  }
  QueueResponse(si, it->second, seq, std::move(frame));
}

// ---------------------------------------------------------------------------
// Worker threads.

void AccdbServer::WorkerLoop(int worker_index) {
  // Per-worker execution state, mirroring the real-thread runner: one env
  // and one input stream per OS thread, with the worker's home-warehouse
  // binding applied to the inputs it generates.
  runtime::ThreadExecutionEnv env(options_.cost_scale);
  tpcc::InputGenConfig inputs = options_.workload.inputs;
  const int64_t warehouses = inputs.scale.warehouses;
  if (options_.warehouse_affinity && warehouses > 1) {
    inputs.home_warehouse = (worker_index % warehouses) + 1;
  }
  tpcc::InputGenerator gen(
      inputs,
      options_.workload.seed * 7919 + 1000003ULL * (worker_index + 1));
  const acc::ExecMode mode = options_.workload.mode;

  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_workers_ and drained.
      work = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    net::ExecResponse resp;
    resp.request_id = work.request.request_id;
    // Queueing share of the in-server sojourn: admission to dequeue. The
    // execution share rides separately in server_seconds, so clients can
    // split tail latency into queueing vs service.
    const double dequeued = NowSeconds();
    resp.queue_seconds = dequeued - work.arrival;

    uint32_t deadline_ms = work.request.deadline_ms != 0
                               ? work.request.deadline_ms
                               : options_.default_deadline_ms;
    const double deadline =
        deadline_ms != 0 ? work.arrival + deadline_ms / 1000.0
                         : std::numeric_limits<double>::infinity();
    if (dequeued >= deadline) {
      // The budget expired while the request sat in the queue: don't start.
      resp.status = net::WireStatus::kDeadlineExceeded;
      resp.message = "deadline expired in queue";
      std::lock_guard<std::mutex> guard(stats_mu_);
      ++stats_.deadline_exceeded_queue;
    } else {
      const tpcc::TxnType type =
          static_cast<tpcc::TxnType>(work.request.txn_type);
      env.set_lock_wait_deadline(deadline);
      const double start = env.Now();
      acc::ExecResult exec = tpcc::RunOneTpccTxn(
          &system_.db(), &system_.engine(), gen, type,
          options_.workload.compute_seconds, options_.workload.granularity,
          env, mode);
      env.clear_lock_wait_deadline();
      resp.server_seconds = env.Now() - start;
      resp.status = net::ToWireStatus(exec.status);
      resp.compensated = exec.compensated ? 1 : 0;
      resp.step_deadlock_retries =
          static_cast<uint32_t>(exec.step_deadlock_retries);
      resp.txn_restarts = static_cast<uint32_t>(exec.txn_restarts);
      if (!exec.status.ok()) resp.message = std::string(exec.status.message());
      std::lock_guard<std::mutex> guard(stats_mu_);
      switch (resp.status) {
        case net::WireStatus::kOk:
          ++stats_.committed;
          break;
        case net::WireStatus::kAborted:
          ++stats_.aborted;
          break;
        case net::WireStatus::kDeadlineExceeded:
          ++stats_.deadline_exceeded_exec;
          break;
        default:
          ++stats_.internal_errors;
          break;
      }
      if (exec.compensated) ++stats_.compensated;
    }

    // Post the response before dropping in_flight_: once Shutdown observes
    // quiescence, every response is already queued ahead of the loop Stop.
    std::string frame = net::EncodeFrame(net::Message(resp));
    const uint64_t session_id = work.session_id;
    const uint64_t seq = work.seq;
    const int si = work.shard;
    shards_[si]->loop->Defer(
        [this, si, session_id, seq, frame = std::move(frame)]() mutable {
          DeliverResponse(si, session_id, seq, std::move(frame));
        });
    {
      std::lock_guard<std::mutex> guard(queue_mu_);
      --in_flight_;
    }
    drain_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Stats.

ServerStats AccdbServer::StatsSnapshot() const {
  std::lock_guard<std::mutex> guard(stats_mu_);
  return stats_;
}

std::string AccdbServer::StatsJson() const {
  ServerStats s = StatsSnapshot();
  size_t queue_depth = 0;
  int in_flight = 0;
  {
    std::lock_guard<std::mutex> guard(queue_mu_);
    queue_depth = queue_.size();
    in_flight = in_flight_;
  }
  Json j = Json::Object();
  j["loop_shards"] = Json(static_cast<uint64_t>(options_.loop_shards));
  j["connections_accepted"] = Json(s.connections_accepted);
  j["connections_closed"] = Json(s.connections_closed);
  j["malformed_frames"] = Json(s.malformed_frames);
  j["requests_received"] = Json(s.requests_received);
  j["requests_admitted"] = Json(s.requests_admitted);
  j["admission_rejects"] = Json(s.admission_rejects);
  j["shutdown_rejects"] = Json(s.shutdown_rejects);
  j["stats_requests"] = Json(s.stats_requests);
  j["committed"] = Json(s.committed);
  j["aborted"] = Json(s.aborted);
  j["compensated"] = Json(s.compensated);
  j["deadline_exceeded_queue"] = Json(s.deadline_exceeded_queue);
  j["deadline_exceeded_exec"] = Json(s.deadline_exceeded_exec);
  j["internal_errors"] = Json(s.internal_errors);
  j["responses_sent"] = Json(s.responses_sent);
  j["responses_dropped"] = Json(s.responses_dropped);
  j["queue_depth_peak"] = Json(s.queue_depth_peak);
  j["queue_depth"] = Json(static_cast<uint64_t>(queue_depth));
  j["in_flight"] = Json(static_cast<uint64_t>(in_flight));
  {
    acc::EngineMetrics em = system_.engine().MetricsSnapshot();
    j["assertions_audited"] = Json(em.assertions_audited);
    j["assertion_violations"] = Json(em.assertion_violations);
  }
  if (const acc::Wal* wal = system_.engine().wal()) {
    acc::Wal::Stats ws = wal->StatsSnapshot();
    j["wal_appends"] = Json(ws.appends);
    j["wal_fsyncs"] = Json(ws.fsyncs);
    j["wal_bytes_written"] = Json(ws.bytes_written);
    j["wal_durable_lsn"] = Json(wal->durable_lsn());
    j["recovery_in_flight"] = Json(uint64_t(recovery_report_.in_flight));
    j["recovery_compensated"] = Json(uint64_t(recovery_report_.compensated));
    j["recovery_failed"] = Json(uint64_t(recovery_report_.failed));
  }
  return j.Dump();
}

}  // namespace accdb::server
