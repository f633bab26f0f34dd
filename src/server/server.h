// AccdbServer: the network serving layer over the concurrency-control
// engine. N sharded epoll event loops own the per-connection sessions
// (framing, admission, response writes) — the acceptor (loop shard 0)
// distributes new connections round-robin across shards, and each shard
// owns its sessions lock-free exactly as the single loop did. A pool of
// worker threads executes admitted TPC-C transactions through the same
// TpccSystem / RunOneTpccTxn / ThreadExecutionEnv path as the real-thread
// runner. Robustness machinery:
//
//   * request pipelining: a session may have any number of requests in
//     flight; every request (admitted, rejected, or stats) is assigned a
//     per-session sequence number at arrival, and responses are delivered
//     strictly in that order no matter which worker finishes first;
//   * batched frame I/O: each readable wakeup drains the socket and
//     decodes every complete frame in one pass; responses produced during
//     one loop iteration are coalesced per session and flushed with one
//     write in the loop's post-event hook;
//   * per-request deadlines: the remaining budget bounds both queueing
//     (checked at dequeue) and every lock wait (ThreadExecutionEnv
//     timeout); expiry surfaces as the typed DEADLINE_EXCEEDED status;
//   * admission control: a bounded request queue; when full, the request
//     is refused immediately with OVERLOADED (explicit backpressure, no
//     silent queueing);
//   * connection death: an in-flight transaction whose connection dies
//     still runs to completion — commit, rollback, or compensation (the
//     §3.4 guarantee holds across connection death); only its response is
//     dropped. This holds per-request across a pipeline: killing a
//     connection with K requests in flight drops exactly those K
//     responses;
//   * graceful drain: Shutdown() stops accepting, refuses new requests
//     with SHUTTING_DOWN, lets every admitted request finish, flushes
//     responses on every shard, then joins all threads.
//
// DESIGN.md §11 documents the wire format, the session state machine, the
// sharded threading model, and how the serving threads fit the §10 latch
// order.

#ifndef ACCDB_SERVER_SERVER_H_
#define ACCDB_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "acc/recovery.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "tpcc/driver.h"

namespace accdb::server {

struct ServerOptions {
  // System under test (ACC or 2PL) and the server-side input generation;
  // `workload.terminals` / `sim_seconds` are ignored here.
  tpcc::WorkloadConfig workload;

  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port().
  int workers = 4;
  // Event-loop shards. New connections are distributed round-robin; each
  // shard's loop thread exclusively owns its sessions.
  int loop_shards = 1;
  // listen(2) backlog — sized for open-loop load generators that connect
  // hundreds of sockets in a burst.
  int listen_backlog = 1024;
  // Admission bound: requests queued but not yet executing. One more
  // request per worker may additionally be in flight.
  size_t max_queue = 128;
  // ThreadExecutionEnv time scale for the workers (0 = no modeled compute).
  double cost_scale = 0.0;
  // Deadline applied to requests that carry none (0 = unbounded).
  uint32_t default_deadline_ms = 0;
  // With several warehouses, bind worker w to home warehouse (w mod W) + 1
  // for the inputs it generates (remote payments/supply lines still cross
  // warehouses); false draws uniformly per request.
  bool warehouse_affinity = true;
  // Per-thread transaction-id block size (EngineConfig::txn_id_block);
  // worker threads default to batched allocation.
  uint32_t txn_id_block = acc::TxnIdAllocator::kDefaultBlock;
  // Durable WAL (empty = no log: nothing survives the process). With a
  // path set, Start() first recovers: replays the surviving log's redo onto
  // the freshly loaded database, finds the in-flight set, and runs §3.4
  // compensators — then serves.
  std::string wal_path;
  // Group-commit fsync batch window in microseconds (0 = sync-per-commit).
  uint32_t group_commit_us = 0;
};

// Cumulative serving-layer counters. Conservation invariants (asserted by
// tests/net_server_test.cc after a drained shutdown; they hold exactly even
// with pipelined requests and multiple loop shards):
//   requests_received == requests_admitted + admission_rejects
//                        + shutdown_rejects
//   requests_admitted == committed + aborted + deadline_exceeded_queue
//                        + deadline_exceeded_exec + internal_errors
//   requests_admitted == responses_sent + responses_dropped
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t malformed_frames = 0;  // Protocol violations (connection killed).

  uint64_t requests_received = 0;  // Well-formed EXEC requests.
  uint64_t requests_admitted = 0;
  uint64_t admission_rejects = 0;  // Queue full -> OVERLOADED.
  uint64_t shutdown_rejects = 0;   // Draining -> SHUTTING_DOWN.
  uint64_t stats_requests = 0;

  uint64_t committed = 0;
  uint64_t aborted = 0;  // Rolled back / compensated (incl. deadlock loss).
  uint64_t compensated = 0;
  uint64_t deadline_exceeded_queue = 0;  // Expired before execution began.
  uint64_t deadline_exceeded_exec = 0;   // Lock-wait timeout mid-execution.
  uint64_t internal_errors = 0;

  uint64_t responses_sent = 0;     // Handed to a live connection.
  uint64_t responses_dropped = 0;  // Connection died before the response.

  uint64_t queue_depth_peak = 0;  // High-water mark of the bounded queue.

  uint64_t deadline_exceeded() const {
    return deadline_exceeded_queue + deadline_exceeded_exec;
  }
};

class AccdbServer {
 public:
  explicit AccdbServer(const ServerOptions& options);
  ~AccdbServer();  // Calls Shutdown() if still running.

  AccdbServer(const AccdbServer&) = delete;
  AccdbServer& operator=(const AccdbServer&) = delete;

  // Crash recovery against the configured WAL: replay redo in LSN order,
  // rebuild the in-flight transaction set, run registered compensators.
  // No-op without a WAL. Called by Start(); callable directly for
  // recover-and-inspect flows (--recover-only). Idempotent.
  Status RecoverFromWal();
  // Result of RecoverFromWal (zeros when nothing needed recovery).
  const acc::RecoveryReport& recovery_report() const {
    return recovery_report_;
  }

  // Binds, listens, spawns the loop shards and worker threads. Runs
  // RecoverFromWal first; a recovery that is not clean() fails the start.
  Status Start();
  // The bound port (valid after Start; resolves ephemeral binds).
  uint16_t port() const { return port_; }

  // Graceful drain; idempotent, safe to call once Start succeeded.
  void Shutdown();

  ServerStats StatsSnapshot() const;
  // Server counters + current queue/in-flight gauges as JSON (the STATS
  // RPC payload; schema in DESIGN.md §11).
  std::string StatsJson() const;

  tpcc::TpccSystem& system() { return system_; }
  acc::Engine& engine() { return system_.engine(); }

 private:
  struct Session {
    uint64_t id = 0;
    int shard = 0;
    net::ScopedFd fd;
    net::FrameDecoder decoder;
    std::string tx;  // Encoded frames awaiting write (in delivery order).
    // Pipelining: every request gets the session's next sequence number at
    // arrival; responses append to `tx` strictly in sequence order.
    uint64_t next_arrival_seq = 0;  // Assigned to the next request.
    uint64_t next_send_seq = 0;     // Next sequence allowed into `tx`.
    std::map<uint64_t, std::string> parked;  // Responses awaiting their turn.
    bool dirty = false;  // Already on the shard's flush list?
  };

  // One event loop shard: the loop, its thread, and the sessions it owns.
  // `sessions` and `flush_list` are touched only by this shard's loop
  // thread (or after every loop thread has been joined).
  struct LoopShard {
    std::unique_ptr<net::EventLoop> loop;
    std::thread thread;
    std::unordered_map<uint64_t, Session> sessions;
    std::vector<uint64_t> flush_list;  // Sessions dirtied this iteration.
  };

  struct Work {
    uint64_t session_id = 0;
    int shard = 0;
    uint64_t seq = 0;  // Per-session response-order sequence number.
    net::ExecRequest request;
    double arrival = 0;  // Steady-clock seconds at admission.
  };

  static double NowSeconds();

  // --- Loop-shard threads (each method runs on shard `si`'s thread) ---
  void OnListenerReadable();  // Shard 0 only (the acceptor).
  void InstallSession(int si, uint64_t id, int raw_fd);
  void OnSessionEvent(int si, uint64_t session_id, uint32_t events);
  void HandleMessage(int si, Session& session, const net::Message& msg);
  // Ordered-delivery entry: append `frame` for sequence `seq` to the wire
  // buffer (or park it until its turn) and schedule the session for the
  // end-of-iteration flush.
  void QueueResponse(int si, Session& session, uint64_t seq,
                     std::string frame);
  void MarkDirty(int si, Session& session);
  void FlushDirty(int si);  // Post-event hook body.
  void FlushTx(Session& session);
  void CloseSession(int si, uint64_t session_id);
  void DeliverResponse(int si, uint64_t session_id, uint64_t seq,
                       std::string frame);

  // --- Worker threads ---
  void WorkerLoop(int worker_index);

  ServerOptions options_;
  tpcc::TpccSystem system_;
  acc::RecoveryReport recovery_report_;
  bool recovered_ = false;

  net::ScopedFd listener_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool shut_down_ = false;

  // Acceptor state: shard 0's loop thread only.
  uint64_t next_session_id_ = 1;
  int next_shard_ = 0;  // Round-robin cursor.

  // Request queue + drain state (shared by all loop shards and workers).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // Workers wait for work / stop.
  std::condition_variable drain_cv_;  // Shutdown waits for quiescence.
  std::deque<Work> queue_;
  int in_flight_ = 0;
  bool draining_ = false;
  bool stop_workers_ = false;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace accdb::server

#endif  // ACCDB_SERVER_SERVER_H_
