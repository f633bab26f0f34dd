// Serving-layer integration tests: a real AccdbServer on an ephemeral
// loopback port, driven by real client connections. Covers the happy path
// (exec + stats RPCs), multi-connection load with counter conservation,
// connection death mid-transaction (the §3.4 guarantee: the execution —
// including compensation — completes even though nobody is listening),
// per-request deadlines expiring in the queue and during lock waits,
// admission-control backpressure, protocol-violation handling, and graceful
// drain. Runs under TSan via the tsan_smoke nested build.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "server/server.h"
#include "tpcc/consistency.h"

namespace accdb::server {
namespace {

ServerOptions SmallServer(bool decomposed, int workers, size_t max_queue) {
  ServerOptions options;
  options.workload.mode = decomposed ? acc::ExecMode::kAccDecomposed
                                     : acc::ExecMode::kSerializable;
  options.workload.seed = 20260806;
  options.workers = workers;
  options.max_queue = max_queue;
  options.cost_scale = 0;  // No modeled compute: tests drive timing.
  return options;
}

// The three ServerStats conservation invariants (valid after Shutdown).
void ExpectStatsConserve(const ServerStats& s) {
  EXPECT_EQ(s.requests_received,
            s.requests_admitted + s.admission_rejects + s.shutdown_rejects);
  EXPECT_EQ(s.requests_admitted,
            s.committed + s.aborted + s.deadline_exceeded_queue +
                s.deadline_exceeded_exec + s.internal_errors);
  EXPECT_EQ(s.requests_admitted, s.responses_sent + s.responses_dropped);
}

void ExpectConsistent(AccdbServer& server) {
  ServerStats stats = server.StatsSnapshot();
  tpcc::ConsistencyReport report = tpcc::CheckConsistency(
      server.system().db(), /*strict=*/stats.compensated == 0);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? "unknown"
                                 : report.violations[0]);
}

TEST(NetServerTest, ExecCommitAndStatsRpc) {
  AccdbServer server(SmallServer(/*decomposed=*/true, 2, 16));
  ASSERT_TRUE(server.Start().ok());

  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    auto resp = client->Execute(tpcc::TxnType::kPayment, /*deadline_ms=*/0,
                                /*retry_limit=*/4);
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    EXPECT_EQ(resp->status, net::WireStatus::kOk)
        << net::WireStatusName(resp->status);
  }

  auto stats_json = client->FetchStatsJson();
  ASSERT_TRUE(stats_json.ok());
  auto parsed = Json::Parse(*stats_json);
  ASSERT_TRUE(parsed.has_value()) << *stats_json;
  EXPECT_EQ(parsed->Find("committed")->AsUint(), 5u);
  EXPECT_EQ(parsed->Find("requests_admitted")->AsUint(), 5u);
  EXPECT_TRUE(parsed->Has("queue_depth_peak"));

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.committed, 5u);
  EXPECT_EQ(stats.responses_sent, 5u);
  EXPECT_EQ(stats.responses_dropped, 0u);
  EXPECT_EQ(stats.stats_requests, 1u);
  ExpectStatsConserve(stats);
  ExpectConsistent(server);
}

// N client threads in closed loops against both systems; afterwards the
// counters must conserve exactly and the database must verify.
class NetServerModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(NetServerModeTest, MultiClientLoadConservesStats) {
  const bool decomposed = GetParam();
  AccdbServer server(SmallServer(decomposed, 3, 64));
  ASSERT_TRUE(server.Start().ok());

  net::LoadGenOptions options;
  options.connections = 4;
  options.seconds = 0.5;
  options.retry_limit = 8;
  options.seed = 7;
  auto load = net::RunLoadGen(server.port(), options);
  ASSERT_TRUE(load.ok()) << load.status().message();
  EXPECT_GT(load->committed, 0u);
  EXPECT_EQ(load->transport_errors, 0u);

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  // Every client-side outcome has a server-side response (no deadlines or
  // rejects were configured, all connections outlived their requests).
  EXPECT_EQ(stats.responses_dropped, 0u);
  // Client view vs server view: every abort re-send is its own admitted
  // request server-side, counted as aborted there even when a later attempt
  // commits.
  EXPECT_EQ(stats.committed, load->committed);
  EXPECT_EQ(stats.aborted, load->aborted + load->retries);
  EXPECT_EQ(stats.requests_admitted, load->issued() + load->retries);
  if (!decomposed) {
    EXPECT_EQ(stats.compensated, 0u);  // 2PL never does.
  }
  ExpectConsistent(server);
}

INSTANTIATE_TEST_SUITE_P(BothSystems, NetServerModeTest,
                         ::testing::Values(true, false));

TEST(NetServerTest, KillClientMidTransactionStillCompletes) {
  // One worker. A slow transaction (modeled compute on) occupies it while a
  // victim request sits in the queue; the victim's connection dies before
  // its turn. The execution must still run to completion server-side — its
  // response is dropped, counters conserve, and the database verifies.
  ServerOptions options = SmallServer(/*decomposed=*/true, 1, 8);
  options.cost_scale = 1.0;  // Real sleeps for modeled costs...
  options.workload.compute_seconds = 0.02;  // ...padded per statement: the
  // slow transaction reliably outlives the victim's 50ms close window.
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker.
  auto slow = net::Client::Connect(server.port());
  ASSERT_TRUE(slow.ok());
  std::thread slow_call([&] {
    auto resp = slow->Execute(tpcc::TxnType::kNewOrder, 0, 0);
    EXPECT_TRUE(resp.ok());
  });

  // Queue the victim behind it, then kill its connection.
  auto victim = net::Client::Connect(server.port());
  ASSERT_TRUE(victim.ok());
  net::ExecRequest req;
  req.request_id = 1;
  req.txn_type = static_cast<uint8_t>(tpcc::TxnType::kPayment);
  std::string frame = net::EncodeFrame(net::Message(req));
  ASSERT_EQ(net::WriteFull(victim->fd(), frame.data(), frame.size()),
            net::IoResult::kOk);
  // Give the loop a moment to admit the request, then sever the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  victim->Close();

  slow_call.join();
  server.Shutdown();

  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  EXPECT_EQ(stats.requests_admitted, 2u);
  // Both executions completed; exactly the victim's response was dropped.
  EXPECT_EQ(stats.committed + stats.aborted, 2u);
  EXPECT_EQ(stats.responses_dropped, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  ExpectConsistent(server);
}

TEST(NetServerTest, DeadlineExpiresInQueue) {
  // One worker occupied by a slow transaction; a 1ms-deadline request
  // queued behind it must come back DEADLINE_EXCEEDED without executing.
  ServerOptions options = SmallServer(/*decomposed=*/true, 1, 8);
  options.cost_scale = 1.0;
  options.workload.compute_seconds = 0.02;  // Slow txn outlives the 1ms
                                            // deadline by a wide margin.
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto slow = net::Client::Connect(server.port());
  ASSERT_TRUE(slow.ok());
  std::thread slow_call([&] {
    auto resp = slow->Execute(tpcc::TxnType::kNewOrder, 0, 0);
    EXPECT_TRUE(resp.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Execute(tpcc::TxnType::kPayment, /*deadline_ms=*/1,
                              /*retry_limit=*/0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, net::WireStatus::kDeadlineExceeded)
      << net::WireStatusName(resp->status);

  slow_call.join();
  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.deadline_exceeded_queue, 1u);
  ExpectStatsConserve(stats);
  ExpectConsistent(server);
}

TEST(NetServerTest, OverloadBackpressure) {
  // max_queue = 0: admission refuses everything, workers stay idle, and the
  // client sees OVERLOADED (mapped to a typed kOverloaded Status).
  AccdbServer server(SmallServer(/*decomposed=*/true, 1, /*max_queue=*/0));
  ASSERT_TRUE(server.Start().ok());

  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Execute(tpcc::TxnType::kPayment, 0, /*retry_limit=*/0);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, net::WireStatus::kOverloaded);
  EXPECT_EQ(net::FromWireStatus(resp->status, "").code(),
            StatusCode::kOverloaded);

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.requests_admitted, 0u);
  ExpectStatsConserve(stats);
}

TEST(NetServerTest, MalformedFrameKillsConnection) {
  AccdbServer server(SmallServer(/*decomposed=*/true, 1, 8));
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectLoopback(server.port());
  ASSERT_TRUE(fd.ok());
  // An empty frame is connection-fatal.
  const char zeros[4] = {0, 0, 0, 0};
  ASSERT_EQ(net::WriteFull(fd->get(), zeros, sizeof(zeros)),
            net::IoResult::kOk);
  // The server must close the connection: the next read sees EOF.
  char buf[16];
  EXPECT_EQ(net::ReadFull(fd->get(), buf, 1), net::IoResult::kEof);

  // The server stays healthy for well-behaved clients.
  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Execute(tpcc::TxnType::kPayment, 0, 4);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, net::WireStatus::kOk);

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.malformed_frames, 1u);
  ExpectStatsConserve(stats);
}

// Reads `n` messages from a raw connection, blocking until each arrives.
std::vector<net::Message> ReadMessages(int fd, net::FrameDecoder& decoder,
                                       size_t n) {
  std::vector<net::Message> out;
  while (out.size() < n) {
    net::Message msg;
    switch (decoder.Next(&msg)) {
      case net::DecodeResult::kMessage:
        out.push_back(std::move(msg));
        continue;
      case net::DecodeResult::kError:
        return out;
      case net::DecodeResult::kNeedMore:
        break;
    }
    char buf[4096];
    size_t got = 0;
    net::IoResult r = net::ReadSome(fd, buf, sizeof(buf), &got);
    if (r == net::IoResult::kWouldBlock) continue;
    if (r != net::IoResult::kOk) return out;
    decoder.Append(std::string_view(buf, got));
  }
  return out;
}

std::string ExecFrame(uint64_t id, tpcc::TxnType type) {
  net::ExecRequest req;
  req.request_id = id;
  req.txn_type = static_cast<uint8_t>(type);
  return net::EncodeFrame(net::Message(req));
}

TEST(NetServerTest, PipelinedRequestsDeliverInOrder) {
  // A slow new-order followed by fast payments, three workers: the payments
  // finish first on other workers, but responses must still come back in
  // arrival order (the parked out-of-order completions wait their turn).
  ServerOptions options = SmallServer(/*decomposed=*/true, 3, 32);
  options.cost_scale = 1.0;
  options.workload.compute_seconds = 0.02;  // New-order reliably slowest.
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectLoopback(server.port());
  ASSERT_TRUE(fd.ok());
  std::string batch = ExecFrame(1, tpcc::TxnType::kNewOrder);
  constexpr int kTotal = 6;
  for (uint64_t id = 2; id <= kTotal; ++id) {
    batch += ExecFrame(id, tpcc::TxnType::kPayment);
  }
  // One write carries the whole pipeline: the server decodes all frames
  // from a single readable wakeup.
  ASSERT_EQ(net::WriteFull(fd->get(), batch.data(), batch.size()),
            net::IoResult::kOk);

  net::FrameDecoder decoder;
  std::vector<net::Message> responses =
      ReadMessages(fd->get(), decoder, kTotal);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) {
    auto* resp = std::get_if<net::ExecResponse>(&responses[i]);
    ASSERT_NE(resp, nullptr);
    EXPECT_EQ(resp->request_id, static_cast<uint64_t>(i + 1))
        << "responses out of order at position " << i;
  }

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  EXPECT_EQ(stats.requests_admitted, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.responses_sent, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(stats.responses_dropped, 0u);
  ExpectConsistent(server);
}

TEST(NetServerTest, KillMidPipelineDropsExactlyInFlightResponses) {
  // Four pipelined requests on one connection, one worker; the connection
  // dies while the first is still executing. Every admitted request still
  // runs to completion (commit, rollback, or compensation — the §3.4
  // guarantee per pipelined request), all four responses are dropped, and
  // the database verifies.
  ServerOptions options = SmallServer(/*decomposed=*/true, 1, 8);
  options.cost_scale = 1.0;
  options.workload.compute_seconds = 0.02;
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto fd = net::ConnectLoopback(server.port());
  ASSERT_TRUE(fd.ok());
  std::string batch = ExecFrame(1, tpcc::TxnType::kNewOrder);
  for (uint64_t id = 2; id <= 4; ++id) {
    batch += ExecFrame(id, tpcc::TxnType::kPayment);
  }
  ASSERT_EQ(net::WriteFull(fd->get(), batch.data(), batch.size()),
            net::IoResult::kOk);
  // Let the loop admit all four, then sever the connection while the slow
  // new-order still occupies the single worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fd->Reset();

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  EXPECT_EQ(stats.requests_admitted, 4u);
  EXPECT_EQ(stats.committed + stats.aborted, 4u);
  EXPECT_EQ(stats.responses_sent + stats.responses_dropped, 4u);
  EXPECT_GE(stats.responses_dropped, 3u);  // At most the first could race out.
  ExpectConsistent(server);
}

TEST(NetServerTest, CrossShardDrainConservesCounters) {
  // Three loop shards, six concurrent connections: round-robin spreads two
  // sessions onto every shard. All requests complete, every shard flushes
  // its responses on drain, and the counters conserve across shards.
  ServerOptions options = SmallServer(/*decomposed=*/true, 2, 32);
  options.loop_shards = 3;
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kConns = 6;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&server, &committed] {
      auto client = net::Client::Connect(server.port());
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 2; ++i) {
        auto resp = client->Execute(tpcc::TxnType::kPayment, 0,
                                    /*retry_limit=*/8);
        ASSERT_TRUE(resp.ok()) << resp.status().message();
        if (resp->status == net::WireStatus::kOk) ++committed;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.committed, static_cast<uint64_t>(committed.load()));
  EXPECT_EQ(stats.responses_dropped, 0u);
  ExpectConsistent(server);
}

TEST(NetServerTest, MalformedFrameMidPipelineKillsOnlyItsSession) {
  // Two shards. Connection A pipelines a valid request followed by an
  // empty (fatal) frame in the same write: the valid request is admitted,
  // the session dies on the malformed frame, and its in-flight response is
  // dropped. Connection B on the other shard stays healthy throughout.
  ServerOptions options = SmallServer(/*decomposed=*/true, 2, 16);
  options.loop_shards = 2;
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  auto bad = net::ConnectLoopback(server.port());
  ASSERT_TRUE(bad.ok());
  std::string batch = ExecFrame(1, tpcc::TxnType::kPayment);
  const char zeros[4] = {0, 0, 0, 0};  // Empty frame: protocol-fatal.
  batch.append(zeros, sizeof(zeros));
  ASSERT_EQ(net::WriteFull(bad->get(), batch.data(), batch.size()),
            net::IoResult::kOk);
  char buf[16];
  EXPECT_EQ(net::ReadFull(bad->get(), buf, 1), net::IoResult::kEof);

  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Execute(tpcc::TxnType::kPayment, 0, 4);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, net::WireStatus::kOk);

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  EXPECT_EQ(stats.malformed_frames, 1u);
  ExpectStatsConserve(stats);
  // A's admitted request completed; its response was dropped with the
  // session (unless it raced out before the malformed frame decoded —
  // impossible here, both frames arrive in one read batch).
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.responses_dropped, 1u);
  ExpectConsistent(server);
}

TEST(NetServerTest, OpenLoopLoadGenAnswersEverything) {
  // A modest open-loop run against a 2-shard server: every scheduled
  // arrival is answered before the drain cutoff and the client and server
  // views agree exactly.
  ServerOptions options = SmallServer(/*decomposed=*/true, 2, 64);
  options.loop_shards = 2;
  AccdbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  net::LoadGenOptions lopts;
  lopts.connections = 8;
  lopts.seconds = 0.3;
  lopts.seed = 11;
  lopts.arrival = net::ArrivalMode::kOpen;
  lopts.open_rate = 200.0;
  lopts.drain_seconds = 10.0;
  auto load = net::RunLoadGen(server.port(), lopts);
  ASSERT_TRUE(load.ok()) << load.status().message();
  EXPECT_GT(load->committed, 0u);
  EXPECT_EQ(load->transport_errors, 0u);
  EXPECT_EQ(load->unanswered, 0u);
  // Open loop never retries: aborts are terminal outcomes.
  EXPECT_EQ(load->retries, 0u);
  EXPECT_EQ(load->queue_hist.count(), load->issued());

  server.Shutdown();
  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  EXPECT_EQ(stats.requests_admitted, load->issued());
  EXPECT_EQ(stats.committed, load->committed);
  EXPECT_EQ(stats.responses_dropped, 0u);
  ExpectConsistent(server);
}

TEST(NetServerTest, ShutdownRefusesNewWorkAndDrains) {
  AccdbServer server(SmallServer(/*decomposed=*/true, 2, 16));
  ASSERT_TRUE(server.Start().ok());

  auto client = net::Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client->Execute(tpcc::TxnType::kPayment, 0, 4);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, net::WireStatus::kOk);

  server.Shutdown();
  // Idempotent: a second shutdown is a no-op.
  server.Shutdown();

  // New connections are refused (listener closed) or reset.
  auto late = net::Client::Connect(server.port());
  if (late.ok()) {
    auto late_resp = late->Execute(tpcc::TxnType::kPayment, 0, 0);
    EXPECT_FALSE(late_resp.ok());
  }
  ServerStats stats = server.StatsSnapshot();
  ExpectStatsConserve(stats);
  ExpectConsistent(server);
}

}  // namespace
}  // namespace accdb::server
