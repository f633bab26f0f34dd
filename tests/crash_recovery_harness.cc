// Crash-recovery integration harness: the real kill -9.
//
//   1. fork/exec accdb_server on an ephemeral port with a WAL, W=2, under
//      the requested CC backend;
//   2. drive the TPC-C mix through real TCP connections (net::RunLoadGen);
//   3. SIGKILL the server mid-benchmark — no drain, no destructor, the WAL
//      file is whatever WaitDurable had forced;
//   4. re-exec the server with --recover-only against the surviving WAL and
//      the same seed/warehouses: it must replay, compensate every in-flight
//      transaction (failed == 0, missing_compensator == 0) and pass the
//      full TPC-C consistency check.
//
// Usage: crash_recovery_harness <path-to-accdb_server> [--mode=MODE], with
// MODE one of acc (the default), 2pl, occ, mvcc. Plain main, not gtest: the
// interesting assertions are child exit codes. Recovery is the same for
// every backend: only ACC leaves in-flight transactions to compensate, the
// others log each transaction in one commit record.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/client.h"

namespace {

struct ChildProcess {
  pid_t pid = -1;
  int stdout_fd = -1;
};

// fork/exec `argv` with stdout on a pipe. argv must be NULL-terminated.
ChildProcess SpawnChild(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    std::perror("execv");
    _exit(127);
  }
  close(fds[1]);
  ChildProcess child;
  child.pid = pid;
  child.stdout_fd = fds[0];
  return child;
}

// Reads the child's stdout until the port line appears; returns 0 on EOF.
uint16_t AwaitPortLine(int fd) {
  FILE* stream = fdopen(fd, "r");
  char line[512];
  while (fgets(line, sizeof(line), stream) != nullptr) {
    std::fprintf(stderr, "server: %s", line);
    const char* marker = std::strstr(line, "127.0.0.1:");
    if (marker != nullptr) {
      return static_cast<uint16_t>(
          std::atoi(marker + std::strlen("127.0.0.1:")));
    }
  }
  return 0;
}

// Runs `args` to completion, echoing and capturing stdout.
int RunToCompletion(const std::vector<std::string>& args, std::string* out) {
  ChildProcess child = SpawnChild(args);
  FILE* stream = fdopen(child.stdout_fd, "r");
  char line[1024];
  while (fgets(line, sizeof(line), stream) != nullptr) {
    std::fprintf(stderr, "recover: %s", line);
    out->append(line);
  }
  fclose(stream);
  int wstatus = 0;
  waitpid(child.pid, &wstatus, 0);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "acc";
  if (argc == 3 && std::string_view(argv[2]).starts_with("--mode=")) {
    mode = argv[2] + std::strlen("--mode=");
  } else if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s <path-to-accdb_server> [--mode=acc|2pl|occ|mvcc]"
                 "\n",
                 argv[0]);
    return 2;
  }
  const std::string server_path = argv[1];
  const std::string wal_path =
      "/tmp/accdb_crash_harness_" + std::to_string(getpid()) + ".wal";
  ::unlink(wal_path.c_str());
  const std::string seed = "4242";
  const std::string warehouses = "2";

  ChildProcess server = SpawnChild(
      {server_path, "--port=0", "--mode=" + mode, "--workers=4",
       "--seed=" + seed, "--warehouses=" + warehouses,
       "--wal-path=" + wal_path, "--group-commit-us=100"});
  const uint16_t port = AwaitPortLine(server.stdout_fd);
  if (port == 0) {
    std::fprintf(stderr, "FAIL: server never printed its port\n");
    kill(server.pid, SIGKILL);
    return 1;
  }

  // Closed-loop load in the background; the kill lands mid-benchmark.
  accdb::net::LoadGenOptions load;
  load.connections = 4;
  load.seconds = 4.0;
  load.retry_limit = 4;
  load.seed = 99;
  accdb::Result<accdb::net::LoadGenResult> load_result =
      accdb::Status::Internal("load gen never ran");
  std::thread load_thread([&] { load_result = RunLoadGen(port, load); });

  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  std::fprintf(stderr, "harness: kill -9 %d\n", server.pid);
  kill(server.pid, SIGKILL);
  int wstatus = 0;
  waitpid(server.pid, &wstatus, 0);
  load_thread.join();

  if (!(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)) {
    std::fprintf(stderr, "FAIL: server did not die from SIGKILL\n");
    return 1;
  }
  if (!load_result.ok() || load_result->committed == 0) {
    std::fprintf(stderr,
                 "FAIL: no load reached the server before the kill (%s)\n",
                 load_result.ok() ? "0 commits"
                                  : load_result.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "harness: %llu commits before the kill\n",
               static_cast<unsigned long long>(load_result->committed));

  // The surviving WAL is all the restarted process gets.
  std::string report;
  const int exit_code = RunToCompletion(
      {server_path, "--recover-only", "--seed=" + seed,
       "--warehouses=" + warehouses, "--wal-path=" + wal_path},
      &report);
  ::unlink(wal_path.c_str());

  bool ok = true;
  if (exit_code != 0) {
    std::fprintf(stderr, "FAIL: --recover-only exited %d\n", exit_code);
    ok = false;
  }
  if (!Contains(report, "\"failed\": 0")) {
    std::fprintf(stderr, "FAIL: recovery reported failed compensations\n");
    ok = false;
  }
  if (!Contains(report, "\"missing_compensator\": 0")) {
    std::fprintf(stderr, "FAIL: recovery reported missing compensators\n");
    ok = false;
  }
  if (!Contains(report, "\"consistent\": true")) {
    std::fprintf(stderr, "FAIL: post-recovery consistency check failed\n");
    ok = false;
  }
  std::fprintf(stderr, ok ? "PASS: clean recovery after kill -9 (%s)\n"
                          : "FAIL: see above (%s)\n",
               mode.c_str());
  return ok ? 0 : 1;
}
