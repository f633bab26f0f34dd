#!/usr/bin/env python3
"""The repository benchmark. Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench_driver from source (into .bench_build/perfbench), runs
the named workload of perfbench/workloads.json on a freshly loaded database
made from the seed, checks the outputs, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.

Every window runs on a freshly loaded database in its own driver process.
A workload with a "window_s" splits --seconds into windows of about that
length (its tables grow with every transaction, so the window length is part
of the workload); the others measure all of --seconds in one window.

--trace 0 runs the untraced windows and reports the end-to-end metrics:
throughput and memory are medians over the windows; latency percentiles are
medians over slices of the windows (a workload's "slice_s", by the time each
request was issued, else whole windows), so that a stall of the host in one
slice does not decide the run.
--trace 1 runs windows of one window's length: untraced and traced in turn
(TRACE_PAIRS of each; the untraced ones are the reference for
trace.overhead_frac, the spans and counters of the traced ones give the
per-layer metrics), then one audited window (the assertion auditor must find
zero violations). It reports the per-layer metrics, each the median over the
traced windows, and keeps the traced windows' spans in
.bench_trace/<workload>.json.

Every window must pass the correctness gates: the TPC-C consistency
conditions, for served workloads the server's conservation identities, and
for workloads with "wal": true a recovery from the window's WAL that
reproduces the live database.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

# Set-up is timed in every window process and in set-up-only processes,
# repeated until there are SETUP_MIN_RUNS of them and SETUP_MIN_S of set-up
# time (at most SETUP_MAX_RUNS); setup_s is the median.
SETUP_MIN_RUNS = 5
SETUP_MIN_S = 1.5
SETUP_MAX_RUNS = 20
# Untraced/traced window pairs in a --trace 1 run.
TRACE_PAIRS = 2
# Bounds on trace.coverage (self time plus child time, over the span).
COVERAGE_LO, COVERAGE_HI = 0.95, 1.05
# A send more than this late counts towards loadgen.late_frac.
LATE_S = 0.001
INF = float("inf")
# An infinite percentile (failed requests count as infinitely slow) prints
# as this many milliseconds.
INFINITE_MS = 1e12


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = BUILD_DIR + ".log"
    with open(BUILD_DIR + ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))


def driver_flags(spec):
    flags = []
    for key, value in spec.items():
        flags.append("--%s=%s" % (key.replace("_", "-"), value))
    return flags


def run_driver(flags, out, timeout):
    cmd = [DRIVER] + flags + ["--out=" + out]
    try:
        proc = subprocess.run(cmd, timeout=timeout, stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("driver exited %d: %s" % (proc.returncode, " ".join(cmd)))
    with open(out) as f:
        return json.load(f)


class Window:
    """One measured window's raw observations plus its derived counts."""

    def __init__(self, raw, spec):
        self.raw = raw
        self.served = spec["kind"] == "served"
        # Only ACC executions claim interstep assertions for the auditor.
        self.asserts = spec["mode"] == "acc"
        self.attempted, self.failed, self.committed = m.count_outcomes(
            raw["outcomes"])

    def gate_errors(self):
        r = self.raw
        errors = []
        if self.attempted < 1 or self.committed < 1:
            errors.append("no committed transactions")
        samples = sum(len(v) for v in r["latency_s"].values())
        if samples != self.attempted:
            errors.append("%d latency samples for %d requests" % (
                samples, self.attempted))
        if not r["consistency"]["ok"]:
            errors.append("consistency: " + r["consistency"]["first_violation"])
        if r["audit"]["enabled"]:
            if r["audit"]["violations"] != 0:
                errors.append("assertion violations: %d (%s)" % (
                    r["audit"]["violations"], r["audit"]["first_violation"]))
            if self.asserts and r["audit"]["audited"] == 0:
                errors.append("auditor checked nothing")
        if self.served:
            if not r["conservation"]["ok"]:
                errors.append("conservation: " + r["conservation"]["why"])
            rec = r["recovery"]
            if rec:
                if not rec["ok"]:
                    errors.append("recovery not clean: " + rec["error"])
                if not rec["rows_match"]:
                    errors.append("recovered row counts differ from live")
                if not rec["consistent"]:
                    errors.append("recovered consistency: " +
                                  rec["first_violation"])
        return errors

    def slices(self, slice_s=None):
        """[(latencies, tput), ...] of the window cut by the time each
        request was issued (metrics.cut_slices: a transaction's start in a
        closed loop, the intended send time in an open loop): each slice's
        client latency samples, in which every failure, an unanswered
        request too, counts as an infinitely slow request, and its commits
        per second. A backlog thus shows in the slices whose requests it
        delayed, however late they completed."""
        samples = []
        for key, values in self.raw["latency_s"].items():
            failed = m.is_failure(key)
            for x, start in zip(values, self.raw["start_s"][key]):
                samples.append((start, (INF if failed else x, key == "OK")))
        cut, length = m.cut_slices(samples, self.raw["window_s"], slice_s)
        return [([x for x, _ in s], sum(c for _, c in s) / length)
                for s in cut]

    def latencies(self):
        return self.slices()[0][0]

    def tput(self):
        return self.slices()[0][1]


def latency_ms(values, p):
    """The p-th percentile of a slice's latency samples, in milliseconds.
    A slice in which nothing completed stalled: its percentiles are
    infinite."""
    if m.beyond(len(values), p) < m.MIN_BEYOND:
        print("perfbench: warning: p%d has fewer than %d samples beyond it "
              "(%d samples)" % (p, m.MIN_BEYOND, len(values)), file=sys.stderr)
    seconds = m.percentile(values, p) if values else INF
    return INFINITE_MS if seconds == INF else seconds * 1e3


def end_to_end(windows, setup_s, tail_p, slice_s):
    """Latency percentiles are medians over the slices of every window,
    throughput and memory medians over the windows, and ok_frac pools every
    window's outcomes."""
    slices = [s for w in windows for s in w.slices(slice_s)]
    median = statistics.median
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    return {
        "tput": (median(w.tput() for w in windows), "1/s"),
        "lat_p50_ms": (median(latency_ms(lat, 50) for lat, _ in slices), "ms"),
        "lat_tail_ms": (median(latency_ms(lat, tail_p) for lat, _ in slices),
                        "ms"),
        "ok_frac": (1.0 - m.ratio(failed, attempted), "fraction"),
        "setup_s": (setup_s, "s"),
        "mem_bytes_per_txn": (median(m.ratio(
            w.raw["heap_after"] - w.raw["heap_before"], w.committed)
            for w in windows), "B"),
    }


def layer_metrics(traced, tail_p):
    """Per-layer metrics of one traced window. Counts are normalised per
    committed transaction ("per txn") or per 1000 ("per ktxn"). A layer the
    workload does not exercise reports 0."""
    r = traced.raw
    n = traced.committed
    spans = r.get("spans", [])
    summary = m.SpanSummary(spans, "request" if traced.served else "txn")
    ex = r["exec"]
    lock = r["lock"]
    waits = lock["wait_seconds_by_class"]
    wait_total = sum(waits.values())
    env = r.get("env", {})
    wal = r.get("wal") or {}
    rec = r.get("recovery") or {}
    server = r.get("server", {})
    rows_added = r["rows_after"] - r["rows_before"]
    late = r.get("late_s", [])

    def per_txn(count, scale=1.0):
        return m.ratio(count * scale, n)

    def p(values, q):
        return m.percentile(values, q) if values else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    # acc (engine): self time is the transaction span minus its lock waits
    # and modeled sleeps; embedded workloads only.
    put("acc.self_ms_per_txn",
        0.0 if traced.served else per_txn(summary.self_s, 1e3), "ms")
    put("acc.steps_per_txn", per_txn(ex["steps"]), "count")
    put("acc.restarts_per_txn", per_txn(ex["restarts"]), "count")
    put("acc.step_retries_per_txn", per_txn(ex["step_retries"]), "count")
    put("acc.compensated_frac", m.ratio(ex["compensated"], traced.attempted),
        "fraction")
    put("acc.useful_frac",
        m.ratio(n, n + ex["restarts"] + ex["step_retries"]), "fraction")
    # lock
    put("lock.requests_per_txn", per_txn(lock["requests"]), "count")
    put("lock.immediate_frac",
        m.ratio(lock["immediate_grants"], lock["requests"]), "fraction")
    put("lock.release_calls_per_txn", per_txn(lock["release_calls"]), "count")
    put("lock.waits_per_txn", per_txn(lock["waits"]), "count")
    put("lock.wait_ms_per_txn", per_txn(wait_total, 1e3), "ms")
    put("lock.wait_ms_p99", p(m.durations(spans, "lock_wait"), 99) * 1e3, "ms")
    for cls in ("shared", "exclusive", "assert", "comp"):
        put("lock.wait_share." + cls, m.ratio(waits[cls], wait_total),
            "fraction")
    for kind in ("conv_conv", "write_assert", "assert_write", "other"):
        put("lock.blocks_per_ktxn." + kind,
            per_txn(lock[kind + "_blocks"], 1e3), "count")
    put("lock.deadlock_aborts_per_ktxn",
        per_txn(lock["deadlock_victim_aborts"], 1e3), "count")
    put("lock.queue_depth_max", lock["queue_depth_max"], "count")
    # runtime: modeled time, and the process's CPU time (all threads).
    put("runtime.server_sleep_ms_per_txn",
        per_txn(env.get("server_sleep_s", 0), 1e3), "ms")
    put("runtime.client_sleep_ms_per_txn",
        per_txn(env.get("client_sleep_s", 0), 1e3), "ms")
    put("runtime.cpu_us_per_txn", per_txn(r["cpu_s"], 1e6), "us")
    # storage
    put("storage.rows_added_per_txn", per_txn(rows_added), "count")
    put("storage.bytes_per_row",
        m.ratio(r["heap_after"] - r["heap_before"], rows_added), "B")
    # wal
    put("wal.appends_per_txn", per_txn(wal.get("appends", 0)), "count")
    put("wal.forces_per_txn", per_txn(wal.get("forced_waits", 0)), "count")
    put("wal.fsyncs_per_txn", per_txn(wal.get("fsyncs", 0)), "count")
    put("wal.commits_per_fsync",
        m.ratio(n if wal else 0, wal.get("fsyncs", 0)), "count")
    put("wal.bytes_per_txn", per_txn(wal.get("bytes_written", 0)), "B")
    # recovery: a fresh server over the run's WAL (workloads with a WAL).
    put("recovery.total_s", rec.get("s", 0.0), "s")
    put("recovery.replay_s", rec.get("replay_s", 0.0), "s")
    put("recovery.records", rec.get("records", 0), "count")
    put("recovery.in_flight", rec.get("in_flight", 0), "count")
    put("recovery.compensated", rec.get("compensated", 0), "count")
    # server, net: from each response's queue_seconds and server_seconds;
    # the wire is the rest of the client-observed time after the send:
    # loopback transfer, event-loop handling, and the time a finished
    # response stays parked behind an earlier request of its connection
    # (the server answers each connection in order).
    for name, key in (("server.queue_ms", "queue_s"),
                      ("server.exec_ms", "exec_s"), ("net.wire_ms", "wire_s")):
        put(name + "_p50", p(r.get(key, []), 50) * 1e3, "ms")
        put(name + "_tail", p(r.get(key, []), tail_p) * 1e3, "ms")
    put("server.queue_depth_peak", server.get("queue_depth_peak", 0), "count")
    put("server.rejects", server.get("admission_rejects", 0) +
        server.get("shutdown_rejects", 0), "count")
    # loadgen: validity of the open loop (how late the generator sent).
    put("loadgen.late_ms_tail", p(late, tail_p) * 1e3, "ms")
    put("loadgen.late_frac",
        m.ratio(sum(1 for x in late if x > LATE_S), len(late)), "fraction")
    # Coverage weighs the spans against the layers' own counts: in embedded
    # runs the engine times every lock wait itself (LockManager
    # wait_seconds_by_class, the `lock` delta) and TimedEnv totals every
    # modeled sleep of the window whether or not a span log is attached. A
    # served request's wire is the remainder of the client's round trip, so
    # there coverage only exceeds 1 when the server reports more queue and
    # execution time than that round trip.
    counted = None
    if not traced.served:
        counted = (wait_total + env.get("server_sleep_s", 0) +
                   env.get("client_sleep_s", 0))
    put("trace.coverage", summary.coverage(counted), "fraction")
    put("trace.lock_wait_frac", summary.child_frac("lock_wait"), "fraction")
    put("trace.sleep_frac",
        summary.child_frac("server_sleep", "client_sleep"), "fraction")
    return out


def per_layer(traced, untraced, tail_p):
    """Each per-layer metric is the median over the traced windows."""
    each = [layer_metrics(w, tail_p) for w in traced]
    out = {name: (statistics.median(e[name][0] for e in each), unit)
           for name, (_, unit) in each[0].items()}

    # Closed loops lose throughput to tracing; an open loop's throughput is
    # fixed by its schedule, so its cost shows in latency.
    def median(windows, f):
        return statistics.median(f(w) for w in windows)

    if traced[0].served:
        def p50(w):
            return m.percentile(w.latencies(), 50)
        base = median(untraced, p50)
        overhead = m.ratio(median(traced, p50) - base, base)
    else:
        overhead = 1.0 - m.ratio(median(traced, Window.tput),
                                 median(untraced, Window.tput))
    out["trace.overhead_frac"] = (overhead, "fraction")
    return out


def save_spans(args, traced):
    """Keeps the traced windows' spans of the latest --trace 1 run of each
    workload, as {"workload", "seed", "windows": [[span, ...], ...]} with
    spans [id, name, start, end, parent index]."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, args.workload + ".json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "windows": [w.raw["spans"] for w in traced]}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                 ", ".join(workloads)))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    workload = workloads[args.workload]
    spec = workload["driver"]
    tail_p = workload["tail_percentile"]

    count = 1
    if workload.get("window_s"):
        count = max(1, round(args.seconds / workload["window_s"]))
    window_s = args.seconds / count

    build()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        base = driver_flags(spec) + ["--seconds=%s" % window_s]
        timeout = 30 + 2 * window_s
        counter = [0]

        def window(*extra):
            # Each window draws its own inputs from the run's seed.
            counter[0] += 1
            wdir = os.path.join(tmp, "w%d" % counter[0])
            os.mkdir(wdir)
            flags = base + ["--seed=%d" % (args.seed * 1000 + counter[0])]
            flags += list(extra)
            if workload.get("wal"):
                flags.append("--wal=" + os.path.join(wdir, "wal.log"))
            raw = run_driver(flags, os.path.join(wdir, "out.json"), timeout)
            shutil.rmtree(wdir)
            return raw

        if args.trace == 0:
            windows = [Window(window(), spec) for _ in range(count)]
        else:
            # Untraced and traced windows alternate, so a drift in the
            # host's speed falls on both sides of trace.overhead_frac.
            windows = []
            for _ in range(TRACE_PAIRS):
                windows += [Window(window(), spec),
                            Window(window("--trace"), spec)]
            windows.append(Window(window("--audit"), spec))
        setup = [w.raw["setup_s"] for w in windows]
        while len(setup) < SETUP_MAX_RUNS and (
                len(setup) < SETUP_MIN_RUNS or sum(setup) < SETUP_MIN_S):
            setup.append(window("--setup-only")["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    for w in windows:
        for key, n in sorted(w.raw["outcomes"].items()):
            if m.is_failure(key):
                print("perfbench: %d failed: %s" % (n, key), file=sys.stderr)
    errors = [e for w in windows for e in w.gate_errors()]
    if args.trace == 0:
        values = end_to_end(windows, statistics.median(setup), tail_p,
                            workload.get("slice_s"))
    else:
        traced = windows[1:-1:2]
        values = per_layer(traced, windows[0:-1:2], tail_p)
        save_spans(args, traced)
        # Spans that miss or double-count time the layers counted would
        # skew the per-layer self times.
        coverage = values["trace.coverage"][0]
        if not COVERAGE_LO <= coverage <= COVERAGE_HI:
            errors.append("trace coverage %.4f outside [%g, %g]" % (
                coverage, COVERAGE_LO, COVERAGE_HI))
    for e in errors:
        print("perfbench: gate failed: " + e, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
