"""Pure arithmetic of the benchmark: percentiles over exact samples, the
failure classifier, and span self-time / coverage. perfbench/run.py applies
these to the driver's raw observations; test_metrics.py covers them."""

import math

# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile of exact samples: the smallest sample x such
    that at least p% of the samples are <= x. Infinite samples (failed
    requests) sort last. Raises ValueError on an empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


# The TPC-C clause 2.4.1.5 rollback: 1% of new-orders name an unused item
# and must roll back. The engine and the wire both report it as ABORTED with
# this message; it is a correct outcome, not a failure.
ROLLBACK_KEY = "ABORTED:unused item number"


def is_failure(outcome):
    """Classifies an outcome key ("OK" or "<STATUS>:<message>"). Correct
    outcomes are commits and the spec's voluntary rollbacks; everything else
    fails: refusals (OVERLOADED, SHUTTING_DOWN), deadline expiries,
    transport errors, unanswered requests, internal errors and any other
    abort."""
    return outcome not in ("OK", ROLLBACK_KEY)


def count_outcomes(outcomes):
    """(attempted, failed, committed) from an {outcome key: count} map."""
    attempted = sum(outcomes.values())
    failed = sum(c for k, c in outcomes.items() if is_failure(k))
    return attempted, failed, outcomes.get("OK", 0)


def cut_slices(samples, window_s, slice_s):
    """Cuts samples [(start, value), ...] into consecutive slices of about
    slice_s seconds of a window_s-second window by the time each request was
    issued (start, in seconds from the window's start); one slice when
    slice_s is None. Every sample is kept, however late it completed: one
    issued a hair outside the window (a worker's clock read racing the
    window's edge) goes to the first or last slice. Returns the slices'
    value lists and their common length in seconds."""
    count = max(1, round(window_s / slice_s)) if slice_s else 1
    length = window_s / count
    out = [[] for _ in range(count)]
    for start, value in samples:
        out[min(max(math.floor(start / length), 0), count - 1)].append(value)
    return out, length


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanSummary:
    """Aggregates spans [id, name, start, end, parent] (parent = index into
    the same list or -1) for the root spans named `root`.

    A span's self time is its duration minus the part of it its children
    cover. Coverage is (self + child time) / duration summed over roots."""

    def __init__(self, spans, root):
        children = {}
        for i, span in enumerate(spans):
            if span[4] >= 0:
                children.setdefault(span[4], []).append(i)
        self.roots = 0
        self.span_s = 0.0
        self.self_s = 0.0
        self.child_s = {}
        for i, (_, name, start, end, _) in enumerate(spans):
            if name != root:
                continue
            self.roots += 1
            kids = [spans[k] for k in children.get(i, ())]
            self.span_s += end - start
            self.self_s += (end - start) - union_length(
                [(k[2], k[3]) for k in kids], start, end)
            for k in kids:
                self.child_s[k[1]] = self.child_s.get(k[1], 0.0) + k[3] - k[2]

    def coverage(self, child_s=None):
        """(self + child time) / span time. child_s is the children's time
        as the layers themselves counted it, independently of the spans:
        coverage is then 1 when the child spans catch exactly that time,
        below 1 when spans miss time the layers counted, above 1 when they
        record more. By default child_s is the child spans' own total, and
        coverage is above 1 only when children overlap each other or stick
        out of their parent."""
        if self.span_s <= 0:
            return 0.0
        if child_s is None:
            child_s = sum(self.child_s.values())
        return (self.self_s + child_s) / self.span_s

    def child_frac(self, *names):
        if self.span_s <= 0:
            return 0.0
        return sum(self.child_s.get(n, 0.0) for n in names) / self.span_s


def durations(spans, name):
    """Durations of every span called `name`."""
    return [s[3] - s[2] for s in spans if s[1] == name]


def ratio(numerator, denominator):
    """numerator / denominator, 0 when the denominator is 0 (a layer the
    workload does not exercise)."""
    return numerator / denominator if denominator else 0.0
