"""Pass accounting and in-memory spans for the benchmark.

A pass is one whole round of a workload.  Only the code inside `timed`
(and `op`, which is a timed unit operation) counts towards the pass's wall
and CPU time; benchmark-side bookkeeping and output checks run between
those regions, or inside `untimed`, and are not charged to the program.

The host's speed is probed between the timed regions, and the pass's
times are scaled to a reference speed (see PROBE_EVERY_S below).

Spans are recorded only when tracing is on.  Each span keeps its name,
start, end, parent span and the id of the unit operation that caused it;
they stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class Tracer:
    """Span recorder; a disabled tracer hands out a shared no-op context."""

    def __init__(self) -> None:
        self.enabled = False
        # (name, start, end, parent index or -1, op id, pass id)
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.pass_id = -1

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id, self.pass_id))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, self.pass_id)

    def self_times(self) -> dict[int, Counter]:
        """Per traced pass, the self time of each span name in seconds.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because spans nest strictly.
        """
        child_total = defaultdict(float)
        for _name, start, end, parent, _op, _pass in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        per_pass: dict[int, Counter] = defaultdict(Counter)
        for idx, (name, start, end, _parent, _op, pass_id) in enumerate(self.spans):
            per_pass[pass_id][name] += (end - start) - child_total[idx]
        return per_pass

    def spans_in_pass(self, pass_id: int) -> int:
        return sum(1 for *_rest, p in self.spans if p == pass_id)

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for n, start, end, *_ in self.spans if n == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "pass")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


# The host's speed drifts by more than half from one stretch of seconds
# to the next, and the slow stretches can outlast a run.  So each pass
# times a fixed probe every PROBE_EVERY_S of timed program work, with the
# clock stopped, and every stretch of program time between two probes is
# scaled by REF_PROBE_S over the mean of those two probes: the figures are
# the times the program would take on a host running the probe at
# REF_PROBE_S.  A change to the program moves them; the host's load moves
# the program and the probe alike and cancels.
PROBE_EVERY_S = 0.3
PROBE_REPEATS = 3
REF_PROBE_S = 0.0045


def _probe_inputs():
    # a fixed random graph and key list, like the program's own work:
    # set-heavy graph walks, dict counting and sorting of Python ints
    import random
    rng = random.Random(7)
    n = 2000
    adj = [set() for _ in range(n)]
    for _ in range(6 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj, [rng.getrandbits(64) for _ in range(4000)]


_ADJ, _KEYS = _probe_inputs()


def _probe_once() -> int:
    adj = _ADJ
    seen, order, i = {0}, [0], 0
    while i < len(order):
        for w in adj[order[i]]:
            if w not in seen:
                seen.add(w)
                order.append(w)
        i += 1
    counts: dict[int, int] = {}
    for k in _KEYS:
        counts[k & 1023] = counts.get(k & 1023, 0) + 1
    first = sorted(_KEYS, key=lambda k: k ^ 0x5555)[0]
    cover: set[int] = set()
    for v in range(0, len(adj), 3):
        cover |= adj[v]
    return len(order) + len(counts) + first + len(cover)


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of the fastest of PROBE_REPEATS probe rounds."""
    best_wall = best_cpu = math.inf
    for _ in range(PROBE_REPEATS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _probe_once()
        best_cpu = min(best_cpu, time.process_time() - cpu0)
        best_wall = min(best_wall, time.perf_counter() - wall0)
    return best_wall, best_cpu


class Pass:
    """Wall time, CPU time, unit-operation latencies and counts of one pass.

    `raw_wall` and `raw_cpu` are the seconds the timed regions took;
    `wall`, `cpu` and `op_ms` are scaled to the reference probe speed.  A
    pass starts and ends with a probe (`start`, `finish`), and probes again
    at a `checkpoint`, at the end of an operation or at the end of an
    outermost timed region, once PROBE_EVERY_S of timed work has gone by.
    An operation that spans probes is scaled piece by piece.
    """

    def __init__(self, tracer: Tracer, pass_id: int, traced: bool) -> None:
        self.tracer = tracer
        self.traced = traced
        tracer.enabled = traced
        tracer.pass_id = pass_id
        self.raw_wall = 0.0  # stopwatch totals, excluding a running stretch
        self.raw_cpu = 0.0
        self.wall = 0.0
        self.cpu = 0.0
        self.op_ms: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()
        self._timed = 0  # depth of timed regions
        self._paused = 0  # depth of untimed regions
        self._since = None  # (wall, cpu) when the stopwatch last started
        self._seg = (0.0, 0.0)  # stopwatch reading at the last probe
        # operations that ended since the last probe, as (scaled seconds
        # before the last probe, raw seconds since it); the running one as
        # [raw start, scaled seconds before the last probe]
        self._seg_ops: list[tuple[float, float]] = []
        self._op = None
        self._last_probe = None

    # -- stopwatch: runs inside timed regions and outside untimed ones

    def _sync(self) -> None:
        running = self._timed > 0 and not self._paused
        if running and self._since is None:
            self._since = (time.perf_counter(), time.process_time())
        elif not running and self._since is not None:
            self.raw_wall += time.perf_counter() - self._since[0]
            self.raw_cpu += time.process_time() - self._since[1]
            self._since = None

    def _reading(self) -> tuple[float, float]:
        if self._since is None:
            return self.raw_wall, self.raw_cpu
        return (self.raw_wall + time.perf_counter() - self._since[0],
                self.raw_cpu + time.process_time() - self._since[1])

    # -- probes

    def start(self) -> None:
        self._last_probe = self._run_probe()

    def finish(self) -> None:
        self._close_segment()

    def _run_probe(self) -> tuple[float, float]:
        with self.untimed():
            result = probe()
        self.probes.append(result[0])
        return result

    def _close_segment(self) -> None:
        reading = self._reading()
        now = self._run_probe()
        wall_ref = REF_PROBE_S / ((self._last_probe[0] + now[0]) / 2)
        cpu_ref = REF_PROBE_S / ((self._last_probe[1] + now[1]) / 2)
        self.wall += (reading[0] - self._seg[0]) * wall_ref
        self.cpu += (reading[1] - self._seg[1]) * cpu_ref
        self.op_ms.extend((before + raw * wall_ref) * 1e3
                          for before, raw in self._seg_ops)
        if self._op is not None:
            self._op[1] += (reading[0] - max(self._op[0], self._seg[0])) * wall_ref
        self._seg, self._seg_ops, self._last_probe = reading, [], now

    def checkpoint(self) -> None:
        """Probe here if PROBE_EVERY_S of timed work has gone by.

        A pass that was never started, like the set-up's warm-up, never
        probes.
        """
        if (self._last_probe is not None and not self._paused
                and self._reading()[0] - self._seg[0] >= PROBE_EVERY_S):
            self._close_segment()

    # -- regions

    def span(self, name: str):
        return self.tracer.span(name)

    @contextmanager
    def timed(self, name: str):
        """A region charged to the pass; nested regions are charged once."""
        self._timed += 1
        self._sync()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self._timed -= 1
            self._sync()
        if not self._timed:
            self.checkpoint()

    @contextmanager
    def untimed(self):
        """Benchmark work, inside a timed region or not: never charged or traced.

        It still leaves one `bench.untimed` span when tracing is on, so that
        the enclosing span's self time does not include it.
        """
        tracer = self.tracer
        self._paused += 1
        self._sync()
        with tracer.span("bench.untimed"):
            enabled, tracer.enabled = tracer.enabled, False
            try:
                yield
            finally:
                tracer.enabled = enabled
                self._paused -= 1
                self._sync()

    @contextmanager
    def op(self, name: str):
        """One unit operation: timed, counted as attempted, latency kept."""
        self.attempted += 1
        self.tracer.op_id += 1
        self._timed += 1  # so that the stopwatch reads the op's start
        self._sync()
        self._op = [self._reading()[0], 0.0]
        try:
            with self.timed(name):
                yield
        finally:
            start, before = self._op
            self._seg_ops.append((before, self._reading()[0] - max(start, self._seg[0])))
            self._op = None
            self._timed -= 1
            self._sync()
        self.checkpoint()


def span_cost_s(rounds: int = 7, n: int = 20000) -> float:
    """Extra seconds one recorded span costs over a disabled tracer's span."""
    costs = []
    for _ in range(rounds):
        tracer = Tracer()
        elapsed = []
        for enabled in (True, False):
            tracer.enabled = enabled
            start = time.perf_counter()
            for _ in range(n):
                with tracer.span("x"):
                    pass
            elapsed.append(time.perf_counter() - start)
        costs.append((elapsed[0] - elapsed[1]) / n)
    return max(0.0, statistics.median(costs))


def median(values):
    return statistics.median(values) if values else 0.0
