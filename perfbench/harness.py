"""Timing, tracing and answer accounting for one benchmark pass.

A pass is a list of operations.  Each operation makes one or more public
calls into satblow through Recorder.call, which always times the call (the
longest call site is an end-to-end metric) and, when tracing is on, also
keeps a span: name, start, end, parent span, run id and attributes.  Spans
stay in memory and leave the process with the pass result.  Nothing inside
the package is instrumented; spans sit around the benchmark's own calls.

An operation counts as attempted once; it counts as failed when one of its
checks fails or it raises.  An exception inside one operation is recorded
and the pass moves on to the next operation.

Times are read from a RefClock, in reference seconds.  The speed of a
shared host drifts by up to 1.8x over seconds to minutes, for the program
and for a fixed piece of Python alike, so every stretch of raw time is
scaled by how long a fixed probe took just before it.  A program that does
less work reads less; a host that slows down mostly does not read more.
The pure-Python paths (verify, core) follow the probe closely; the
numpy-heavy isomorph rejection in solve slows about half as much, so on a
slow host a solve reads somewhat faster than on a fast one.
"""

from __future__ import annotations

import contextlib
import signal
import time
import traceback

perf_counter = time.perf_counter

PROBE_LOOPS = 4000
PROBE_REPEATS = 3
REF_PROBE_S = 0.0013  # one probe on the reference host: a 2-vCPU Intel Xeon VM at its faster speed
PROBE_EVERY_S = 0.25


def probe_work() -> int:
    """A fixed piece of pure Python in the style of the program: small
    tuples as keys, set and dict lookups, integer arithmetic."""
    seen = set()
    counts = {}
    total = 0
    for i in range(PROBE_LOOPS):
        key = (i & 63, (i * 7) & 31)
        if key in seen:
            counts[key] += 1
        else:
            seen.add(key)
            counts[key] = 1
        total += counts[key] ^ i
    return total


def probe_s() -> float:
    """The fastest of PROBE_REPEATS timed probes; the first warms the
    interpreter's specialised instructions, and the minimum drops one hit
    by an interrupt."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        probe_work()
        best = min(best, perf_counter() - t0)
    return best


class RefClock:
    """A clock in reference seconds.

    Between two probes, raw perf_counter time advances the clock scaled by
    REF_PROBE_S / (the earlier probe's time), so the clock runs at the
    speed the host had just before; the probes' own time is left out.
    While running() is on, an interval timer probes every PROBE_EVERY_S,
    also in the middle of a long call into the program: the handler runs
    in the main thread between bytecodes, so there is still one thread.
    A probe that falls while the clock's state is being read or changed
    waits until that is done.  Inside wall_clock() the clock runs at raw
    speed and is not probed, for calls whose length a wall-clock budget
    sets.
    """

    def __init__(self):
        self.value = 0.0
        self.scale = 1.0
        self.probes = 0
        self.probe_total_s = 0.0
        self._busy = False
        self._pending = False
        self._timed = False
        self._raw = False
        self.mark = perf_counter()
        self.probe()

    def _release(self) -> None:
        self._busy = False
        if self._pending:
            self._pending = False
            self.probe()

    def now(self) -> float:
        self._busy = True
        t = self.value + (perf_counter() - self.mark) * self.scale
        self._release()
        return t

    def _advance(self, scale: float) -> None:
        """Count the time since the last mark, then run at `scale`."""
        t = perf_counter()
        self.value += (t - self.mark) * self.scale
        self.scale, self.mark = scale, t

    def probe(self, *_signal_args) -> None:
        if self._raw:
            return
        if self._busy:
            self._pending = True
            return
        self._busy = True
        t0 = perf_counter()
        self.value += (t0 - self.mark) * self.scale
        self.scale = REF_PROBE_S / probe_s()
        self.mark = perf_counter()
        self.probes += 1
        self.probe_total_s += self.mark - t0
        self._release()

    def _timer(self, on: bool) -> None:
        every = PROBE_EVERY_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, every, every)

    @contextlib.contextmanager
    def running(self):
        """Probe every PROBE_EVERY_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        self._timed = True
        self._timer(True)
        try:
            yield self
        finally:
            self._timer(False)
            self._timed = False
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def wall_clock(self):
        """Count the block's raw time, unprobed."""
        self._busy = True
        if self._timed:
            self._timer(False)
        scale = self.scale
        self._advance(1.0)
        self._raw, self._pending, self._busy = True, False, False
        try:
            yield
        finally:
            self._busy, self._raw = True, False
            self._advance(scale)
            if self._timed:
                self._timer(True)
            self._release()


class Op:
    """One checked operation inside a pass."""

    __slots__ = ("label", "problems", "unknown")

    def __init__(self, label: str):
        self.label = label
        self.problems: list[str] = []
        self.unknown = False

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition


class Recorder:
    """Collects call timings, spans and answer checks for one pass."""

    def __init__(self, trace: bool, run_id: str, clock: RefClock | None = None):
        self.clock = clock or RefClock()
        self.trace = trace
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []
        self.call_s: dict[str, float] = {}  # call site -> its longest call in the pass
        self._op_label = "-"
        self.attempted = 0
        self.failed = 0
        self.proved = 0
        self.failures: list[str] = []

    def _begin(self, name: str, tag: str | None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, tag, self.clock.now(), 0.0, parent, self.run_id, {}])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> float:
        span = self.spans[index]
        span[3] = self.clock.now()
        self._open.pop()
        return span[3] - span[2]

    def call(self, name: str, fn, *args, tag: str | None = None, wall_clock: bool = False, **kwargs):
        """Make one public call, timing it and, when tracing, keeping its
        span.  wall_clock: the call stops on a wall-clock budget, so its
        raw time is counted (see RefClock.wall_clock)."""
        with self.clock.wall_clock() if wall_clock else contextlib.nullcontext():
            if self.trace:
                index = self._begin(name, tag)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._note_duration(name, tag, self._end(index))
            start = self.clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._note_duration(name, tag, self.clock.now() - start)

    def _note_duration(self, name: str, tag: str | None, seconds: float) -> None:
        """A call site is the operation, the function and the tag; the same
        site recurs in every pass of a run, so run.py can take its median."""
        site = f"{self._op_label} / {name}" + (f" [{tag}]" if tag else "")
        if seconds > self.call_s.get(site, 0.0):
            self.call_s[site] = seconds

    def annotate(self, **attrs) -> None:
        """Attach counts to the most recent span (tracing only)."""
        if self.trace and self.spans:
            self.spans[-1][6].update(attrs)

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None):
        """A benchmark-side span that groups calls (tracing only)."""
        if not self.trace:
            yield
            return
        index = self._begin(name, tag)
        try:
            yield
        finally:
            self._end(index)

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation: attempted once, failed on a failed check or an
        exception, proved when it finished with an exact, checked answer."""
        op = Op(label)
        self.attempted += 1
        self._op_label = label
        with self.span("bench.op", label):
            try:
                yield op
            except Exception:
                op.problems.append(traceback.format_exc(limit=3).strip())
            finally:
                self._op_label = "-"
        if op.problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(op.problems))
        elif not op.unknown:
            self.proved += 1

    def span_dicts(self) -> list[dict]:
        keys = ("name", "tag", "start", "end", "parent", "run", "attrs")
        return [dict(zip(keys, s)) for s in self.spans]
