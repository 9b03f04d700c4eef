"""The calibration unit (cal) that every timing is divided by.

The host's speed drifts: within one run a fixed loop takes anywhere
between 1x and 2x its fastest time, in phases lasting from a fraction
of a second to several seconds, so raw seconds do not repeat from run
to run.  The benchmark therefore times a fixed pure-Python loop
alongside each operation and divides the operation's time by it.

One cal is the time of ten chunks of `CHUNK_ITERATIONS` iterations of
that loop: about 5 ms on a 2-core x86-64 container with CPython 3.11.
Ten chunks run immediately before each operation, and one more every
`SAMPLE_INTERVAL_S` while it runs, from a SIGALRM handler.  The
operation's cal is the mean over all of them, so a multi-second
operation is divided by the host's speed during that operation, not by
its speed at the instant before it.  Time spent in the handler is
excluded from the operation's time and from every span, through
`Calibrator.clock`.

The loop touches no costparity objects and runs with the garbage
collector off, so a change that grows the heap cannot slow the loop and
flatter its own normalized figures; `peak_rss_mb` shows heap growth
instead.
"""

from __future__ import annotations

import gc
import signal
import time

# Fixed for good: changing either changes the unit of every gated figure.
CHUNK_ITERATIONS = 2_200
CHUNKS_PER_CAL = 10
SAMPLE_INTERVAL_S = 0.02


def _loop(iterations: int) -> int:
    # tuples as dict keys, dict reads and writes, list appends: the same
    # kinds of work as the solver's product exploration
    table: dict[tuple[int, int], int] = {}
    seq: list[tuple[int, int]] = []
    acc = 0
    for i in range(iterations):
        key = (i & 255, (i * 31) & 63)
        acc = (acc + table.get(key, i)) & 0xFFFF
        table[key] = acc
        seq.append(key)
    return acc + len(seq)


def _chunk() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop(CHUNK_ITERATIONS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Calibration samples around one operation at a time."""

    def __init__(self):
        self.paused = 0.0  # seconds spent in the sampling handler so far
        self.before: list[float] = []
        self.during: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """perf_counter without the time spent sampling during operations."""
        return time.perf_counter() - self.paused

    def start(self) -> None:
        """Sample before an operation, then sample while it runs."""
        self.before = [_chunk() for _ in range(CHUNKS_PER_CAL)]
        self.during = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the length of one cal over the operation, in seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        chunks = self.before + self.during
        return CHUNKS_PER_CAL * sum(chunks) / len(chunks)

    def before_s(self) -> float:
        """The length of one cal just before the operation, in seconds."""
        return sum(self.before)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.during.append(_chunk())
        self.paused += time.perf_counter() - start
