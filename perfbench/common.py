"""Helpers shared by the benchmark's workloads: paths, percentiles, RSS
and the reference-speed clock."""

from __future__ import annotations

import bisect
import heapq
import math
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark measures (the parent of this
#: directory); the program's sources are under ``src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for WAL directories, span dumps and serve logs.
OUT = ROOT / ".perfbench_out"

#: Fewest samples beyond a reported percentile (the p90 of 100 samples
#: has ten beyond it).
MIN_BEYOND = 10


def child_env() -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    # A fixed string-hash seed: dict and set layouts, and so the cost of
    # walking them, are then the same in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1
    return ordered[rank]


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``MIN_BEYOND`` beyond quantile q."""
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


class _Event:
    __slots__ = ("time", "seq", "action")

    def __init__(self, at: float, seq: int, action) -> None:
        self.time = at
        self.seq = seq
        self.action = action

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def calibration_loop(txns: int = 1000) -> float:
    """A frozen miniature of the program's kind of work (an event heap,
    closures, per-transaction dicts and a growing log); returns its
    wall seconds."""
    began = time.perf_counter()
    queue: list = []
    clock = [0.0, 0]
    contexts: Dict[int, dict] = {}
    log: list = []

    def schedule(delay: float, action) -> None:
        clock[1] += 1
        heapq.heappush(queue, _Event(clock[0] + delay, clock[1], action))

    def vote(txn: int, part: int) -> None:
        context = contexts[txn]
        context["votes"] += 1
        log.append(("vote", txn, part))
        if context["votes"] == 3:
            context["state"] = "committed"
            schedule(0.1, lambda: log.append(("end", txn)))

    def begin(txn: int) -> None:
        contexts[txn] = {"state": "active", "votes": 0}
        for part in range(3):
            schedule(0.1 * (part + 1), lambda part=part: vote(txn, part))

    for txn in range(txns):
        schedule(txn * 0.5, lambda txn=txn: begin(txn))
    while queue:
        event = heapq.heappop(queue)
        clock[0] = event.time
        event.action()
    return time.perf_counter() - began


#: Typical seconds of one calibration loop on the machine the benchmark
#: was written on (a 2-core x86 container, Python 3.11).
CALIBRATION_S = 0.024


def calibrate(repeats: int = 5) -> float:
    """Seconds one calibration loop takes on this machine now (the
    median of a few)."""
    return statistics.median(calibration_loop() for _ in range(repeats))


class SpeedLog:
    """A clock that runs at the reference machine's speed.

    The machine's speed drifts by a factor of two within seconds, as
    other tenants load the host.  A CPU-bound figure is therefore timed
    on this clock: calibration loops run between pieces of measured
    work, and wall time between two of them is scaled by
    ``CALIBRATION_S`` over the mean of their durations.

    A loop run in the measured process stops the work, so its wall time
    is left out.  A loop run by another process on the measured
    process's CPU (``shared=True``) is timed by its own CPU time, which
    is also the time it took from the measured process; the rest of its
    wall time counts as work.  Call :meth:`sample` before the first
    piece of work, between pieces, and after the last.
    """

    def __init__(self) -> None:
        #: ``(wall start, wall end, loop seconds, seconds the work lost)``.
        self.samples: List[Tuple[float, float, float, float]] = []
        self._segments: List[Tuple[float, float, float]] = []
        self._base: List[float] = []

    def sample(self, shared: bool = False) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        wall = calibration_loop()
        cpu = time.thread_time() - cpu
        end = time.perf_counter()
        seconds = cpu if shared else wall
        self.samples.append((start, end, seconds, seconds if shared
                             else end - start))

    def _prepare(self) -> None:
        """Split time into ``(start, end, reference seconds per second)``
        segments: each loop, then the gap to the next."""
        if len(self._segments) == 2 * len(self.samples) - 1:
            return
        if len(self.samples) < 2:
            raise ValueError("SpeedLog needs a sample before and after")
        self._segments, self._base = [], []
        for index, (start, end, seconds, lost) in enumerate(self.samples):
            busy = max(0.0, 1.0 - lost / (end - start))
            self._segments.append((start, end,
                                   busy * CALIBRATION_S / seconds))
            if index + 1 < len(self.samples):
                following = self.samples[index + 1]
                self._segments.append((end, following[0], CALIBRATION_S * 2
                                       / (seconds + following[2])))
        total = 0.0
        for start, end, rate in self._segments:
            self._base.append(total)
            total += (end - start) * rate

    def norm(self, at: float) -> float:
        """Reference-speed seconds of work done by wall time ``at``."""
        self._prepare()
        starts = [segment[0] for segment in self._segments]
        index = max(bisect.bisect_right(starts, at) - 1, 0)
        start, end, rate = self._segments[index]
        return self._base[index] + (min(max(at, start), end) - start) * rate


def rss_mb(pid: object = "self") -> float:
    """Resident set size of a process, in MB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for process {pid}")
