"""The ``live_open`` workload: ``repro-2pc serve`` under open-loop load.

``serve`` runs in a child process with a real fsync WAL per node and
its whole operations plane (journal, metrics registry, watchdog, admin
endpoint).  One client connection sends ``begin`` frames to the
coordinator ``n0`` at two fixed offered rates: ``mid``, about half of
the capacity measured when the benchmark was written, where latency is
taken, and ``over``, above that capacity, where completions per second
measure capacity.  Every transaction writes two keys on each of the
three nodes, drawn from 10**6 keys per node, so lock conflicts are
rare and the lock table grows wide.

After the load, the admin ``/metrics`` route must report as many
commits as the client saw, ``serve`` is drained with SIGTERM and must
exit 0, and every WAL is read back: each transaction acknowledged
``commit`` needs a ``COMMITTED`` record in the coordinator's WAL and
no ``ABORTED`` record in any WAL.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (CALIBRATION_S, OUT, ROOT, SpeedLog, calibrate,
                    child_env, percentile, rss_mb, supports)

HERE = Path(__file__).resolve().parent
NODES = ("n0", "n1", "n2")
KEYS_PER_NODE = 10 ** 6
#: Offered rates in transactions per second.  Capacity on a 2-core
#: x86 container was 74 to 90 txn/s when these were chosen.
MID_RATE = 35.0
OVER_RATE = 120.0
#: Share of the measured seconds spent at the ``mid`` rate.
MID_SHARE = 0.5
READY_TIMEOUT = 60.0
SETTLE_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0

_ADDRESS = re.compile(r"^(\S+)\s+([\d.]+):(\d+)$")
_ADMIN = re.compile(r"admin plane\s+http://([\d.]+):(\d+)")
_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{.*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


@dataclass
class Served:
    proc: "asyncio.subprocess.Process"
    setup_s: float
    addresses: Dict[str, Tuple[str, int]]
    admin: Tuple[str, int]
    log_dir: Path


async def start_serve(log_dir: Path, dump: Optional[Path] = None) -> Served:
    """Spawn ``serve`` and wait for it to print its addresses.

    With ``dump`` set, ``serve`` runs under the tracing launcher, which
    writes its spans and counters to that file when it has drained.
    """
    serve_args = ["serve", "--log-dir", str(log_dir), "--admin-port", "0"]
    if dump is None:
        cmd = [sys.executable, "-m", "repro"] + serve_args
    else:
        cmd = [sys.executable, str(HERE / "serve_traced.py"), str(dump)] \
            + serve_args
    stderr = open(log_dir.parent / (log_dir.name + ".stderr"), "wb")
    began = time.perf_counter()
    try:
        proc = await asyncio.create_subprocess_exec(
            *cmd, cwd=str(ROOT), env=child_env(),
            stdout=asyncio.subprocess.PIPE, stderr=stderr)
    finally:
        stderr.close()
    addresses: Dict[str, Tuple[str, int]] = {}
    admin = None
    try:
        while True:
            line = await asyncio.wait_for(proc.stdout.readline(),
                                          READY_TIMEOUT)
            if not line:
                raise RuntimeError("serve exited before it was ready")
            text = line.decode().strip()
            match = _ADDRESS.match(text)
            if match:
                addresses[match.group(1)] = (match.group(2),
                                             int(match.group(3)))
            match = _ADMIN.search(text)
            if match:
                admin = (match.group(1), int(match.group(2)))
            if text.startswith("SIGTERM/SIGINT"):
                break
    except BaseException:
        await kill(proc)
        raise
    setup_s = time.perf_counter() - began
    if admin is None or set(addresses) != set(NODES):
        await kill(proc)
        raise RuntimeError(f"serve printed no usable addresses: "
                           f"{addresses} admin={admin}")
    return Served(proc, setup_s, addresses, admin, log_dir)


async def kill(proc: "asyncio.subprocess.Process") -> None:
    if proc.returncode is None:
        proc.kill()
    await proc.wait()


async def drain(served: Served) -> int:
    """SIGTERM ``serve`` and wait for its graceful drain."""
    served.proc.send_signal(signal.SIGTERM)
    try:
        await asyncio.wait_for(served.proc.communicate(), DRAIN_TIMEOUT)
    except asyncio.TimeoutError:
        await kill(served.proc)
        raise RuntimeError("serve did not drain in time")
    return served.proc.returncode


async def http_get(address: Tuple[str, int], path: str) -> str:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {address[0]}\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        data = await reader.read()
    finally:
        writer.close()
    head, _sep, body = data.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0]
    if b" 200 " not in status + b" ":
        raise RuntimeError(f"GET {path}: {status!r}")
    return body.decode("utf-8")


def metric_total(text: str, name: str, **labels: str) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    total = 0.0
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if not match or match.group(1) != name:
            continue
        have = dict(_LABEL.findall(match.group(2) or ""))
        if all(have.get(k) == v for k, v in labels.items()):
            total += float(match.group(3))
    return total


def make_frames(seed: int, count: int) -> List[Tuple[str, bytes]]:
    """The run's ``begin`` frames, made from ``seed`` alone."""
    from loadgen import begin_frame
    from repro.sim.randomness import RandomStream
    from repro.transport.wire import spec_to_wire
    from repro.workload.generator import WorkloadGenerator, WorkloadParams

    generator = WorkloadGenerator(
        list(NODES),
        WorkloadParams(read_only_fraction=0.0, update_fraction=1.0,
                       key_space=KEYS_PER_NODE),
        RandomStream(seed))
    frames = []
    for index in range(count):
        spec = generator.next_spec()
        spec.txn_id = f"b{seed}-{index}"
        frames.append((spec.txn_id, begin_frame(spec_to_wire(spec))))
    return frames


def verify_wals(log_dir: Path, outcomes: Dict[str, str]) -> List[str]:
    """Every acknowledged commit is durable at the coordinator and
    aborted nowhere; returns what is wrong."""
    from repro.log.records import LogRecordType
    from repro.transport.storage import load_records

    committed = set()
    aborted = set()
    for node in NODES:
        for record in load_records(str(log_dir / f"{node}.wal")):
            if record.record_type is LogRecordType.ABORTED:
                aborted.add(record.txn_id)
            elif node == NODES[0] and \
                    record.record_type is LogRecordType.COMMITTED:
                committed.add(record.txn_id)
    acked = [txn for txn, outcome in outcomes.items() if outcome == "commit"]
    missing = [txn for txn in acked if txn not in committed]
    contradicted = [txn for txn in acked if txn in aborted]
    problems = []
    if missing:
        problems.append(f"{len(missing)} acknowledged commits have no "
                        f"COMMITTED record at {NODES[0]}: {missing[:3]}")
    if contradicted:
        problems.append(f"{len(contradicted)} acknowledged commits have an "
                        f"ABORTED record: {contradicted[:3]}")
    return problems


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def sample_cpu(pid: int, marks: List[float]) -> List[float]:
    """``pid``'s CPU seconds at each ``time.perf_counter`` mark."""
    readings = []
    for mark in marks:
        delay = mark - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        readings.append(cpu_seconds(pid))
    return readings


def pin(pid: int, cpus) -> None:
    if cpus:
        os.sched_setaffinity(pid, cpus)


async def start_calibrator(start: float, seconds: float, cpus
                           ) -> "asyncio.subprocess.Process":
    """Calibration loops four times a second from ``start`` for
    ``seconds``, on ``serve``'s CPU (see ``calibrator.py``)."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(HERE / "calibrator.py"), repr(start),
        repr(seconds), "0.25", cwd=str(ROOT), env=child_env(),
        stdout=asyncio.subprocess.PIPE)
    pin(proc.pid, cpus)
    return proc


async def run_once(seed: int, seconds: float, scratch: Path,
                   dump: Optional[Path], setups: int,
                   min_samples: bool = True) -> dict:
    """One measured ``serve`` run; returns the figures it produced."""
    from loadgen import drive

    mid_s = seconds * MID_SHARE
    over_s = seconds - mid_s
    windows = [("mid", MID_RATE, mid_s), ("over", OVER_RATE, over_s)]
    count = sum(int(round(rate * secs)) for _name, rate, secs in windows)
    frames = make_frames(seed, count)
    # serve gets a CPU of its own, shared only with calibration loops,
    # and the client the other, when there are two.  Each start-up is
    # scaled by a calibration made just before it on serve's CPU.
    cpus = sorted(os.sched_getaffinity(0))
    serve_cpus = {cpus[0]} if len(cpus) > 1 else None
    client_cpus = set(cpus[1:]) if len(cpus) > 1 else None
    pin(0, serve_cpus)
    setup_times = []
    calibrator = None
    try:
        for _index in range(setups - 1):
            calibration = calibrate()
            spare = await start_serve(Path(tempfile.mkdtemp(dir=scratch)))
            setup_times.append(spare.setup_s * CALIBRATION_S / calibration)
            if await drain(spare) != 0:
                raise RuntimeError("serve exited nonzero after a bare start")
        calibration = calibrate()
        served = await start_serve(Path(tempfile.mkdtemp(dir=scratch)),
                                   dump)
        setup_times.append(served.setup_s * CALIBRATION_S / calibration)
    finally:
        pin(0, set(cpus))
    try:
        pin(0, client_cpus)
        rss_setup = rss_mb(served.proc.pid)
        start = time.perf_counter() + 0.5
        calibrator = await start_calibrator(start + mid_s, over_s,
                                            serve_cpus)
        marks = [start, start + mid_s / 2, start + mid_s]
        sampler = asyncio.ensure_future(sample_cpu(served.proc.pid, marks))
        load = await drive(*served.addresses[NODES[0]], frames, windows,
                           start, SETTLE_TIMEOUT)
        cpu = await sampler
        rss_end = rss_mb(served.proc.pid)
        metrics_text = await http_get(served.admin, "/metrics")
        out, _err = await asyncio.wait_for(calibrator.communicate(),
                                           READY_TIMEOUT)
    except BaseException:
        await kill(served.proc)
        if calibrator is not None:
            await kill(calibrator)
        raise
    finally:
        pin(0, set(cpus))
    speed = SpeedLog()
    speed.samples = [tuple(sample) for sample in json.loads(out)]
    exit_code = await drain(served)
    problems = []
    if exit_code != 0:
        problems.append(f"serve drained with exit code {exit_code}")

    committed = [s for s in load.samples if s.outcome == "commit"]
    failed = [s for s in load.samples if s.outcome is None]
    server_commits = metric_total(metrics_text, "repro_transactions_total",
                                  outcome="commit")
    if server_commits != len(committed):
        problems.append(f"/metrics reports {server_commits:.0f} commits, "
                        f"the client saw {len(committed)}")
    began = time.perf_counter()
    problems += verify_wals(served.log_dir, load.outcomes_by_txn)
    verify_s = time.perf_counter() - began

    mid_latency = [s.latency * 1000.0 for s in committed
                   if s.window == "mid"]
    if min_samples and not supports(len(mid_latency), 0.90):
        problems.append(f"only {len(mid_latency)} mid-rate commits, too "
                        f"few for a p90")
    over_start, over_end = load.window("over")
    in_over = [s for s in committed if over_start <= s.done < over_end]

    def cost(half: int) -> float:
        """Serve's CPU seconds per committed transaction due in one half
        of the mid window."""
        lo, hi = marks[half], marks[half + 1]
        due = sum(1 for s in committed if lo <= s.due < hi)
        return (cpu[half + 1] - cpu[half]) / due

    late_ms = [s.late * 1000.0 for s in load.samples]
    result = {
        "attempted": len(load.samples),
        "failed": len(failed),
        "problems": problems,
        "setup_s": sorted(setup_times)[len(setup_times) // 2],
        "commit_tps": len(in_over) / (speed.norm(over_end)
                                      - speed.norm(over_start)),
        "commit_frac": len(committed) / len(load.samples),
        "commit_p50_ms": percentile(mid_latency, 0.50),
        "commit_p90_ms": percentile(mid_latency, 0.90),
        "tail_slowdown": cost(1) / cost(0),
        "rss_growth_mb": rss_end - rss_setup,
        "verify_s": verify_s,
        "late_ms_p99": percentile(late_ms, 0.99),
        "late_ms_max": max(late_ms),
        "wal_bytes": sum((served.log_dir / f"{node}.wal").stat().st_size
                         for node in NODES),
    }
    if dump is not None:
        with open(dump) as handle:
            result.update(json.load(handle))
    return result


def run(seed: int, seconds: float, dump: Optional[Path] = None,
        setups: int = 1, min_samples: bool = True) -> dict:
    """Run ``live_open`` once; WAL directories are removed afterwards."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="live-", dir=OUT))
    try:
        return asyncio.run(run_once(seed, seconds, scratch, dump, setups,
                                    min_samples))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
