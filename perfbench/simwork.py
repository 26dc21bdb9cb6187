"""One repetition of a simulated workload, in its own process.

Usage: ``simwork.py WORKLOAD SEED TXNS TRACE [SPANS_OUT]``, with the
program's ``src`` on ``PYTHONPATH``.  The process builds the cluster,
prints ``READY`` (the parent times set-up up to that line), makes the
workload's inputs from the seed, runs them, checks the outputs, and
prints one JSON object with everything it measured.  With ``TRACE``
set to 1 the layer spans of :mod:`tracer` are installed before the
cluster is built.

``sim_long`` is a closed loop: serial transactions on a Presumed Abort
cluster of three nodes (flat tree, a quarter of the subordinates read
only, 8 keys per node), the shape of ``repro-2pc saturate``.

``sim_hot`` is an open loop in simulated time: a transaction arrives
every ``HOT_GAP`` time units while one takes about 6.3 uncontended, so
about 25 overlap; every participant writes (80% of operations) over
256 keys per node.  The shipped presets set no ``work_timeout``, so a
transaction caught in a lock wait that never ends (a deadlock across
nodes, which no node's detector sees) would hang for ever and the run
would have failures; this workload sets ``work_timeout`` so that such
a transaction aborts and every transaction has an outcome.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from typing import List, Tuple

from common import SpeedLog, calibrate, percentile, rss_mb
from tracer import OWN_EVENTS

NODES = ["n0", "n1", "n2"]
HOT_GAP = 0.25
HOT_KEYS = 256
#: About five times an uncontended transaction's latency.
HOT_WORK_TIMEOUT = 30.0
#: Calibration loops run every this many transactions (sim_long) or
#: simulated time units (sim_hot); see ``common.SpeedLog``.
SLICE_EVERY = 100
HOT_SLICE_EVERY = 10.0
CALIBRATION_EVENT = OWN_EVENTS + "calibrate"


def build(workload: str, seed: int):
    from repro.core.cluster import Cluster
    from repro.core.config import PRESUMED_ABORT

    config = PRESUMED_ABORT
    if workload == "sim_hot":
        config = dataclasses.replace(PRESUMED_ABORT,
                                     work_timeout=HOT_WORK_TIMEOUT)
    return Cluster(config, nodes=NODES, seed=seed)


def make_specs(workload: str, seed: int, txns: int):
    from repro.sim.randomness import RandomStream
    from repro.workload.generator import WorkloadGenerator, WorkloadParams

    if workload == "sim_long":
        params = WorkloadParams(read_only_fraction=0.25, key_space=8)
    else:
        params = WorkloadParams(read_only_fraction=0.0, key_space=HOT_KEYS)
    return list(WorkloadGenerator(NODES, params,
                                  RandomStream(seed)).stream(txns))


def run_long(cluster, specs, speed: SpeedLog):
    """Serial closed loop; returns handles and each one's begin and end
    on the reference-speed clock."""
    handles = []
    walls = []
    speed.sample()
    for index, spec in enumerate(specs):
        if index and index % SLICE_EVERY == 0:
            speed.sample()
        began = time.perf_counter()
        handles.append(cluster.run_transaction(spec))
        walls.append((began, time.perf_counter()))
    speed.sample()
    return handles, [(speed.norm(a), speed.norm(b)) for a, b in walls]


def run_hot(cluster, specs, speed: SpeedLog):
    """Open loop in simulated time; returns handles and each one's
    begin and end on the reference-speed clock."""
    handles = [None] * len(specs)
    walls = [[0.0, 0.0] for _spec in specs]

    def start(index: int) -> None:
        walls[index][0] = time.perf_counter()
        handle = cluster.start_transaction(specs[index])
        handles[index] = handle

        def finished(_handle) -> None:
            walls[index][1] = time.perf_counter()

        handle.on_done(finished)

    horizon = len(specs) * HOT_GAP + 2 * HOT_WORK_TIMEOUT
    for index in range(int(horizon / HOT_SLICE_EVERY) + 1):
        cluster.simulator.at(index * HOT_SLICE_EVERY, speed.sample,
                             name=CALIBRATION_EVENT)
    for index in range(len(specs)):
        cluster.simulator.at(index * HOT_GAP,
                             lambda index=index: start(index),
                             name=f"arrival:{index}")
    cluster.run()
    speed.sample()
    return handles, [(speed.norm(a), speed.norm(b)) for a, b in walls]


def tail_slowdown(workload: str, spans: List[Tuple[float, float]]
                  ) -> float:
    """Cost per transaction at the end of the run over that at its
    start: for the serial loop the median transaction time in the last
    and first quarter, for the open loop the time per completion in the
    last and first fifth."""
    if workload == "sim_long":
        count = max(1, len(spans) // 4)
        durations = [end - begin for begin, end in spans]
        first = sorted(durations[:count])[count // 2]
        last = sorted(durations[-count:])[count // 2]
        return last / first
    count = max(1, len(spans) // 5)
    done = sorted(end for _begin, end in spans)
    first = (done[count] - done[0]) / count
    last = (done[-1] - done[-1 - count]) / count
    return last / first


def verify(cluster, specs, handles) -> List[str]:
    """Every participant's logged outcome agrees with its root's."""
    problems = []
    for spec, handle in zip(specs, handles):
        if handle is None or not handle.done:
            continue
        if handle.outcome not in ("commit", "abort"):
            problems.append(f"{spec.txn_id}: outcome {handle.outcome!r}")
            continue
        for part in spec.participants:
            logged = cluster.recorded_outcome(part.node, spec.txn_id)
            wrote = any(op.is_update for op in part.ops)
            if logged is not None and logged != handle.outcome:
                problems.append(f"{spec.txn_id}@{part.node}: logged "
                                f"{logged}, root says {handle.outcome}")
            elif handle.committed and wrote and logged != "commit":
                problems.append(f"{spec.txn_id}@{part.node}: committed "
                                f"update with no commit record")
    return problems


def main(argv: List[str]) -> int:
    workload, seed, txns, trace = argv[0], int(argv[1]), int(argv[2]), \
        argv[3] == "1"
    spans_out = argv[4] if len(argv) > 4 else None
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    from repro.sim.gcpolicy import deferred_gc

    cluster = build(workload, seed)
    print("READY", flush=True)
    calibration_setup = calibrate()
    specs = make_specs(workload, seed, txns)
    lock_waits = [0]

    def on_wait(_txn, _key, _mode) -> None:
        lock_waits[0] += 1

    for node in cluster.nodes.values():
        for rm in node.all_rms():
            rm.locks.on_wait.append(on_wait)
    if tracer is not None:
        cluster.simulator.set_profiler(tracer)
    rss_setup = rss_mb()
    speed = SpeedLog()
    runner = run_long if workload == "sim_long" else run_hot
    with deferred_gc():
        handles, spans = runner(cluster, specs, speed)
    rss_end = rss_mb()
    cluster.simulator.set_profiler(None)
    elapsed = max(end for _begin, end in spans) - \
        min(begin for begin, _end in spans)

    committed = [h for h in handles if h is not None and h.committed]
    aborted = [h for h in handles if h is not None and h.aborted]
    failed = [h for h in handles if h is None or not h.done]
    commit_ms = [(end - begin) * 1000.0
                 for (begin, end), h in zip(spans, handles)
                 if h is not None and h.committed]
    sim_latency = [h.completed_at - h.started_at for h in committed]
    rms = [rm for node in cluster.nodes.values() for rm in node.all_rms()]
    calibration_events = len(speed.samples) - 1 \
        if workload == "sim_hot" else 0
    counts = {
        "events": cluster.simulator.events_processed - calibration_events,
        "msgs": cluster.network.sent,
        "log_writes": cluster.metrics.total_log_writes(),
        "log_forced": cluster.metrics.forced_log_writes(),
        "log_ios": cluster.metrics.physical_ios(),
        "lock_waits": lock_waits[0],
        "deadlocks": sum(rm.locks.deadlocks_detected for rm in rms),
        "waiting_end": sum(rm.locks.total_waiting() for rm in rms),
        "contexts_end": sum(len(n.contexts) for n in cluster.nodes.values()),
        "committed": len(committed),
        "aborted": len(aborted),
        "failed": len(failed),
    }

    began = time.perf_counter()
    problems = verify(cluster, specs, handles)
    verify_s = time.perf_counter() - began
    if len(committed) + len(aborted) + len(failed) != len(specs):
        problems.append("committed + aborted + failed != attempted")

    cluster.crash(NODES[1])
    cluster.restart(NODES[1])
    recovery = cluster.metrics.recoveries[-1]

    result = {
        "attempted": len(specs),
        "commit_tps": len(committed) / elapsed,
        "commit_frac": len(committed) / len(specs),
        "commit_p50_ms": percentile(commit_ms, 0.50),
        "commit_p90_ms": percentile(commit_ms, 0.90),
        "commit_samples": len(commit_ms),
        "tail_slowdown": tail_slowdown(workload, spans),
        "rss_growth_mb": rss_end - rss_setup,
        "sim_latency_p50": percentile(sim_latency, 0.50),
        "sim_latency_p90": percentile(sim_latency, 0.90),
        "verify_s": verify_s,
        "calibration_setup": calibration_setup,
        "restart_s": recovery.seconds,
        "restart_records": recovery.records_replayed,
        "counts": counts,
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spans_out:
            tracer.dump(spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
