"""The repository's commit benchmark: one command, three workloads.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \\
        --trace 0|1 [--smoke]

Run from the root of a checkout.  ``WORKLOAD`` is ``sim_long``,
``sim_hot`` or ``live_open`` (see ``simwork.py`` and ``livework.py``).
With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it makes traced and untraced runs and prints every
per-layer metric and the tracing overhead.  Each metric is printed on
its own line with its unit, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check failed, and 2
when the benchmark could not run at all; then no JSON line is printed.

The simulated workloads repeat a fixed-size run, each in a fresh
process and on inputs made from the seed (see :func:`input_seed`),
until ``--seconds`` are spent (at least three times, four when tracing)
and report medians; the program's counts must repeat exactly between
runs on the same inputs.  ``--smoke`` shrinks every
workload to a few seconds for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (CALIBRATION_S, OUT, ROOT, SRC,  # noqa: E402
                    child_env, supports)

WORKLOADS = ("sim_long", "sim_hot", "live_open")
SIM_TXNS = {"sim_long": 2000, "sim_hot": 1500}
#: ``serve`` start-ups per ``live_open`` run; ``setup_s`` is their median.
LIVE_SETUPS = 5
SMOKE_TXNS = 150
SMOKE_SECONDS = 4.0
MIN_REPS = 3
REP_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s",
    "commit_tps": "1/s",
    "commit_frac": "ratio",
    "commit_p50_ms": "ms",
    "commit_p90_ms": "ms",
    "tail_slowdown": "ratio",
    "rss_growth_mb": "MB",
}

#: Span (or kernel-event) self times reported per layer.
SELF_TIMES = ("sim.run", "core.receive", "core.begin_transaction",
              "core.handle_implied_ack", "core.timer_event", "net.send",
              "net.deliver_event", "log.write", "log.force", "log.append",
              "log.io_event", "lrm.acquire", "lrm.release_all", "lrm.rm",
              "lrm.grant_event", "metrics.record", "obs.journal",
              "obs.registry", "transport.send", "transport.codec",
              "transport.deliver")

PER_LAYER = {
    "sim.events_per_commit": "count/txn",
    "sim.latency_p50": "simtime",
    "sim.latency_p90": "simtime",
    "core.receive.calls": "count",
    "core.contexts_end": "count",
    "core.restart_s": "s",
    "core.restart_records": "count",
    "net.msgs_per_commit": "count/txn",
    "log.writes_per_commit": "count/txn",
    "log.forced_per_commit": "count/txn",
    "log.ios_per_commit": "count/txn",
    "log.fsyncs_per_commit": "count/txn",
    "log.wal_bytes_per_commit": "B/txn",
    "lrm.acquire.calls": "count",
    "lrm.lock_waits": "count",
    "lrm.deadlocks": "count",
    "lrm.waiting_end": "count",
    "obs.watchdog.scan_s": "s",
    "obs.watchdog.scans": "count",
    "transport.frames_per_commit": "count/txn",
    "verify.check_s": "s",
    "load.late_ms_p99": "ms",
    "load.late_ms_max": "ms",
    "trace.overhead": "ratio",
}
PER_LAYER.update({f"{name}.self_s": "s" for name in SELF_TIMES})


class Unrunnable(Exception):
    """The benchmark cannot run here (no program, or a child failed)."""


# ----------------------------------------------------------------------
# Simulated workloads
# ----------------------------------------------------------------------
def sim_rep(workload: str, seed: int, txns: int, trace: bool,
            spans_out: Optional[Path] = None) -> dict:
    """One run in a fresh process; set-up is timed to its READY line."""
    cmd = [sys.executable, str(HERE / "simwork.py"), workload, str(seed),
           str(txns), "1" if trace else "0"]
    if spans_out is not None:
        cmd.append(str(spans_out))
    stderr_path = OUT / f"{workload}.stderr"
    with open(stderr_path, "wb") as stderr:
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                stdout=subprocess.PIPE, stderr=stderr,
                                text=True)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - began
            out, _err = proc.communicate(timeout=REP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise Unrunnable(f"{workload} run exited {proc.returncode}; see "
                         f"{stderr_path}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def input_seed(seed: int, index: int, trace: bool) -> int:
    """Seed of the inputs of a run's ``index``-th repetition.

    Repetitions cover several input sets made from the run's seed, so a
    run's medians depend less on one draw of inputs.  The first set runs
    twice (untraced and traced, when tracing), so that the program's
    counts can be checked to repeat exactly.
    """
    if trace:
        return seed * 100 + index // 2
    return seed * 100 + max(0, index - 1)


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    txns = SMOKE_TXNS if smoke else SIM_TXNS[workload]
    min_reps = (2 if smoke else MIN_REPS) + (1 if trace else 0)
    reps: List[dict] = []
    began = time.perf_counter()
    spans_out: Optional[Path] = OUT / f"{workload}.spans.jsonl"
    while True:
        traced = trace and len(reps) % 2 == 1
        inputs = input_seed(seed, len(reps), trace)
        rep = sim_rep(workload, inputs, txns, traced,
                      spans_out if traced else None)
        rep["inputs"] = inputs
        reps.append(rep)
        if traced:
            spans_out = None
        spent = time.perf_counter() - began
        if len(reps) >= min_reps and \
                spent + spent / len(reps) > seconds:
            break
    for rep in reps:
        rep["setup_s"] *= CALIBRATION_S / rep["calibration_setup"]

    plain = [rep for rep in reps if "trace" not in rep]
    traced_reps = [rep for rep in reps if "trace" in rep]
    problems = [p for rep in reps for p in rep["problems"]]
    if any(rep["problem_count"] for rep in reps):
        problems.append(f"{sum(r['problem_count'] for r in reps)} output "
                        f"check failures")
    counts_by_inputs: Dict[int, dict] = {}
    for rep in reps:
        counts = counts_by_inputs.setdefault(rep["inputs"], rep["counts"])
        if rep["counts"] != counts:
            problems.append(f"counts differ between runs of input seed "
                            f"{rep['inputs']}: {counts} vs {rep['counts']}")
    if not smoke and not supports(plain[0]["commit_samples"], 0.90):
        problems.append(f"only {plain[0]['commit_samples']} commits, too "
                        f"few for a p90")

    def med(key: str, rows: List[dict]) -> float:
        return statistics.median([row[key] for row in rows])

    counts = reps[0]["counts"]
    committed = counts["committed"]
    result = {
        "correct": not problems,
        "problems": problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["counts"]["failed"] for rep in reps),
    }
    if not trace:
        result["metrics"] = {name: med(name, plain) for name in END_TO_END}
        return result
    spans = {name: statistics.median(rep["trace"]["self_s"].get(name, 0.0)
                                     for rep in traced_reps)
             for name in SELF_TIMES}
    calls = traced_reps[0]["trace"]["calls"]
    layers: Dict[str, float] = {
        "sim.events_per_commit": counts["events"] / committed,
        "sim.latency_p50": plain[0]["sim_latency_p50"],
        "sim.latency_p90": plain[0]["sim_latency_p90"],
        "core.receive.calls": calls.get("core.receive", 0),
        "core.contexts_end": counts["contexts_end"],
        "core.restart_s": med("restart_s", plain),
        "core.restart_records": plain[0]["restart_records"],
        "net.msgs_per_commit": counts["msgs"] / committed,
        "log.writes_per_commit": counts["log_writes"] / committed,
        "log.forced_per_commit": counts["log_forced"] / committed,
        "log.ios_per_commit": counts["log_ios"] / committed,
        "log.fsyncs_per_commit": 0.0,
        "log.wal_bytes_per_commit": 0.0,
        "lrm.acquire.calls": calls.get("lrm.acquire", 0),
        "lrm.lock_waits": counts["lock_waits"],
        "lrm.deadlocks": counts["deadlocks"],
        "lrm.waiting_end": counts["waiting_end"],
        "obs.watchdog.scan_s": 0.0,
        "obs.watchdog.scans": 0,
        "transport.frames_per_commit": 0.0,
        "verify.check_s": med("verify_s", plain),
        "load.late_ms_p99": 0.0,
        "load.late_ms_max": 0.0,
        "trace.overhead": med("commit_tps", plain)
        / med("commit_tps", traced_reps),
    }
    layers.update({f"{name}.self_s": spans[name] for name in SELF_TIMES})
    result["metrics"] = layers
    result["layers"] = _layer_totals(spans)
    return result


def _layer_totals(spans: Dict[str, float]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for name, seconds in spans.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------
def _live(seed: int, seconds: float, dump: Optional[Path] = None,
          setups: int = 1, smoke: bool = False) -> dict:
    import livework

    return livework.run(seed, seconds, dump=dump, setups=setups,
                        min_samples=not smoke)


def run_live(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if not trace:
        live = _live(seed, seconds, setups=1 if smoke else LIVE_SETUPS,
                     smoke=smoke)
        return {
            "correct": not live["problems"],
            "problems": live["problems"],
            "attempted": live["attempted"],
            "failed": live["failed"],
            "metrics": {name: live[name] for name in END_TO_END},
        }
    OUT.mkdir(exist_ok=True)
    dump = OUT / "live_open.trace.json"
    plain = _live(seed, seconds / 2, smoke=smoke)
    traced = _live(seed, seconds / 2, dump=dump, smoke=smoke)
    counts = traced["counts"]
    summary = traced["trace"]
    committed = counts["committed"]
    spans = {name: summary["self_s"].get(name, 0.0) for name in SELF_TIMES}
    layers: Dict[str, float] = {
        "sim.events_per_commit": 0.0,
        "sim.latency_p50": 0.0,
        "sim.latency_p90": 0.0,
        "core.receive.calls": summary["calls"].get("core.receive", 0),
        "core.contexts_end": counts["contexts_end"],
        "core.restart_s": 0.0,
        "core.restart_records": 0,
        "net.msgs_per_commit": counts["msgs"] / committed,
        "log.writes_per_commit": counts["log_writes"] / committed,
        "log.forced_per_commit": counts["log_forced"] / committed,
        "log.ios_per_commit": counts["log_ios"] / committed,
        "log.fsyncs_per_commit": counts["fsyncs"] / committed,
        "log.wal_bytes_per_commit": traced["wal_bytes"] / committed,
        "lrm.acquire.calls": summary["calls"].get("lrm.acquire", 0),
        "lrm.lock_waits": counts["lock_waits"],
        "lrm.deadlocks": counts["deadlocks"],
        "lrm.waiting_end": counts["waiting_end"],
        "obs.watchdog.scan_s": summary["total_s"].get("obs.watchdog", 0.0),
        "obs.watchdog.scans": summary["calls"].get("obs.watchdog", 0),
        "transport.frames_per_commit": counts["frames"] / committed,
        "verify.check_s": plain["verify_s"],
        "load.late_ms_p99": plain["late_ms_p99"],
        "load.late_ms_max": plain["late_ms_max"],
        "trace.overhead": plain["commit_tps"] / traced["commit_tps"],
    }
    layers.update({f"{name}.self_s": spans[name] for name in SELF_TIMES})
    layers_total = _layer_totals(spans)
    layers_total["obs"] += layers["obs.watchdog.scan_s"]
    problems = plain["problems"] + traced["problems"]
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": layers,
        "layers": layers_total,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    try:
        if args.workload == "live_open":
            result = run_live(args.seed, seconds, bool(args.trace),
                              args.smoke)
        else:
            result = run_sim(args.workload, args.seed, seconds,
                             bool(args.trace), args.smoke)
    except (Unrunnable, RuntimeError, OSError) as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:32s} {result['metrics'][name]:14.6g}"
              f" {unit}")
    if "layers" in result:
        top = sorted(result["layers"].items(), key=lambda kv: -kv[1])[:3]
        print(f"{args.workload:10s} top self time: " + ", ".join(
            f"{layer} {seconds:.3f}s" for layer, seconds in top))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
