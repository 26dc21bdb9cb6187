"""Spans around calls into each layer of the program, installed from
outside it, for the benchmark's traced runs.

:func:`install` replaces public functions of the layers (and the
journal's hook methods, which are its only per-event entry points) with
wrappers that record a span: name, transaction id where the call names
one, start, end and the index of the enclosing span.  Spans stay in
memory; :meth:`Tracer.dump` writes them out when the run ends.  A
layer's self time is its spans' durations minus the time their child
spans cover.

In the simulator, work that no wrapped function covers (log I/O
completions, lock grants, timers) runs as kernel events; the kernel's
public profiler hook times each event, and the part of that time its
child spans do not cover is charged to the layer the event belongs to,
so ``sim.run`` keeps only the kernel's own dispatch time.

Install before the program builds its objects: several layers bind
methods once, at construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, class or None for a module function,
#: attributes, index of the argument that names the transaction)``.
#: Index 0 is ``self`` for methods.
TARGETS: List[Tuple[str, str, Optional[str], Tuple[str, ...],
                    Optional[int]]] = [
    ("sim.run", "repro.sim.kernel", "Simulator", ("run",), None),
    ("core.receive", "repro.core.node", "TMNode", ("receive",), 1),
    ("core.begin_transaction", "repro.core.node", "TMNode",
     ("begin_transaction",), 1),
    ("core.handle_implied_ack", "repro.core.node", "TMNode",
     ("handle_implied_ack",), None),
    ("net.send", "repro.net.network", "Network", ("send",), 1),
    ("log.write", "repro.log.manager", "LogManager", ("write",), 1),
    ("log.force", "repro.log.manager", "LogManager", ("force",), None),
    ("log.append", "repro.log.storage", "StableStorage", ("append",), None),
    ("log.append", "repro.transport.storage", "FileStableStorage",
     ("append",), None),
    ("lrm.acquire", "repro.lrm.locks", "LockManager", ("acquire",), 1),
    ("lrm.release_all", "repro.lrm.locks", "LockManager",
     ("release_all",), 1),
    ("lrm.rm", "repro.lrm.resource_manager", "ResourceManager",
     ("perform", "prepare", "commit", "abort"), 1),
    ("metrics.record", "repro.metrics.collector", "MetricsCollector",
     ("record_flow", "record_drop", "record_log_write", "record_log_io",
      "record_local_flow", "record_recovery_anomaly", "record_transaction",
      "record_heuristic", "record_recovery", "record_deadlock",
      "record_lock_hold", "record_force_latency"), None),
    ("obs.journal", "repro.obs.journal", "JournalRecorder",
     ("_emit", "_on_transition", "_on_send", "_on_deliver", "_on_write",
      "_on_flush", "_on_wait", "_on_grant", "_on_release"), None),
    ("obs.registry", "repro.obs.registry", "MetricFamily", ("labels",), None),
    ("obs.registry", "repro.obs.registry", "CounterSeries", ("inc",), None),
    ("obs.registry", "repro.obs.registry", "GaugeSeries",
     ("inc", "dec", "set"), None),
    ("obs.registry", "repro.obs.registry", "HistogramSeries", ("observe",),
     None),
    ("obs.watchdog", "repro.obs.watchdog", "Watchdog", ("scan",), None),
    ("transport.send", "repro.transport.tcp", "TcpTransport", ("send",),
     None),
    ("transport.codec", "repro.transport.wire", None,
     ("encode_frame", "message_to_wire", "message_from_wire",
      "spec_from_wire"), None),
    ("transport.deliver", "repro.transport.live", "LiveNetwork",
     ("handle_wire_message",), None),
]

#: Kernel event-name prefixes and the layer whose work the event runs.
EVENT_LAYERS = (("deliver:", "net.deliver_event"),
                ("log-", "log.io_event"),
                ("group-commit", "log.io_event"),
                ("lock-", "lrm.grant_event"))
OTHER_EVENT = "core.timer_event"
#: Events the benchmark itself schedules; their time is no layer's.
OWN_EVENTS = "perfbench:"


def _txn(value) -> Optional[str]:
    return value if isinstance(value, str) else getattr(value, "txn_id",
                                                        None)


class Tracer:
    """In-memory span recorder with per-name self time and call counts."""

    def __init__(self) -> None:
        #: ``[name, txn, start, end, parent index]`` per span.
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # Open spans: [span index, child seconds, child seconds already
        # charged to kernel events].
        self._stack: List[list] = []

    def wrap(self, name: str, fn: Callable, txn_arg: Optional[int]
             ) -> Callable:
        spans = self.spans
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            txn = None
            if txn_arg is not None and len(args) > txn_arg:
                txn = _txn(args[txn_arg])
            index = len(spans)
            span = [name, txn, 0.0, 0.0, stack[-1][0] if stack else -1]
            spans.append(span)
            frame = [index, 0.0, 0.0]
            stack.append(frame)
            start = span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[3] = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                calls[name] += 1

        return traced

    def record(self, event, seconds: float) -> None:
        """Kernel profiler hook: charge an event's uncovered time."""
        if not self._stack:
            return
        frame = self._stack[-1]
        if event.name.startswith(OWN_EVENTS):
            frame[1] += seconds
            frame[2] = frame[1]
            return
        covered = frame[1] - frame[2]
        uncovered = max(0.0, seconds - covered)
        layer = OTHER_EVENT
        for prefix, bucket in EVENT_LAYERS:
            if event.name.startswith(prefix):
                layer = bucket
                break
        self.self_s[layer] += uncovered
        self.calls[layer] += 1
        frame[1] += uncovered
        frame[2] = frame[1]

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer (the name's first component)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "layers": self.layer_self_s(),
                "spans": len(self.spans)}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for name, txn, start, end, parent in self.spans:
                out.write(json.dumps([name, txn, round(start, 9),
                                      round(end, 9), parent]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every target; module functions are replaced in each loaded
    ``repro`` module that imported them by name."""
    for name, module_name, owner, attrs, txn_arg in TARGETS:
        module = importlib.import_module(module_name)
        for attr in attrs:
            if owner is not None:
                cls = getattr(module, owner)
                original = getattr(cls, attr)
                setattr(cls, attr, tracer.wrap(name, original, txn_arg))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, txn_arg)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".", 1)[0] != "repro":
                    continue
                if getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, wrapped)

