"""The observer seam (repro.core.hooks): one attach contract for every
instrument, and no module outside the seam and fault arming touches a
hook list."""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.net.conversation import ConversationTracker
from repro.obs import (ConformanceAuditor, CostLedger, JournalRecorder,
                       MetricsRegistry, SimTimeSeries, SpanTracer, Watchdog)
from repro.core.hooks import SITES, install
from repro.torture.sites import SiteRecorder
from repro.trace.recorder import Tracer
from repro.verify.checker import ProtocolChecker

from tests.conftest import updating_spec
from tests.test_journal import _hook_state

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


class _Audited:
    """A ConformanceAuditor riding its own CostLedger, attached as one."""

    def __init__(self) -> None:
        self.ledger = CostLedger()
        self.auditor = ConformanceAuditor()

    def attach(self, cluster):
        self.ledger.attach(cluster)
        self.auditor.attach(cluster, self.ledger)
        return self

    def detach(self) -> None:
        self.auditor.detach()
        self.ledger.detach()

    @property
    def attached(self) -> bool:
        return self.auditor.attached


#: name -> (factory, what the observer saw).  Each "seen" value would
#: double (or differ) if a handler were installed twice.
OBSERVERS = {
    "Tracer": (Tracer, lambda o: len(o.events)),
    "SpanTracer": (SpanTracer, lambda o: len(o.spans)),
    "CostLedger": (CostLedger, lambda o: o.to_dict()),
    "ConformanceAuditor": (
        _Audited, lambda o: [(f.txn_id, f.classification)
                             for f in o.auditor.finish()]),
    "JournalRecorder": (JournalRecorder, len),
    "MetricsRegistry": (MetricsRegistry,
                        lambda o: o.counter_samples()),
    "Watchdog": (Watchdog, lambda o: len(o.entries())),
    "SimTimeSeries": (lambda: SimTimeSeries(interval=0.5),
                      lambda o: o.n_samples),
    "ProtocolChecker": (ProtocolChecker,
                        lambda o: [str(v) for v in o.violations]),
    "SiteRecorder": (SiteRecorder, lambda o: o.sites),
    "ConversationTracker": (
        ConversationTracker,
        lambda o: sorted((k, s.messages) for k, s in o.sessions.items())),
}


def _cluster() -> Cluster:
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    cluster.nodes["s1"].add_detached_rm("aux", own_log=True)
    return cluster


def _observe(attaches: int, make, seen):
    """(hook counts after attaching, what the observer saw)."""
    cluster = _cluster()
    observer = make()
    for _ in range(attaches):
        assert observer.attach(cluster) is observer
    hooks = {site: len(hooks) for site, hooks in _hook_state(cluster).items()}
    cluster.run_transaction(
        updating_spec("c", ["s1", "s2"], txn_id="contract-1"))
    return hooks, seen(observer)


@pytest.mark.parametrize("name", sorted(OBSERVERS))
def test_reattach_same_cluster_records_nothing_twice(name):
    make, seen = OBSERVERS[name]
    assert _observe(2, make, seen) == _observe(1, make, seen)


@pytest.mark.parametrize("name", sorted(OBSERVERS))
def test_attach_to_other_cluster_raises(name):
    make, __ = OBSERVERS[name]
    first, second = _cluster(), _cluster()
    observer = make().attach(first)
    before = _hook_state(second)
    with pytest.raises(RuntimeError):
        observer.attach(second)
    assert _hook_state(second) == before
    assert observer.attached


@pytest.mark.parametrize("name", sorted(OBSERVERS))
def test_detach_is_idempotent_and_restores_hooks(name):
    make, __ = OBSERVERS[name]
    cluster = _cluster()

    def foreign(*args, **kwargs):
        pass

    cluster.network.on_send.append(foreign)
    cluster.nodes["s1"].logs()[1].on_write.append(foreign)
    before = _hook_state(cluster)
    observer = make().attach(cluster)
    assert _hook_state(cluster) != before
    observer.detach()
    observer.detach()
    assert not observer.attached
    assert _hook_state(cluster) == before
    # Detached, it may attach again (to any cluster).
    observer.attach(_cluster()).detach()


def test_unknown_site_rejected_before_anything_installs():
    cluster = _cluster()
    before = _hook_state(cluster)
    with pytest.raises(ValueError):
        install(cluster, {"send": print, "sned": print})
    assert _hook_state(cluster) == before


def test_lock_handlers_get_their_node_name():
    cluster = _cluster()
    seen = []
    install(cluster, {"grant": lambda node, txn, key, mode:
                      seen.append((node, txn, key))})
    cluster.run_transaction(updating_spec("c", ["s1"], txn_id="locks-1"))
    assert ("c", "locks-1", "key-c") in seen
    assert ("s1", "locks-1", "key-s1") in seen


def test_every_site_reaches_a_hook():
    cluster = _cluster()
    undo = install(cluster, {site: print for site in SITES})
    # 3 network/metrics x 1 + per node (2 node sites + 2 per log + 3
    # per RM) + the kernel event hook.
    node_hooks = sum(2 + 2 * len(node.logs()) + 3 * len(node.all_rms())
                     for node in cluster.nodes.values())
    assert len(undo) == 2 + 3 + node_hooks + 1


# ----------------------------------------------------------------------
# Only the seam and fault arming mutate hook lists
# ----------------------------------------------------------------------
#: Fault arming inserts at the front of hook lists and raises
#: interrupts, so it stays outside the seam (see repro.core.hooks).
HOOK_WRITERS = {"core/hooks.py", "torture/sites.py", "transport/faults.py"}


def _hook_mutations(tree: ast.AST):
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "add_event_hook":
            yield node.lineno, "add_event_hook"
            continue
        target = node.func.value
        if (node.func.attr in ("append", "insert", "extend")
                and isinstance(target, ast.Attribute)
                and target.attr.startswith("on_")):
            yield node.lineno, f"{target.attr}.{node.func.attr}"


def test_only_the_seam_and_fault_arming_touch_hook_lists():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in HOOK_WRITERS:
            continue
        for lineno, what in _hook_mutations(ast.parse(path.read_text())):
            offenders.append(f"{relative}:{lineno} {what}")
    assert offenders == []


def test_hook_mutation_scan_sees_the_patterns_it_forbids():
    sample = ("node.on_transition.append(f)\n"
              "log.on_write.insert(0, f)\n"
              "cluster.simulator.add_event_hook(f)\n"
              "items.append(f)\n")
    assert [what for __, what in _hook_mutations(ast.parse(sample))] == [
        "on_transition.append", "on_write.insert", "add_event_hook"]
