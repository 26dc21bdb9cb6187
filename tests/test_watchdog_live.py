"""Watchdog in live-hook mode, and hook-chain restoration when the
full observability stack (tracer, ledger, journal, registry, watchdog)
attaches and detaches in arbitrary orders.

The watchdog's detectors are tested post-hoc in test_journal; here
they run *while the cluster is live* — attached through the internal
journal recorder, scanned mid-run the way the admin plane's recurring
timer does it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.obs import (CostLedger, JournalRecorder, MetricsRegistry,
                       SpanTracer, Watchdog)

from tests.conftest import updating_spec
from tests.test_journal import _hook_state


def stuck_in_doubt_cluster():
    """A subordinate stranded in the in-doubt window by a partition."""
    config = PRESUMED_ABORT.with_options(ack_timeout=100.0,
                                         retry_interval=100.0)
    cluster = Cluster(config, nodes=["c", "s"])
    cluster.partition_at("c", "s", 4.5)
    return cluster, updating_spec("c", ["s"], txn_id="wd-1")


# ----------------------------------------------------------------------
# Live-hook mode
# ----------------------------------------------------------------------
class TestWatchdogLive:
    def test_findings_while_running(self):
        cluster, spec = stuck_in_doubt_cluster()
        watchdog = Watchdog(in_doubt_threshold=10.0).attach(cluster)
        assert watchdog.attached
        cluster.start_transaction(spec)
        cluster.run_until(30.0)
        # Scanned mid-run: the in-doubt window is still open, so it
        # fires at any duration; the swallowed COMMIT is an orphan.
        findings = watchdog.findings()
        detectors = {finding.detector for finding in findings}
        assert "in_doubt" in detectors
        assert "orphan" in detectors
        stuck = [f for f in findings if f.detector == "in_doubt"]
        assert stuck[0].txn == "wd-1" and stuck[0].node == "s"
        watchdog.detach()
        assert not watchdog.attached

    def test_quiet_cluster_no_findings(self):
        cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
        watchdog = Watchdog().attach(cluster)
        cluster.run_transaction(updating_spec("c", ["s"], txn_id="ok-1"))
        assert watchdog.findings() == []
        watchdog.detach()

    def test_findings_resolve_when_window_closes(self):
        cluster, spec = stuck_in_doubt_cluster()
        watchdog = Watchdog(in_doubt_threshold=1000.0).attach(cluster)
        cluster.start_transaction(spec)
        cluster.run_until(30.0)
        assert any(f.detector == "in_doubt" for f in watchdog.findings())
        cluster.heal("c", "s")
        cluster.run_until(400.0)
        # The window closed under the (huge) threshold: no in-doubt
        # finding survives; the retried COMMIT closed the orphan too.
        detectors = {f.detector for f in watchdog.findings()}
        assert "in_doubt" not in detectors
        watchdog.detach()

    def test_detach_before_attach_is_noop(self):
        watchdog = Watchdog()
        watchdog.detach()
        assert not watchdog.attached
        assert watchdog.findings() == []


# ----------------------------------------------------------------------
# Attach/detach symmetry across the full stack
# ----------------------------------------------------------------------
def full_stack():
    return [SpanTracer(), CostLedger(), JournalRecorder(),
            MetricsRegistry(), Watchdog()]


# 120 permutations of 5 instruments is overkill for CI; every 5th
# covers each instrument in each position.
@pytest.mark.parametrize("order",
                         list(itertools.permutations(range(5)))[::5])
def test_full_stack_detach_any_order(order):
    """All five instruments detached in any order must restore the
    exact pre-attach hook chains, preserving foreign hooks."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])

    def sentinel(*args, **kwargs):
        pass

    cluster.network.on_send.append(sentinel)
    cluster.nodes["s1"].on_transition.append(sentinel)
    cluster.metrics.on_transaction.append(sentinel)
    before = _hook_state(cluster)

    instruments = full_stack()
    for instrument in instruments:
        instrument.attach(cluster)
    cluster.run_transaction(
        updating_spec("c", ["s1", "s2"], txn_id=f"stack-{order}"))
    assert _hook_state(cluster) != before

    for index in order:
        instruments[index].detach()
    after = _hook_state(cluster)
    assert after == before
    assert sentinel in cluster.network.on_send
    assert sentinel in cluster.metrics.on_transaction


def test_stacked_instruments_all_observe():
    """One transaction, five instruments: each captures its view."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s1", "s2"])
    tracer, ledger, recorder, registry, watchdog = full_stack()
    for instrument in (tracer, ledger, recorder, registry, watchdog):
        instrument.attach(cluster)
    cluster.run_transaction(updating_spec("c", ["s1", "s2"],
                                          txn_id="all-1"))
    tracer.finish()
    assert tracer.spans
    assert "all-1" in ledger.txn_ids()
    assert len(recorder) > 0
    assert registry.counter_samples()[
        'repro_transactions_total{outcome="commit"}'] == 1
    assert watchdog.findings() == []
    assert len(watchdog.entries()) == len(recorder)
    for instrument in (tracer, ledger, recorder, registry, watchdog):
        instrument.detach()
