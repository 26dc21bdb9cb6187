"""Heuristic decisions and damage reporting (§1, §3, Table 1)."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    HeuristicChoice,
    PRESUMED_ABORT,
    PRESUMED_NOTHING,
)
from repro.core.spec import chain_tree
from repro.core.states import TxnState
from repro.lrm.operations import write_op

from tests.conftest import updating_spec


def heuristic_config(base, choice=HeuristicChoice.ABORT, **kwargs):
    defaults = dict(heuristic_timeout=8.0, heuristic_choice=choice,
                    ack_timeout=15.0, retry_interval=15.0)
    defaults.update(kwargs)
    return base.with_options(**defaults)


def partitioned_commit(base, choice=HeuristicChoice.ABORT):
    """Commit lost in a partition: the sub heuristically decides."""
    cluster = Cluster(heuristic_config(base, choice), nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.partition_at("c", "s", 4.5)
    cluster.heal_at("c", "s", 60.0)
    handle = cluster.start_transaction(spec)
    cluster.run_until(400.0)
    return cluster, spec, handle


def test_heuristic_abort_against_commit_is_damage():
    cluster, spec, handle = partitioned_commit(PRESUMED_ABORT,
                                               HeuristicChoice.ABORT)
    assert handle.committed
    damaged = cluster.metrics.damaged_heuristics()
    assert len(damaged) == 1
    assert damaged[0].decision == "abort"
    # The damage is real: the sub's update is gone despite the commit.
    assert cluster.value("s", "key-s") is None
    assert cluster.value("c", "key-c") == 1


def test_heuristic_commit_matching_outcome_is_clean():
    cluster, spec, handle = partitioned_commit(PRESUMED_ABORT,
                                               HeuristicChoice.COMMIT)
    assert handle.committed
    assert cluster.metrics.damaged_heuristics() == []
    events = cluster.metrics.heuristics
    assert len(events) == 1 and events[0].damaged is False
    assert cluster.value("s", "key-s") == 1


def test_heuristic_releases_locks_immediately():
    """The whole point: locks stop blocking other transactions."""
    config = heuristic_config(PRESUMED_ABORT)
    cluster = Cluster(config, nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.partition_at("c", "s", 4.5)
    handle = cluster.start_transaction(spec)
    cluster.run_until(10.0)   # before the heuristic timer (at ~11.1)
    assert cluster.node("s").default_rm.locks.holds(spec.txn_id, "key-s")
    cluster.run_until(20.0)   # after it
    cluster.node("s").default_rm.locks.assert_released(spec.txn_id)
    del handle


def test_heuristic_decision_is_forced_to_the_log():
    cluster, spec, __ = partitioned_commit(PRESUMED_ABORT)
    records = [r for r in cluster.node("s").log.stable.records()
               if r.record_type.value.startswith("heuristic")]
    assert len(records) == 1 and records[0].forced


def test_no_heuristics_without_timeout():
    config = PRESUMED_ABORT.with_options(ack_timeout=15.0,
                                         retry_interval=15.0)
    cluster = Cluster(config, nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.partition_at("c", "s", 4.5)
    cluster.heal_at("c", "s", 60.0)
    handle = cluster.start_transaction(spec)
    cluster.run_until(400.0)
    assert cluster.metrics.heuristics == []
    assert handle.committed  # resolved by blocking recovery instead


def test_pn_reports_damage_to_root():
    nodes = ["root", "mid", "leaf"]
    cluster = Cluster(heuristic_config(PRESUMED_NOTHING), nodes=nodes)
    spec = chain_tree(nodes)
    for participant in spec.participants:
        participant.ops.append(write_op(f"k-{participant.node}", 1))
    cluster.partition_at("mid", "leaf", 8.0)
    cluster.heal_at("mid", "leaf", 60.0)
    handle = cluster.start_transaction(spec)
    cluster.run_until(500.0)
    assert handle.committed
    assert handle.heuristic_mixed
    assert [r.node for r in handle.heuristic_reports] == ["leaf"]


def test_pa_reports_only_to_immediate_coordinator():
    """R*'s choice: the root may be told 'committed' although a leaf
    heuristically aborted — PA does not forward reports upward."""
    nodes = ["root", "mid", "leaf"]
    cluster = Cluster(heuristic_config(PRESUMED_ABORT), nodes=nodes)
    spec = chain_tree(nodes)
    for participant in spec.participants:
        participant.ops.append(write_op(f"k-{participant.node}", 1))
    cluster.partition_at("mid", "leaf", 8.0)
    cluster.heal_at("mid", "leaf", 60.0)
    to_mid = []
    cluster.network.on_deliver.append(
        lambda m: to_mid.append(m) if m.dst == "mid" else None)
    handle = cluster.start_transaction(spec)
    cluster.run_until(500.0)
    assert handle.committed
    assert not handle.heuristic_mixed         # root never hears
    damaged = cluster.metrics.damaged_heuristics()
    assert len(damaged) == 1                  # but the damage is real
    # The immediate coordinator (mid) did receive the report.
    reports = [r for m in to_mid if m.txn_id == spec.txn_id
               for r in m.payload.get("reports", [])]
    assert any(r["node"] == "leaf" for r in reports)


def test_heuristic_survives_crash():
    """The forced heuristic record lets a restarted node still detect
    and report the damage."""
    config = heuristic_config(PRESUMED_ABORT, inquiry_timeout=10.0)
    cluster = Cluster(config, nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.partition_at("c", "s", 4.5)
    handle = cluster.start_transaction(spec)
    cluster.run_until(20.0)         # heuristic abort happened at s
    cluster.crash("s")
    cluster.heal("c", "s")
    cluster.restart_at("s", 30.0)
    cluster.run_until(400.0)
    damaged = cluster.metrics.damaged_heuristics()
    assert len(damaged) == 1
    assert cluster.node("s").final_state(spec.txn_id) is TxnState.FORGOTTEN
    del handle


def test_heuristic_state_machine_transitions():
    cluster, spec, __ = partitioned_commit(PRESUMED_ABORT)
    # After resolution the context is forgotten; during the window it
    # was HEURISTIC_ABORTED (checked indirectly through the log).
    types = [r.record_type.value
             for r in cluster.node("s").log.records_for(spec.txn_id)]
    assert "heuristic-abort" in types
    assert "committed" in types   # the tree's outcome, recorded after
    # The heuristic record is durable, the outcome note need not be.
    stable_types = [r.record_type.value
                    for r in cluster.node("s").log.stable.records_for(
                        spec.txn_id)]
    assert "heuristic-abort" in stable_types
