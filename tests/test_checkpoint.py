"""Fuzzy-checkpoint tests: restart recovery from a bounded log suffix."""

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_TXN,
    build_checkpoint_payload,
    deserialize_record,
    serialize_record,
)
from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.core.spec import flat_tree
from repro.core.states import TxnState
from repro.log.records import LogRecord, LogRecordType
from repro.lrm.operations import write_op

from tests.conftest import updating_spec


def cluster_with_history(n_txns=5):
    cluster = Cluster(PRESUMED_ABORT.with_options(
        ack_timeout=15.0, retry_interval=15.0), nodes=["c", "s"])
    for i in range(n_txns):
        spec = flat_tree("c", ["s"])
        spec.participant("s").ops.append(write_op(f"k{i}", i))
        spec.participant("c").ops.append(write_op(f"h{i}", i))
        cluster.run_transaction(spec)
    return cluster


def test_record_serialization_round_trip():
    record = LogRecord(lsn=7, txn_id="t", record_type=LogRecordType.PREPARED,
                       node="n", forced=True, written_at=3.5,
                       payload={"coordinator": "c"})
    clone = deserialize_record(serialize_record(record))
    assert clone == record


def test_payload_skips_resolved_transactions():
    cluster = cluster_with_history(4)
    payload = build_checkpoint_payload(cluster.node("s"))
    # Every transaction committed and wrote END: nothing to carry.
    assert payload["carried"] == []
    assert payload["stores"]["default"]["k0"] == 0


def test_payload_carries_in_doubt_transaction_fully():
    cluster = cluster_with_history(2)
    spec = updating_spec("c", ["s"])
    now = cluster.simulator.now
    cluster.partition_at("c", "s", now + 4.5)   # s will be left in doubt
    cluster.start_transaction(spec)
    cluster.run_until(now + 10.0)
    payload = build_checkpoint_payload(cluster.node("s"))
    carried_types = {entry["record_type"] for entry in payload["carried"]
                     if entry["txn_id"] == spec.txn_id}
    assert "prepared" in carried_types
    assert "lrm-update" in carried_types     # undo images carried


def test_restart_after_checkpoint_preserves_committed_data():
    cluster = cluster_with_history(5)
    cluster.node("s").take_checkpoint()
    cluster.run()
    # More work after the checkpoint.
    spec = flat_tree("c", ["s"])
    spec.participant("s").ops.append(write_op("post", "yes"))
    cluster.run_transaction(spec)
    cluster.crash("s")
    cluster.restart("s")
    cluster.run()
    for i in range(5):
        assert cluster.value("s", f"k{i}") == i
    assert cluster.value("s", "post") == "yes"


def test_checkpoint_bounds_recovery_scan():
    cluster = cluster_with_history(12)
    node = cluster.node("s")
    full_history = len(node.log.stable.records())
    node.take_checkpoint()
    cluster.run()
    cluster.crash("s")
    cluster.restart("s")
    cluster.run()
    assert node.last_recovery_scan < full_history
    assert node.last_recovery_scan <= 2  # nothing carried, tiny suffix


def test_in_flight_loser_undone_from_snapshot():
    """A transaction active at checkpoint time leaves dirty values in
    the snapshot; restart must roll them back."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s"])
    cluster.node("s").default_rm.store.redo_write("balance", 100)
    spec = updating_spec("c", ["s"])
    spec.participant("s").ops[0] = write_op("balance", -999)
    cluster.partition_at("c", "s", 2.5)      # prepare never arrives
    cluster.start_transaction(spec)
    cluster.run_until(5.0)
    # The dirty write is in place, the txn never prepared.
    assert cluster.value("s", "balance") == -999
    cluster.node("s").take_checkpoint()
    cluster.run_until(6.0)
    cluster.crash("s")
    cluster.restart("s")
    cluster.run_until(10.0)
    assert cluster.value("s", "balance") == 100


def test_in_doubt_across_checkpoint_resolves():
    """Prepared before the checkpoint, crash after it: the carried
    records re-lock and the inquiry resolves the transaction."""
    config = PRESUMED_ABORT.with_options(ack_timeout=15.0,
                                         retry_interval=15.0)
    cluster = Cluster(config, nodes=["c", "s"])
    spec = updating_spec("c", ["s"])
    cluster.partition_at("c", "s", 4.5)      # commit lost; s in doubt
    cluster.start_transaction(spec)
    cluster.run_until(10.0)
    cluster.node("s").take_checkpoint()
    cluster.run_until(12.0)
    cluster.crash("s")
    cluster.heal("c", "s")
    cluster.restart_at("s", 20.0)
    cluster.run_until(300.0)
    assert cluster.value("s", "key-s") == 1
    assert cluster.node("s").final_state(spec.txn_id) is TxnState.FORGOTTEN


def test_in_doubt_across_checkpoint_aborts_cleanly():
    """Same shape, but the coordinator never decided: the presumption
    aborts and the carried undo images roll the snapshot back."""
    config = PRESUMED_ABORT.with_options(retry_interval=10.0)
    cluster = Cluster(config, nodes=["c", "s"])
    cluster.node("s").default_rm.store.redo_write("key-s", "orig")
    spec = updating_spec("c", ["s"])
    cluster.crash_at("c", 3.5)               # c dies before deciding
    cluster.start_transaction(spec)
    cluster.run_until(8.0)
    cluster.node("s").take_checkpoint()
    cluster.run_until(10.0)
    cluster.crash("s")
    cluster.restart_at("c", 15.0)
    cluster.restart_at("s", 20.0)
    cluster.run_until(300.0)
    assert cluster.value("s", "key-s") == "orig"
    cluster.node("s").default_rm.locks.assert_released(spec.txn_id)


def test_checkpoint_record_is_forced():
    cluster = cluster_with_history(1)
    node = cluster.node("s")
    node.take_checkpoint()
    cluster.run()
    checkpoints = [r for r in node.log.stable.records()
                   if r.record_type is LogRecordType.CHECKPOINT]
    assert len(checkpoints) == 1
    assert checkpoints[0].forced
    assert checkpoints[0].txn_id == CHECKPOINT_TXN


def test_multiple_checkpoints_use_latest():
    cluster = cluster_with_history(3)
    node = cluster.node("s")
    node.take_checkpoint()
    cluster.run()
    spec = flat_tree("c", ["s"])
    spec.participant("s").ops.append(write_op("between", 1))
    cluster.run_transaction(spec)
    node.take_checkpoint()
    cluster.run()
    cluster.crash("s")
    cluster.restart("s")
    cluster.run()
    assert cluster.value("s", "between") == 1
    assert node.last_recovery_scan <= 2


def test_equivalence_with_and_without_checkpoint():
    """Recovery lands in the same final state whether or not a
    checkpoint intervened."""
    def run(with_checkpoint):
        config = PRESUMED_ABORT.with_options(ack_timeout=15.0,
                                             retry_interval=15.0)
        cluster = Cluster(config, nodes=["c", "s"])
        for i in range(3):
            spec = flat_tree("c", ["s"])
            spec.participant("s").ops.append(write_op(f"k{i}", i))
            cluster.run_transaction(spec)
        if with_checkpoint:
            cluster.node("s").take_checkpoint()
            cluster.run()
        spec = updating_spec("c", ["s"])
        cluster.partition_at("c", "s", cluster.simulator.now + 4.5)
        cluster.start_transaction(spec)
        cluster.run_until(cluster.simulator.now + 10.0)
        cluster.crash("s")
        cluster.heal_all_links()
        cluster.restart_at("s", cluster.simulator.now + 5.0)
        cluster.run_until(cluster.simulator.now + 300.0)
        return {key: cluster.value("s", key)
                for key in ("k0", "k1", "k2", "key-s")}

    assert run(True) == run(False)
