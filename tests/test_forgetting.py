"""Forgetting: a node keeps only its open transactions.

A context leaves ``TMNode.contexts`` once it reaches FORGOTTEN or
READ_ONLY_DONE; a small tombstone answers late and duplicate messages.
These tests pin that the answers are the ones a node that kept every
context gives (the reference run disables eviction), per presumption,
and that what is forgotten is really freed.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.core.cluster import Cluster
from repro.core.config import (
    BASIC_2PC,
    PRESUMED_ABORT,
    PRESUMED_COMMIT,
    PRESUMED_NOTHING,
)
from repro.core.node import TMNode
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.core.states import TxnState
from repro.lrm.operations import read_op, write_op
from repro.net.message import Message, MessageType, Phase
from repro.obs.timeseries import SimTimeSeries
from repro.ops import OperatorConsole
from repro.transport.admin import AdminServer

PRESUMPTIONS = {
    "basic": BASIC_2PC,
    "pa": PRESUMED_ABORT,
    "pn": PRESUMED_NOTHING,
    "pc": PRESUMED_COMMIT,
}


@pytest.fixture(params=sorted(PRESUMPTIONS))
def config(request):
    return PRESUMPTIONS[request.param]


def keep_everything(monkeypatch):
    """Reference behaviour: terminal contexts stay in ``contexts``."""
    monkeypatch.setattr(TMNode, "evict", lambda self, context: None)


def tree(txn_id: str, veto: bool) -> TransactionSpec:
    """c coordinates s (an updater, vetoing when ``veto``) and r (a
    reader that votes read-only)."""
    return TransactionSpec(txn_id=txn_id, participants=[
        ParticipantSpec(node="c", ops=[write_op("kc", 1)]),
        ParticipantSpec(node="s", parent="c", ops=[write_op("ks", 1)],
                        veto=veto),
        ParticipantSpec(node="r", parent="c", ops=[read_op("kr")])])


def finished(config, outcome: str):
    cluster = Cluster(config, nodes=["c", "s", "r"])
    spec = tree("t1", veto=outcome == "abort")
    handle = cluster.run_transaction(spec)
    assert handle.outcome == outcome
    return cluster, spec


def late_frames(spec: TransactionSpec, outcome: str):
    """Every kind of frame that can reach a node after it forgot."""
    txn = spec.txn_id
    decision = (MessageType.COMMIT if outcome == "commit"
                else MessageType.ABORT)

    def msg(msg_type, src, dst, flags=None, payload=None, phase=None):
        return Message(msg_type=msg_type, txn_id=txn, src=src, dst=dst,
                       phase=phase, flags=dict(flags or {}),
                       payload=dict(payload or {}))

    recovery = Phase.RECOVERY
    return {
        "enroll": msg(MessageType.DATA, "c", "s", {"enroll": True},
                      {"spec": spec, "participant": spec.participant("s")}),
        "work-done": msg(MessageType.DATA, "s", "c", {"work_done": True}),
        "prepare": msg(MessageType.PREPARE, "c", "s"),
        "prepare-to-root": msg(MessageType.PREPARE, "s", "c"),
        "prepare-to-reader": msg(MessageType.PREPARE, "c", "r"),
        "vote-yes": msg(MessageType.VOTE_YES, "s", "c"),
        "vote-no": msg(MessageType.VOTE_NO, "s", "c"),
        "vote-read-only": msg(MessageType.VOTE_READ_ONLY, "r", "c"),
        "unsolicited-yes": msg(MessageType.VOTE_YES, "s", "c",
                               {"unsolicited": True}),
        "delegation": msg(MessageType.VOTE_YES, "c", "s",
                          {"last_agent_delegation": True}),
        "delegation-to-reader": msg(MessageType.VOTE_YES, "c", "r",
                                    {"last_agent_delegation": True}),
        "decision": msg(decision, "c", "s"),
        "decision-to-reader": msg(decision, "c", "r"),
        "ack": msg(MessageType.ACK, "s", "c"),
        "inquire": msg(MessageType.INQUIRE, "s", "c", phase=recovery),
        "inquire-reader": msg(MessageType.INQUIRE, "c", "r", phase=recovery),
        "outcome": msg(MessageType.OUTCOME, "c", "s", payload={
            "outcome": outcome}, phase=recovery),
        "outcome-to-reader": msg(MessageType.OUTCOME, "c", "r", payload={
            "outcome": outcome}, phase=recovery),
        "recovery-ack": msg(MessageType.RECOVERY_ACK, "s", "c", payload={
            "reports": [], "outcome_pending": False}, phase=recovery),
    }


FRAMES = sorted(late_frames(tree("t1", False), "commit"))


def replies_to(config, outcome: str, frame: str):
    """Deliver one late frame twice, as a duplicate would arrive, and
    return what the receiver sent back plus its state afterwards."""
    cluster, spec = finished(config, outcome)
    message = late_frames(spec, outcome)[frame]
    sent = []
    cluster.network.on_send.append(lambda m: sent.append(
        (m.msg_type.value, m.src, m.dst, m.payload.get("outcome"))))
    receiver = cluster.node(message.dst)
    for _copy in range(2):
        receiver.receive(message)
        cluster.run()
    writes = [(r.node, r.record_type.value)
              for r in receiver.log.records_for(spec.txn_id)]
    return sent, writes, receiver.final_state(spec.txn_id)


@pytest.mark.parametrize("outcome", ["commit", "abort"])
@pytest.mark.parametrize("frame", FRAMES)
def test_late_frame_gets_the_reply_a_remembering_node_gives(
        config, outcome, frame, monkeypatch):
    forgetting = replies_to(config, outcome, frame)
    with monkeypatch.context() as patch:
        keep_everything(patch)
        remembering = replies_to(config, outcome, frame)
    assert forgetting == remembering


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_inquiry_after_forget_gets_the_decision(config, outcome):
    cluster, spec = finished(config, outcome)
    coordinator = cluster.node("c")
    assert coordinator.ctx(spec.txn_id) is None
    sent = []
    cluster.network.on_send.append(sent.append)
    coordinator.receive(late_frames(spec, outcome)["inquire"])
    assert [(m.msg_type, m.dst, m.payload["outcome"]) for m in sent] == \
        [(MessageType.OUTCOME, "s", outcome)]


def test_stale_yes_vote_after_forgotten_abort_gets_abort(config):
    cluster, spec = finished(config, "abort")
    sent = []
    cluster.network.on_send.append(sent.append)
    cluster.node("c").receive(late_frames(spec, "abort")["vote-yes"])
    assert [m.msg_type for m in sent] == [MessageType.ABORT]


def test_duplicate_enrollment_after_forget_redoes_nothing(config):
    cluster, spec = finished(config, "commit")
    sub = cluster.node("s")
    writes = len(sub.log.all_records())
    sub.receive(late_frames(spec, "commit")["enroll"])
    cluster.run()
    assert sub.ctx(spec.txn_id) is None
    assert sub.final_state(spec.txn_id) is TxnState.FORGOTTEN
    assert len(sub.log.all_records()) == writes


def crossing_abort_run(config):
    """The abort reaches s while its prepared force is still on disk:
    s finishes the abort, then the force completes and moves the
    finished context on (it votes YES and is aborted again)."""
    cluster = Cluster(config.with_options(io_latency=5.0),
                      nodes=["c", "s", "v"])
    trace = []
    cluster.network.on_send.append(lambda m: trace.append(
        ("send", m.msg_type.value, m.src, m.dst)))
    for node in cluster.nodes.values():
        node.log.on_write.append(lambda r: trace.append(
            ("write", r.node, r.record_type.value)))
    spec = TransactionSpec(txn_id="t1", participants=[
        ParticipantSpec(node="c", ops=[write_op("kc", 1)]),
        ParticipantSpec(node="s", parent="c", ops=[write_op("ks", 1)]),
        ParticipantSpec(node="v", parent="c", veto=True)])
    handle = cluster.run_transaction(spec)
    assert handle.aborted
    return trace, cluster.node("s").final_state("t1")


def test_abort_crossing_a_prepare_force_matches_a_remembering_node(
        config, monkeypatch):
    forgetting = crossing_abort_run(config)
    with monkeypatch.context() as patch:
        keep_everything(patch)
        remembering = crossing_abort_run(config)
    assert forgetting == remembering
    assert ("send", "vote-yes", "s", "c") in forgetting[0]


# ----------------------------------------------------------------------
# A real in-doubt subordinate whose coordinator already forgot
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crash_coordinator", [False, True])
@pytest.mark.parametrize("name, outcome", [("pa", "abort"),
                                           ("pc", "commit")])
def test_in_doubt_subordinate_inquires_after_coordinator_forgot(
        name, outcome, crash_coordinator):
    """PA aborts and PC commits without waiting for acks, so the
    coordinator forgets while a subordinate whose decision was lost is
    still in doubt.  Its inquiry is answered from the tombstone, or
    after a coordinator restart from the log and the presumption."""
    config = PRESUMPTIONS[name].with_options(inquiry_timeout=20.0,
                                             retry_interval=20.0)
    cluster = Cluster(config, nodes=["c", "s", "v"])
    spec = TransactionSpec(txn_id="t1", participants=[
        ParticipantSpec(node="c", ops=[write_op("kc", 1)]),
        ParticipantSpec(node="s", parent="c", ops=[write_op("ks", 1)]),
        ParticipantSpec(node="v", parent="c", ops=[write_op("kv", 1)],
                        veto=outcome == "abort")])
    decision = (MessageType.COMMIT if outcome == "commit"
                else MessageType.ABORT)
    cluster.network.set_drop_filter(
        lambda m: m.msg_type is decision and m.dst == "s")
    if crash_coordinator:
        cluster.crash_at("c", 12.0)
        cluster.restart_at("c", 13.0)
    coordinator = cluster.node("c")
    at_inquiry = []
    cluster.network.on_deliver.append(
        lambda m: at_inquiry.append(
            (coordinator.ctx(m.txn_id), coordinator.final_state(m.txn_id)))
        if m.msg_type is MessageType.INQUIRE else None)
    cluster.start_transaction(spec)
    cluster.run_until(200.0)
    context, state = at_inquiry[0]
    assert context is None
    if not crash_coordinator:
        assert state is TxnState.FORGOTTEN
    assert cluster.node("s").final_state("t1") is TxnState.FORGOTTEN
    assert cluster.recorded_outcome("s", "t1") == outcome
    assert cluster.value("s", "ks") == (1 if outcome == "commit" else None)


# ----------------------------------------------------------------------
# Bounded state over a long run
# ----------------------------------------------------------------------
def test_long_run_keeps_only_implied_ack_waiters():
    """2,000 serial transactions (a quarter delegating to a last agent,
    a quarter with a read-only voter): only contexts still owed an
    implied acknowledgment remain, and the RMs forget their state."""
    config = PRESUMED_ABORT.with_options(last_agent=True)
    cluster = Cluster(config, nodes=["c", "s", "r"])
    for index in range(2000):
        spec = tree(f"t{index}", veto=index % 10 == 9)
        if index % 4 == 3:
            spec.participant("s").last_agent = True
        if index % 4 != 1:
            spec.participant("r").ops = [write_op("kr", index)]
        cluster.run_transaction(spec)
    waiters = 0
    for node in cluster.nodes.values():
        assert len(node.contexts) == len(node.implied_ack_waiters())
        assert all(c.awaiting_implied_ack for c in node.contexts.values())
        waiters += len(node.contexts)
        for rm in node.all_rms():
            assert set(rm._txns) <= set(node.contexts)
    assert waiters == 1     # the agent is owed the last delegation's ack
    cluster.finalize_implied_acks()
    assert sum(len(n.contexts) for n in cluster.nodes.values()) == 0


def test_forgotten_context_is_freed_without_gc(config):
    """Reference counting alone frees a finished transaction's contexts:
    nothing forgotten is kept alive by a reference cycle."""
    cluster = Cluster(config, nodes=["c", "s", "r"])
    refs = []
    for node in cluster.nodes.values():
        node.on_transition.append(
            lambda name, txn, old, new, node=node:
            refs.append(weakref.ref(node.ctx(txn))) if old is None else None)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        handle = cluster.run_transaction(tree("t1", veto=False))
        assert handle.committed
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Observers see the same open and in-doubt transactions
# ----------------------------------------------------------------------
def blocked_run():
    """Five clean commits plus one whose COMMIT to s is lost: c waits
    for the ack in COMMITTING, s is in doubt."""
    cluster = Cluster(PRESUMED_ABORT, nodes=["c", "s", "r"])
    series = SimTimeSeries(interval=1.0).attach(cluster)
    console = OperatorConsole(cluster)
    admin = AdminServer(cluster, console=console)
    for index in range(5):
        cluster.run_transaction(tree(f"ok{index}", veto=False))
    cluster.network.set_drop_filter(
        lambda m: m.msg_type is MessageType.COMMIT and m.dst == "s")
    cluster.start_transaction(tree("blocked", veto=False))
    cluster.run_until(cluster.simulator.now + 50.0)
    status = admin._status()[2]
    gauges = {name: list(points) for name, points in series.series.items()}
    return cluster, status, console.in_doubt_transactions(), gauges


def test_status_counts_match_a_node_that_keeps_everything(monkeypatch):
    cluster, status, in_doubt, gauges = blocked_run()
    with monkeypatch.context() as patch:
        keep_everything(patch)
        kept, kept_status, kept_in_doubt, kept_gauges = blocked_run()
    # Kept: three contexts per clean commit plus the blocked reader's.
    assert sum(len(n.contexts) for n in kept.nodes.values()) == \
        sum(len(n.contexts) for n in cluster.nodes.values()) + 16
    counts = json.loads(status)["transactions"]
    assert counts["open"] == 2 and counts["in_doubt"] == 1
    assert counts == json.loads(kept_status)["transactions"]
    assert [(e.node, e.txn_id) for e in in_doubt] == [("s", "blocked")]
    assert in_doubt == kept_in_doubt
    assert gauges == kept_gauges
