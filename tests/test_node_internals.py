"""TM-node plumbing: sessions, deferred outbox, piggybacking, dispatch."""

import pytest

from repro.analysis.sweeps import rows_to_csv
from repro.core.cluster import Cluster
from repro.core.config import PRESUMED_ABORT
from repro.core.spec import flat_tree
from repro.core.states import TxnState
from repro.errors import ProtocolError
from repro.log.records import LogRecordType
from repro.lrm.operations import write_op
from repro.net.message import Message, MessageType

from tests.conftest import updating_spec


@pytest.fixture
def cluster():
    return Cluster(PRESUMED_ABORT, nodes=["a", "b"])


class TestSendPlumbing:
    def test_deferred_message_waits_in_outbox(self, cluster):
        node = cluster.node("a")
        node.send(MessageType.ACK, "b", "t", defer=True,
                  payload={"reports": [], "outcome_pending": False})
        assert len(node.deferred_messages("b")) == 1
        assert cluster.network.sent == 0

    def test_next_send_drains_outbox_as_piggyback(self, cluster):
        node = cluster.node("a")
        node.send(MessageType.ACK, "b", "t", defer=True,
                  payload={"reports": [], "outcome_pending": False})
        captured = []
        cluster.network.on_send.append(captured.append)
        node.send(MessageType.DATA, "b", "t2")
        assert len(captured) == 1
        piggyback = captured[0].payload["piggyback"]
        assert len(piggyback) == 1
        assert piggyback[0].msg_type is MessageType.ACK
        assert node.deferred_messages("b") == []

    def test_flush_deferred_sends_standalone(self, cluster):
        node = cluster.node("a")
        node.send(MessageType.ACK, "b", "t", defer=True,
                  payload={"reports": [], "outcome_pending": False})
        assert node.flush_deferred("b") == 1
        assert cluster.network.sent == 1
        assert node.flush_deferred("b") == 0

    def test_crashed_node_sends_nothing(self, cluster):
        node = cluster.node("a")
        node.crash()
        assert node.send(MessageType.DATA, "b", "t") is None
        assert cluster.network.sent == 0

    def test_crash_clears_deferred_outbox(self, cluster):
        node = cluster.node("a")
        node.send(MessageType.ACK, "b", "t", defer=True,
                  payload={"reports": [], "outcome_pending": False})
        node.crash()
        assert node.deferred_messages() == []


class TestSessions:
    def test_sessions_created_on_enrollment(self, cluster):
        spec = updating_spec("a", ["b"])
        cluster.run_transaction(spec)
        assert "b" in cluster.node("a").sessions
        assert not cluster.node("a").sessions["b"].leavable

    def test_leavable_promise_recorded(self):
        cluster = Cluster(PRESUMED_ABORT.with_options(leave_out=True),
                          nodes=["a", "b"])
        spec = updating_spec("a", ["b"])
        spec.participant("b").ok_to_leave_out = True
        cluster.run_transaction(spec)
        assert cluster.node("a").sessions["b"].leavable

    def test_new_work_resets_leavable(self):
        cluster = Cluster(PRESUMED_ABORT.with_options(leave_out=True),
                          nodes=["a", "b"])
        first = updating_spec("a", ["b"])
        first.participant("b").ok_to_leave_out = True
        cluster.run_transaction(first)
        second = updating_spec("a", ["b"])   # no offer this time
        cluster.run_transaction(second)
        assert not cluster.node("a").sessions["b"].leavable


class TestContextManagement:
    def test_duplicate_context_rejected(self, cluster):
        node = cluster.node("a")
        node._new_context("dup")
        with pytest.raises(ProtocolError):
            node._new_context("dup")

    def test_require_ctx(self, cluster):
        node = cluster.node("a")
        with pytest.raises(ProtocolError):
            node.require_ctx("ghost")
        context = node._new_context("known")
        assert node.require_ctx("known") is context

    def test_context_live_tracks_crash(self, cluster):
        node = cluster.node("a")
        context = node._new_context("t")
        assert node.context_live(context)
        node.crash()
        assert not node.context_live(context)
        node.restart()
        assert not node.context_live(context)  # pre-crash object

    def test_forgotten_txn_id_cannot_be_reused(self, cluster):
        node = cluster.node("a")
        node.transition(node._new_context("done"), TxnState.FORGOTTEN)
        assert node.ctx("done") is None
        with pytest.raises(ProtocolError):
            node._new_context("done")
        node.crash()
        assert node.final_state("done") is None   # tombstones are volatile

    def test_implied_acks_apply_in_context_creation_order(self, cluster):
        """END records follow creation order, whatever order the
        contexts started waiting in."""
        node = cluster.node("a")
        contexts = [node._new_context(txn) for txn in ("t1", "t2", "t3")]
        for context in reversed(contexts):
            context.delegated_from = "b"
            context.outcome = "commit"
            context.logged_anything = True
            node.transition(context, TxnState.COMMITTED)
            node.await_implied_ack(context)
        assert node.implied_ack_waiters("b") == contexts
        node.receive(Message(msg_type=MessageType.DATA, txn_id="app",
                             src="b", dst="a"))
        ends = [r.txn_id for r in node.log.all_records()
                if r.record_type is LogRecordType.END]
        assert ends == ["t1", "t2", "t3"]
        assert node.implied_ack_waiters() == []
        assert node.contexts == {}

    def test_begin_requires_matching_root(self, cluster):
        spec = flat_tree("b", ["a"])
        spec.participant("b").ops.append(write_op("k", 1))
        with pytest.raises(ProtocolError, match="not the root"):
            cluster.node("a").begin_transaction(spec)

    def test_detached_rm_name_collisions_rejected(self, cluster):
        node = cluster.node("a")
        node.add_detached_rm("x")
        with pytest.raises(ProtocolError):
            node.add_detached_rm("x")
        with pytest.raises(ProtocolError):
            node.add_detached_rm("default")

    def test_resource_manager_lookup(self, cluster):
        node = cluster.node("a")
        rm = node.add_detached_rm("x")
        assert node.resource_manager("x") is rm
        assert node.resource_manager() is node.default_rm
        with pytest.raises(KeyError):
            node.resource_manager("ghost")


class TestSweepCsv:
    def test_csv_rendering(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        out = rows_to_csv(rows)
        assert out.splitlines() == ["a,b", "1,x", "2,y"]

    def test_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_csv_inconsistent_keys_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([{"a": 1}, {"b": 2}])
