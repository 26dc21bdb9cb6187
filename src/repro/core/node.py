"""The transaction-manager node.

A :class:`TMNode` owns one log manager, one integrated resource
manager (plus optional detached ones), its conversation sessions with
partner nodes, and the per-transaction commit contexts.  The protocol
logic itself lives in the mixins:

* :class:`~repro.core.voting.VotingMixin` — phase one;
* :class:`~repro.core.decision.DecisionMixin` — phase two;
* :class:`~repro.core.heuristics.HeuristicMixin` — heuristic decisions;
* :class:`~repro.core.recovery.RecoveryMixin` — crash restart,
  inquiries and retries.

This module provides the plumbing they share: message sending with
long-locks deferral and piggybacking, receive dispatch, the data
(enrollment) phase, session bookkeeping for OK-TO-LEAVE-OUT, and
crash/restart entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.context import CommitContext, Tombstone
from repro.core.decision import DecisionMixin
from repro.core.handle import TransactionHandle
from repro.core.heuristics import HeuristicMixin
from repro.core.recovery import RecoveryMixin
from repro.core.spec import ParticipantSpec, TransactionSpec
from repro.core.states import TxnState
from repro.core.voting import VotingMixin
from repro.errors import ProtocolError
from repro.log.manager import LogManager
from repro.log.records import LogRecordType
from repro.lrm.resource_manager import ResourceManager
from repro.metrics.collector import MetricsCollector, RecoveryRecord
from repro.net.message import Message, MessageType, Phase
from repro.net.network import Network
from repro.sim.kernel import Simulator


@dataclass
class Session:
    """A standing conversation with a partner I habitually coordinate.

    ``leavable`` records the protected OK-TO-LEAVE-OUT promise from the
    partner's last successful commit: it may be excluded from future
    transactions in which no data is exchanged with it.
    """

    partner: str
    leavable: bool = False


class TMNode(VotingMixin, DecisionMixin, HeuristicMixin, RecoveryMixin):
    """One site: transaction manager + local resource managers."""

    def __init__(self, name: str, simulator: Simulator, network: Network,
                 metrics: MetricsCollector, config: ProtocolConfig,
                 reliable: bool = False) -> None:
        self.name = name
        self.simulator = simulator
        self.network = network
        self.metrics = metrics
        self.config = config
        self.alive = True
        self.log = LogManager(simulator, metrics, name,
                              io_latency=config.io_latency,
                              group_commit=config.group_commit)
        self.default_rm = ResourceManager(
            name="default", node_name=name, simulator=simulator,
            metrics=metrics, log=self.log, reliable=reliable)
        self.detached_rms: Dict[str, ResourceManager] = {}
        #: Open transactions only: a context leaves this map when it
        #: reaches a terminal state and a :class:`Tombstone` takes its
        #: place in ``tombstones`` (see DESIGN.md, "Forgetting").
        self.contexts: Dict[str, CommitContext] = {}
        self.tombstones: Dict[str, Tombstone] = {}
        #: Last-agent contexts awaiting a partner's implied ack, per
        #: partner, so a received message visits only its sender's.
        self._implied_ack_waiters: Dict[str, Dict[str, CommitContext]] = {}
        self._context_seq = 0
        self.sessions: Dict[str, Session] = {}
        self._deferred_outbox: Dict[str, List[Message]] = {}
        #: Trace hook: callables invoked with (node, txn_id, text).
        self.on_note: List[Callable[[str, str, str], None]] = []
        #: Phase-boundary hook: callables invoked with
        #: (node, txn_id, old_state, new_state) on every commit-context
        #: state transition (old_state is None at context creation).
        #: repro.obs builds span trees out of these.
        self.on_transition: List[Callable[
            [str, str, Optional[TxnState], TxnState], None]] = []
        #: Records processed by the last restart recovery (checkpoints
        #: bound this; see repro.core.checkpoint).
        self.last_recovery_scan = 0
        #: Crashes this node has suffered (the conformance auditor uses
        #: this to classify cost divergences as expected-under-faults).
        self.crash_count = 0
        network.register(name, self.receive, alive=lambda: self.alive)

    def take_checkpoint(
            self, on_durable: Optional[Callable[[], None]] = None) -> None:
        """Write a forced fuzzy checkpoint (bounds future restarts)."""
        from repro.core.checkpoint import take_checkpoint
        take_checkpoint(self, on_durable=on_durable)

    # ------------------------------------------------------------------
    # Resource managers
    # ------------------------------------------------------------------
    def add_detached_rm(self, rm_name: str, reliable: bool = False,
                        own_log: bool = False) -> ResourceManager:
        """Attach a detached RM (its own participant for accounting).

        With ``own_log`` it forces its records to a private log (the
        unshared baseline); otherwise it rides this TM's log, which is
        the shared-log optimization when config.shared_log is set.
        """
        if rm_name in self.detached_rms or rm_name == "default":
            raise ProtocolError(f"duplicate resource manager {rm_name!r}")
        if own_log:
            log: LogManager = LogManager(
                self.simulator, self.metrics, f"{self.name}/{rm_name}",
                io_latency=self.config.io_latency,
                group_commit=self.config.group_commit)
            shares = False
        else:
            log = self.log
            shares = self.config.shared_log
        rm = ResourceManager(
            name=rm_name, node_name=self.name, simulator=self.simulator,
            metrics=self.metrics, log=log, reliable=reliable,
            detached=True, shares_tm_log=shares)
        self.detached_rms[rm_name] = rm
        return rm

    def resource_manager(self, rm_name: str = "default") -> ResourceManager:
        if rm_name == "default":
            return self.default_rm
        return self.detached_rms[rm_name]

    def all_rms(self) -> List[ResourceManager]:
        return [self.default_rm] + list(self.detached_rms.values())

    def logs(self) -> List[LogManager]:
        """This node's distinct logs: the TM log first, then each
        detached RM's private log in attach order."""
        logs = [self.log]
        for rm in self.detached_rms.values():
            if rm.log not in logs:
                logs.append(rm.log)
        return logs

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def ctx(self, txn_id: str) -> Optional[CommitContext]:
        return self.contexts.get(txn_id)

    def require_ctx(self, txn_id: str) -> CommitContext:
        context = self.contexts.get(txn_id)
        if context is None:
            raise ProtocolError(f"{self.name}: no context for {txn_id}")
        return context

    def tombstone(self, txn_id: str) -> Optional[Tombstone]:
        """What is left of a transaction this node has forgotten."""
        return self.tombstones.get(txn_id)

    def final_state(self, txn_id: str) -> Optional[TxnState]:
        """The transaction's state here, open or forgotten (None if
        this node never knew it or lost it in a crash)."""
        context = self.contexts.get(txn_id)
        if context is not None:
            return context.state
        tombstone = self.tombstones.get(txn_id)
        return tombstone.state if tombstone is not None else None

    def _new_context(self, txn_id: str, **kwargs: Any) -> CommitContext:
        if txn_id in self.contexts or txn_id in self.tombstones:
            raise ProtocolError(
                f"{self.name}: context for {txn_id} already exists")
        context = CommitContext(txn_id=txn_id, node=self.name, **kwargs)
        self._context_seq += 1
        context.seq = self._context_seq
        self.contexts[txn_id] = context
        for hook in self.on_transition:
            hook(self.name, txn_id, None, context.state)
        return context

    def transition(self, context: CommitContext, state: TxnState) -> None:
        """Move a commit context to ``state``, firing phase hooks.

        Every protocol-level state change routes through here so
        observers (span tracers, debuggers) see the same boundaries the
        protocol acts on.  No-op transitions are swallowed.
        """
        old = context.state
        if old is state:
            return
        context.state = state
        for hook in self.on_transition:
            hook(self.name, context.txn_id, old, state)
        if state.terminal:
            self.evict(context)

    def evict(self, context: CommitContext) -> None:
        """Forget a finished context, keeping only its tombstone.

        A context with an obligation a tombstone cannot carry (a forced
        record whose callback has not run, or a wait-for-outcome
        release still owed upstream) stays until it is met.
        """
        txn_id = context.txn_id
        if not context.evictable() or self.contexts.get(txn_id) is not context:
            return
        del self.contexts[txn_id]
        self.tombstones[txn_id] = Tombstone(context)
        self._drop_implied_ack_waiter(context)
        for rm in self.all_rms():
            rm.forget(txn_id)

    def await_implied_ack(self, context: CommitContext) -> None:
        """The decision went to the delegator; its next message acks it."""
        context.awaiting_implied_ack = True
        self._implied_ack_waiters.setdefault(
            context.delegated_from, {})[context.txn_id] = context

    def _drop_implied_ack_waiter(self, context: CommitContext) -> None:
        waiters = self._implied_ack_waiters.get(context.delegated_from)
        if waiters is not None and waiters.pop(context.txn_id, None) \
                is not None and not waiters:
            del self._implied_ack_waiters[context.delegated_from]

    def implied_ack_waiters(self, partner: Optional[str] = None
                            ) -> List[CommitContext]:
        """Contexts awaiting an implied ack (from ``partner``, or from
        anyone), in creation order."""
        if partner is not None:
            waiters = list(self._implied_ack_waiters.get(partner, {})
                           .values())
        else:
            waiters = [context for group in
                       self._implied_ack_waiters.values()
                       for context in group.values()]
        if len(waiters) > 1:
            waiters.sort(key=lambda context: context.seq)
        return waiters

    def context_live(self, context: CommitContext) -> bool:
        """True iff this context is still the node's current state for
        its transaction.  Timer callbacks created before a crash hold
        references to pre-crash contexts; they must not act."""
        return self.alive and self.contexts.get(context.txn_id) is context

    # ------------------------------------------------------------------
    # Sending (with long-locks deferral and piggybacking)
    # ------------------------------------------------------------------
    def send(self, msg_type: MessageType, dst: str, txn_id: str,
             flags: Optional[Dict[str, Any]] = None,
             payload: Optional[Dict[str, Any]] = None,
             phase: Optional[Phase] = None,
             defer: bool = False) -> Optional[Message]:
        """Send (or defer) one protocol message.

        Deferred messages model the long-locks variation: they wait in
        an outbox and ride piggybacked on the next real message to the
        same destination, costing zero flows.
        """
        if not self.alive:
            return None  # a crashed node sends nothing
        message = Message(msg_type=msg_type, txn_id=txn_id, src=self.name,
                          dst=dst, phase=phase, flags=dict(flags or {}),
                          payload=dict(payload or {}))
        if defer:
            self._deferred_outbox.setdefault(dst, []).append(message)
            self.note(txn_id, f"defers {msg_type.value} to {dst} (long locks)")
            return None
        deferred = self._deferred_outbox.pop(dst, [])
        if deferred:
            message.payload.setdefault("piggyback", []).extend(deferred)
        self.network.send(message)
        return message

    def deferred_messages(self, dst: Optional[str] = None) -> List[Message]:
        if dst is not None:
            return list(self._deferred_outbox.get(dst, []))
        return [m for queue in self._deferred_outbox.values() for m in queue]

    def flush_deferred(self, dst: str) -> int:
        """Send deferred messages as real flows (end-of-chain cleanup)."""
        queue = self._deferred_outbox.pop(dst, [])
        for message in queue:
            self.network.send(message)
        return len(queue)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if not self.alive:
            return
        # Any traffic from a partner implies its outstanding last-agent
        # acknowledgments (paper §4: "the next data sent ... serves as
        # an implied acknowledgment").
        self.handle_implied_ack(message.src)
        self._dispatch(message)
        for piggybacked in message.payload.get("piggyback", []):
            self._dispatch(piggybacked)

    def _dispatch(self, message: Message) -> None:
        handlers = {
            MessageType.DATA: self.on_data,
            MessageType.PREPARE: self.on_prepare,
            MessageType.VOTE_YES: self.on_vote,
            MessageType.VOTE_NO: self.on_vote,
            MessageType.VOTE_READ_ONLY: self.on_vote,
            MessageType.COMMIT: self.on_outcome_message,
            MessageType.ABORT: self.on_outcome_message,
            MessageType.ACK: self.on_ack,
            MessageType.INQUIRE: self.on_inquire,
            MessageType.OUTCOME: self.on_recovery_outcome,
            MessageType.RECOVERY_ACK: self.on_recovery_ack,
        }
        handlers[message.msg_type](message)

    # ------------------------------------------------------------------
    # Data phase: enrollment and work tracking
    # ------------------------------------------------------------------
    def begin_transaction(self, spec: TransactionSpec) -> TransactionHandle:
        """Root entry point: enroll the tree, run the work, then commit."""
        if spec.root.node != self.name:
            raise ProtocolError(
                f"{self.name} is not the root of {spec.txn_id}")
        handle = TransactionHandle(spec.txn_id, started_at=self.simulator.now)
        context = self._enroll_local(spec, spec.root, parent=None,
                                     handle=handle)
        if self.config.work_timeout is not None and \
                context.state is TxnState.ACTIVE:
            self.simulator.timer(
                self.config.work_timeout,
                lambda: self._work_timeout(context),
                name=f"work-timeout:{spec.txn_id}")
        return handle

    def _work_timeout(self, context: CommitContext) -> None:
        """The application gave up waiting for the distributed work."""
        if not self.context_live(context) or \
                context.state is not TxnState.ACTIVE:
            return
        self.note(context.txn_id,
                  f"work timeout; abandoning (children pending: "
                  f"{sorted(context.children_work_pending)})")
        self._decide(context, "abort")

    def _enroll_local(self, spec: TransactionSpec,
                      participant: ParticipantSpec,
                      parent: Optional[str],
                      handle: Optional[TransactionHandle] = None
                      ) -> CommitContext:
        context = self._new_context(spec.txn_id, spec=spec,
                                    participant=participant, parent=parent)
        # Attach the handle before any work runs: trivial transactions
        # can commit synchronously within this call.
        context.handle = handle
        context.veto = participant.veto
        context.long_locks = spec.long_locks and self.config.long_locks
        children = spec.children_of(self.name)
        context.active_children = [c.node for c in children]
        if spec.await_work_done:
            context.children_work_pending = set(context.active_children)
        for child in children:
            self.sessions.setdefault(child.node, Session(partner=child.node))
            self.send(MessageType.DATA, child.node, spec.txn_id,
                      flags={"enroll": True},
                      payload={"spec": spec, "participant": child})
        if parent is not None and self.config.work_timeout is not None:
            # A participant may abort unilaterally any time before it
            # votes YES; if the coordinator dies before commit begins,
            # this is what frees the locks.
            self.simulator.timer(
                self.config.work_timeout,
                lambda: self._abandoned_timeout(context),
                name=f"txn-timeout:{spec.txn_id}@{self.name}")
        self._run_local_work(context, participant)
        return context

    def _abandoned_timeout(self, context: CommitContext) -> None:
        """No prepare ever arrived: the transaction was abandoned."""
        if not self.context_live(context) or \
                context.state is not TxnState.ACTIVE:
            return
        self.note(context.txn_id, "no commit processing arrived; "
                                  "aborting unilaterally")
        self._decide(context, "abort")

    def _run_local_work(self, context: CommitContext,
                        participant: ParticipantSpec) -> None:
        pending = []
        if participant.ops:
            pending.append(("default", participant.ops))
        for rm_name, ops in participant.rm_ops.items():
            pending.append((rm_name, ops))
        if participant.veto:
            for rm_name, __ in pending:
                self.resource_manager(rm_name).veto_txns.add(context.txn_id)
            # A participant with a veto but no ops still votes NO at
            # the TM level; context.veto covers that.
        if not pending:
            context.work_done = True
            self._work_complete_check(context)
            return
        remaining = {rm_name for rm_name, __ in pending}

        def one_done(rm_name: str) -> None:
            remaining.discard(rm_name)
            if not remaining:
                context.work_done = True
                self._work_complete_check(context)

        def one_failed(error: Exception) -> None:
            # Deadlock victim: the participant will veto the commit.
            context.veto = True
            self.note(context.txn_id, f"local work failed: {error}")
            remaining.clear()
            context.work_done = True
            self._work_complete_check(context)

        for rm_name, ops in pending:
            rm = self.resource_manager(rm_name)
            rm.perform(context.txn_id, ops,
                       on_done=(lambda n=rm_name: one_done(n)),
                       on_error=one_failed)

    def _work_complete_check(self, context: CommitContext) -> None:
        """Called whenever local work or a child's work completes."""
        if not context.work_done or context.children_work_pending:
            return
        if context.state is not TxnState.ACTIVE:
            return
        participant = context.participant
        if context.parent is None:
            # Root: the application's work is done; issue the commit.
            self.initiate_commit(context)
            return
        if participant is not None and participant.unsolicited_vote \
                and self.config.unsolicited_vote:
            self.send_unsolicited_vote(context)
            return
        if context.spec is not None and context.spec.await_work_done:
            self.send(MessageType.DATA, context.parent, context.txn_id,
                      flags={"work_done": True})
        if context.deferred_prepare:
            context.deferred_prepare = False
            self.start_voting(context)

    def on_data(self, message: Message) -> None:
        if message.flag("enroll"):
            if self.ctx(message.txn_id) is not None or \
                    message.txn_id in self.tombstones:
                # Duplicate delivery of the enrollment: the first copy
                # already built the context (or the transaction is past
                # it).  Re-enrolling would redo the local work and
                # crash _new_context, so at-least-once links make this
                # a pure no-op.
                return
            spec: TransactionSpec = message.payload["spec"]
            participant: ParticipantSpec = message.payload["participant"]
            self.sessions.setdefault(message.src, Session(partner=message.src))
            # Receiving work makes this partner active again: the
            # leave-out promise only covers transactions with no data.
            self._enroll_local(spec, participant, parent=message.src)
            return
        if message.flag("work_done"):
            context = self.ctx(message.txn_id)
            if context is None:
                tombstone = self.tombstone(message.txn_id)
                if tombstone is not None and tombstone.work_pending:
                    tombstone.work_pending.discard(message.src)
                return
            context.children_work_pending.discard(message.src)
            self._work_complete_check(context)
            return
        # Plain application data: nothing to do beyond the piggyback
        # processing already performed by receive().

    # ------------------------------------------------------------------
    # Logging helper
    # ------------------------------------------------------------------
    def log_tm(self, context: CommitContext, record_type: LogRecordType,
               payload: Optional[Dict[str, Any]] = None, force: bool = False,
               on_durable: Optional[Callable[[], None]] = None) -> None:
        context.logged_anything = True
        if on_durable is not None:
            on_durable = self._track_force(context, on_durable)
        self.log.write(context.txn_id, record_type, payload=payload,
                       force=force, on_durable=on_durable)

    def _track_force(self, context: CommitContext,
                     on_durable: Callable[[], None]) -> Callable[[], None]:
        """Hold ``context`` until its forced record's callback has run
        (a vote hardening after a crossing abort moves the finished
        context on again), then forget it if it is finished."""
        context.forces_in_flight += 1

        def durable() -> None:
            context.forces_in_flight -= 1
            on_durable()
            self.evict(context)

        return durable

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state: contexts, lock tables, log buffer."""
        self.alive = False
        self.crash_count += 1
        for context in self.contexts.values():
            context.cancel_timers()
        self.contexts.clear()
        self.tombstones.clear()
        self._implied_ack_waiters.clear()
        self._deferred_outbox.clear()
        for log in self.logs():
            log.crash()
        for rm in self.all_rms():
            rm.crash()
        self.note("-", "CRASH")

    def restart(self) -> None:
        """Come back up and run restart recovery from the stable log.

        Recovery wall-time and the replayed-record count feed the
        metrics collector — RTO is a first-class observable (report
        distribution, ``repro_recovery_seconds`` histogram, admin
        ``/status``).  Wall-time is real time even in simulation; only
        the twin-excluded duration metrics see it, so determinism of
        counter comparisons is untouched.
        """
        if self.alive:
            raise ProtocolError(f"{self.name} is not crashed")
        self.alive = True
        self.note("-", "RESTART")
        started = time.perf_counter()
        self.run_restart_recovery()
        self.metrics.record_recovery(RecoveryRecord(
            node=self.name,
            seconds=time.perf_counter() - started,
            records_replayed=self.last_recovery_scan,
            at_time=self.simulator.now,
            crash_count=self.crash_count))

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def note(self, txn_id: str, text: str) -> None:
        for hook in self.on_note:
            hook(self.name, txn_id, text)
