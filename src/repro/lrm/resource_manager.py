"""The local resource manager: a 2PC participant owning local data.

Two accounting modes, matching how the paper counts participants:

* **integrated** (default): the resource manager is part of its node's
  transaction-manager participant.  It writes only data (WAL) records
  to the node's shared log; the TM's prepared/committed forces make
  them durable, and the TM's protocol records are the participant's
  records.  This is the configuration behind the baseline rows of
  Tables 2-4.

* **detached**: the resource manager is its own participant, reached
  by local flows, writing its own prepared/committed/end records.
  With its own log those records are forced like any subordinate's;
  under the **shared-log optimization** it writes them non-forced into
  the TM's log and rides the TM's commit force (Table 2's "PA & Shared
  logs" row: 3 writes, 0 forced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

from repro.errors import DeadlockError
from repro.log.manager import LogManager
from repro.log.records import LogRecordType
from repro.lrm.kv import KVStore
from repro.lrm.locks import LockManager, LockMode
from repro.lrm.operations import Operation
from repro.metrics.collector import MetricsCollector
from repro.sim.kernel import Simulator


class Vote(Enum):
    """A participant's reply to prepare."""

    YES = "yes"
    NO = "no"
    READ_ONLY = "read-only"


@dataclass
class _TxnState:
    has_updates: bool = False
    prepared: bool = False
    finished: bool = False
    keys_touched: Set[str] = field(default_factory=set)


class _Work:
    """One :meth:`ResourceManager.perform` call: its operations run in
    order, each once its lock is granted.  An object rather than nested
    closures that call each other, so finished work holds no reference
    cycle and is freed at once, not at the next garbage collection."""

    __slots__ = ("rm", "txn_id", "state", "remaining", "on_done",
                 "on_error", "epoch")

    def __init__(self, rm: "ResourceManager", txn_id: str,
                 state: _TxnState, operations: List[Operation],
                 on_done: Callable[[], None],
                 on_error: Optional[Callable[[Exception], None]]) -> None:
        self.rm = rm
        self.txn_id = txn_id
        self.state = state
        self.remaining = list(operations)
        self.on_done = on_done
        self.on_error = on_error
        self.epoch = rm.epoch

    def run_next(self) -> None:
        if self.rm.epoch != self.epoch:
            return  # the RM crashed since this work was scheduled
        if not self.remaining:
            self.on_done()
            return
        operation = self.remaining.pop(0)
        mode = LockMode.EXCLUSIVE if operation.is_update else LockMode.SHARED
        try:
            self.rm.locks.acquire(self.txn_id, operation.key, mode,
                                  lambda: self.apply(operation))
        except DeadlockError as error:
            if self.on_error is None:
                raise
            self.on_error(error)

    def apply(self, operation: Operation) -> None:
        rm = self.rm
        if rm.epoch != self.epoch:
            return
        txn_id = self.txn_id
        self.state.keys_touched.add(operation.key)
        if operation.is_update:
            previous = rm.store.read(txn_id, operation.key)
            rm.store.write(txn_id, operation.key, operation.value)
            self.state.has_updates = True
            # Data WAL record: never forced here; durability comes
            # from the prepare-time force (WAL rule).
            rm.log.write(txn_id, LogRecordType.LRM_UPDATE,
                         payload={"rm": rm.name,
                                  "key": operation.key,
                                  "value": operation.value,
                                  "previous": previous})
        else:
            rm.store.read(txn_id, operation.key)
        self.run_next()


class ResourceManager:
    """One LRM: data store + lock manager + 2PC participant hooks."""

    def __init__(self, name: str, node_name: str, simulator: Simulator,
                 metrics: MetricsCollector, log: LogManager,
                 lock_manager: Optional[LockManager] = None,
                 store: Optional[KVStore] = None,
                 reliable: bool = False,
                 detached: bool = False,
                 shares_tm_log: bool = True) -> None:
        self.name = name
        self.node_name = node_name
        self.simulator = simulator
        self.metrics = metrics
        self.log = log
        self.locks = lock_manager or LockManager(simulator, metrics,
                                                 name=f"{name}-locks")
        self.store = store or KVStore()
        self.reliable = reliable
        self.detached = detached
        self.shares_tm_log = shares_tm_log
        self._txns: Dict[str, _TxnState] = {}
        #: Bumped on crash so callbacks scheduled before the crash
        #: (lock grants, force completions) cannot act afterwards.
        self.epoch = 0
        #: Metrics attribution tag when this RM is its own participant.
        self.owner_tag = f"{node_name}/{name}"
        #: Test hook: force the next prepare of a txn to vote NO.
        self.veto_txns: Set[str] = set()

    # ------------------------------------------------------------------
    # Data phase
    # ------------------------------------------------------------------
    def perform(self, txn_id: str, operations: List[Operation],
                on_done: Callable[[], None],
                on_error: Optional[Callable[[Exception], None]] = None
                ) -> None:
        """Run operations under 2PL; callbacks fire when all complete."""
        state = self._txns.setdefault(txn_id, _TxnState())
        if state.prepared:
            raise RuntimeError(
                f"txn {txn_id} already prepared at {self.name}; "
                f"no further work allowed")
        _Work(self, txn_id, state, operations, on_done, on_error).run_next()

    # ------------------------------------------------------------------
    # 2PC participant hooks (invoked by the local transaction manager)
    # ------------------------------------------------------------------
    def prepare(self, txn_id: str,
                on_vote: Callable[[Vote], None],
                allow_read_only: bool = True) -> None:
        """Phase one.

        With ``allow_read_only`` (the optimization enabled), an RM with
        no updates votes read-only and releases its locks immediately.
        Without it (the Section 2 baseline), the same RM is a full
        participant: it votes YES, keeps its locks and waits for phase
        two like everyone else.
        """
        state = self._txns.setdefault(txn_id, _TxnState())
        state.prepared = True
        if self.detached:
            self.metrics.record_local_flow(self.node_name, "prepare", txn_id)

        if txn_id in self.veto_txns:
            self.veto_txns.discard(txn_id)
            self._finish(txn_id, committed=False, log_record=False)
            self._vote(txn_id, Vote.NO, on_vote)
            return

        if not state.has_updates and allow_read_only:
            # Read-only optimization: no phase two, no log records, and
            # locks are released right now (the serializability hazard
            # the paper warns about in peer environments).
            self._finish(txn_id, committed=True, log_record=False)
            self._vote(txn_id, Vote.READ_ONLY, on_vote)
            return

        if self.detached:
            force = not self.shares_tm_log
            self.log.write(
                txn_id, LogRecordType.LRM_PREPARED,
                payload={"rm": self.name, "reliable": self.reliable},
                force=force, owner=self.owner_tag,
                on_durable=(lambda: self._vote(txn_id, Vote.YES, on_vote))
                if force else None)
            if not force:
                self._vote(txn_id, Vote.YES, on_vote)
            return

        # Integrated mode: the TM's own prepared force will carry this
        # RM's LRM_UPDATE records to stable storage; nothing to log here.
        self._vote(txn_id, Vote.YES, on_vote)

    def _vote(self, txn_id: str, vote: Vote,
              on_vote: Callable[[Vote], None]) -> None:
        if self.detached:
            self.metrics.record_local_flow(self.node_name, "vote", txn_id)
        on_vote(vote)

    def commit(self, txn_id: str,
               on_done: Optional[Callable[[], None]] = None) -> None:
        """Phase two, commit outcome."""
        if self.detached:
            self.metrics.record_local_flow(self.node_name, "commit", txn_id)
            force = not self.shares_tm_log
            if force:
                self.log.write(txn_id, LogRecordType.LRM_COMMITTED,
                               payload={"rm": self.name}, force=True,
                               owner=self.owner_tag,
                               on_durable=lambda: self._commit_done(
                                   txn_id, on_done))
            else:
                self.log.write(txn_id, LogRecordType.LRM_COMMITTED,
                               payload={"rm": self.name}, owner=self.owner_tag)
                self._commit_done(txn_id, on_done)
            return

        self._finish(txn_id, committed=True, log_record=False)
        if on_done is not None:
            on_done()

    def _commit_done(self, txn_id: str,
                     on_done: Optional[Callable[[], None]]) -> None:
        # The participant's forget record; non-forced in every variant.
        self.log.write(txn_id, LogRecordType.LRM_END,
                       payload={"rm": self.name}, owner=self.owner_tag)
        self._finish(txn_id, committed=True, log_record=False)
        self.metrics.record_local_flow(self.node_name, "ack", txn_id)
        if on_done is not None:
            on_done()

    def abort(self, txn_id: str,
              on_done: Optional[Callable[[], None]] = None,
              force_record: bool = False) -> None:
        """Phase two, abort outcome (or local rollback before voting)."""
        if self.detached:
            self.metrics.record_local_flow(self.node_name, "abort", txn_id)
            self.log.write(txn_id, LogRecordType.LRM_ABORTED,
                           payload={"rm": self.name}, force=force_record,
                           owner=self.owner_tag,
                           on_durable=(lambda: self._abort_done(
                               txn_id, on_done)) if force_record else None)
            if not force_record:
                self._abort_done(txn_id, on_done)
            return
        self._finish(txn_id, committed=False, log_record=False)
        if on_done is not None:
            on_done()

    def _abort_done(self, txn_id: str,
                    on_done: Optional[Callable[[], None]]) -> None:
        self._finish(txn_id, committed=False, log_record=False)
        self.metrics.record_local_flow(self.node_name, "ack", txn_id)
        if on_done is not None:
            on_done()

    def _finish(self, txn_id: str, committed: bool,
                log_record: bool) -> None:
        state = self._txns.get(txn_id)
        if state is None or state.finished:
            return
        state.finished = True
        if committed:
            self.store.commit(txn_id)
        else:
            self.store.abort(txn_id)
        self.locks.release_all(txn_id)

    # ------------------------------------------------------------------
    # Crash / recovery support
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Volatile state (store contents, lock table, txn states) is lost."""
        self.epoch += 1
        self.store = KVStore()
        self.locks = LockManager(self.simulator, self.metrics,
                                 name=f"{self.name}-locks")
        self._txns.clear()

    def forget(self, txn_id: str) -> None:
        """The TM forgot the transaction: drop its finished state."""
        state = self._txns.get(txn_id)
        if state is not None and state.finished:
            del self._txns[txn_id]

    def redo(self, txn_id: str, key: str, value: object) -> None:
        """Reapply a committed (or in-doubt) update during restart."""
        self.store.redo_write(key, value)

    def relock(self, txn_id: str, keys: Set[str]) -> None:
        """Re-acquire exclusive locks for an in-doubt transaction."""
        state = self._txns.setdefault(txn_id, _TxnState(has_updates=True,
                                                        prepared=True))
        state.keys_touched |= keys
        for key in sorted(keys):
            self.locks.acquire(txn_id, key, LockMode.EXCLUSIVE, lambda: None)

    def resolve_in_doubt(self, txn_id: str, commit: bool) -> None:
        """Apply the recovered outcome to a re-locked in-doubt txn."""
        state = self._txns.get(txn_id)
        if state is None or state.finished:
            return
        if not commit:
            # Redo already applied the updates; undo them via the log's
            # 'previous' images is handled by the recovery driver; here
            # we only release resources.
            pass
        state.finished = True
        if commit:
            self.store.commit(txn_id)
        else:
            self.store.abort(txn_id)
        self.locks.release_all(txn_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def has_updates(self, txn_id: str) -> bool:
        state = self._txns.get(txn_id)
        return bool(state and state.has_updates)

    def keys_touched(self, txn_id: str) -> Set[str]:
        state = self._txns.get(txn_id)
        return set(state.keys_touched) if state else set()

    def is_finished(self, txn_id: str) -> bool:
        state = self._txns.get(txn_id)
        return bool(state and state.finished)
