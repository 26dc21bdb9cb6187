"""Flight-recorder journal: the canonical record of one run's schedule.

The simulator is deterministic, so *everything the paper's cost model
counts* — message flows, log writes, forced writes, lock holds — can
be captured as an append-only, causally-ordered event journal and
replayed as an oracle: two runs that are supposed to be equivalent
(wheel vs heap scheduler, serial vs parallel sweep shards, a live
transport vs its simulated twin) must produce journals that the
:mod:`repro.obs.diff` differ finds equivalent, and any divergence is
localized to the first causally-divergent event.

One journal entry is emitted per observable action, with a **stable
id** (``eid``, dense emission order) and **causal parent ids**:

==========  =========================================================
kind        meaning / causal parents
==========  =========================================================
transition  commit-context state change; parents: previous entry at
            this node, plus — at context creation on a cascaded /
            subordinate node — the latest entry of the same txn at
            the parent node (the parent/child txn edge)
send        a flow left ``src``; parent: previous entry at ``src``
deliver     the flow reached ``dst``; parents: its ``send`` entry
            (message edge) and the previous entry at ``dst``
write       a log record was appended; ``forced`` marks force
            requests
harden      the record reached stable storage; parents: its ``write``
            entry (force->ack edge) and the previous entry at the log
wait        a lock request parked in the wait queue
grant       a lock was granted; parent: its ``wait`` entry if any
release     strict-2PL release; parent: its ``grant`` entry
kernel      (opt-in) a simulator event dispatch
==========  =========================================================

Every entry also carries the protocol phase the (txn, node) pair was
in when the action happened, so divergence reports can say *where in
the protocol* two runs forked.

Entries are kept as a list of :class:`JournalEntry` objects.
Serialisation is schema-versioned JSONL: a header line naming
:data:`SCHEMA`, then one entry per line.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.hooks import Observer

#: Journal wire-format version; bumped on any incompatible change.
SCHEMA = "repro-journal/1"

#: Phase stamped on entries hitting a (txn, node) pair before any
#: commit context exists there (mirrors repro.obs.ledger.IDLE_PHASE).
IDLE_PHASE = "idle"

#: JSONL fields, in serialisation order.
_FIELDS = ("eid", "t", "kind", "node", "txn", "phase", "ref", "peer",
           "lsn", "forced", "parents")

#: (txn, node) protocol states that count as settled for orphan
#: detection — anything else at journal end is an abandoned span.
SETTLED_STATES = frozenset({
    "committed", "aborted", "forgotten", "read-only-done",
    "heuristic-committed", "heuristic-aborted",
})


class JournalEntry:
    """One observable action: stable id, causal parents, location.

    ``ref``/``peer`` are the kind-specific payload: message type and
    destination for ``send``, record type for ``write``/``harden``
    (with ``lsn``/``forced``), lock key and mode for ``wait``/
    ``grant``/``release``, new and old state for ``transition``.
    """

    __slots__ = ("eid", "t", "kind", "node", "txn", "phase", "ref",
                 "peer", "lsn", "forced", "parents")

    def __init__(self, eid: int, t: float, kind: str, node: str,
                 txn: Optional[str], phase: Optional[str],
                 ref: Optional[str] = None, peer: Optional[str] = None,
                 lsn: Optional[int] = None, forced: Optional[bool] = None,
                 parents: Sequence[int] = ()) -> None:
        self.eid = eid
        self.t = t
        self.kind = kind
        self.node = node
        self.txn = txn
        self.phase = phase
        self.ref = ref
        self.peer = peer
        self.lsn = lsn
        self.forced = forced
        self.parents = tuple(parents)

    # ------------------------------------------------------------------
    def signature(self, with_time: bool = True) -> Tuple:
        """What the differ compares: everything but ids and parents."""
        base = (self.kind, self.node, self.txn, self.phase, self.ref,
                self.peer, self.lsn, self.forced)
        return base + (self.t,) if with_time else base

    def describe(self) -> str:
        """One-line human rendering used in diff and watchdog output."""
        parts = [self.kind]
        if self.ref is not None:
            parts.append(self.ref)
        body = ":".join(parts)
        where = f"@{self.node}"
        if self.kind == "send" and self.peer is not None:
            where = f"{self.node}->{self.peer}"
        elif self.kind == "deliver" and self.peer is not None:
            where = f"{self.peer}->{self.node}"
        elif self.peer is not None:
            body += f"({self.peer})"
        extras = []
        if self.lsn is not None:
            extras.append(f"lsn={self.lsn}")
        if self.forced:
            extras.append("forced")
        if self.txn is not None:
            extras.append(f"txn={self.txn}")
        if self.phase is not None:
            extras.append(f"phase={self.phase}")
        extras.append(f"t={self.t:g}")
        return f"{body} {where} [{', '.join(extras)}]"

    def to_dict(self) -> Dict[str, object]:
        return {
            "eid": self.eid, "t": self.t, "kind": self.kind,
            "node": self.node, "txn": self.txn, "phase": self.phase,
            "ref": self.ref, "peer": self.peer, "lsn": self.lsn,
            "forced": self.forced, "parents": list(self.parents),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JournalEntry":
        return cls(eid=data["eid"], t=data["t"], kind=data["kind"],
                   node=data["node"], txn=data.get("txn"),
                   phase=data.get("phase"), ref=data.get("ref"),
                   peer=data.get("peer"), lsn=data.get("lsn"),
                   forced=data.get("forced"),
                   parents=data.get("parents") or ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, JournalEntry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"<JournalEntry #{self.eid} {self.describe()}>"


class JournalRecorder(Observer):
    """Records a cluster run as a causally-linked journal.

    Attach and detach follow :class:`~repro.core.hooks.Observer`.
    ``kernel_events`` additionally journals every simulator event
    dispatch (huge — debugging only).
    """

    def __init__(self, kernel_events: bool = False) -> None:
        self.kernel_events = kernel_events
        self._entries: List[JournalEntry] = []
        # Causal bookkeeping.
        self._last_at_site: Dict[str, int] = {}
        self._last_txn_site: Dict[Tuple[str, str], int] = {}
        self._states: Dict[Tuple[str, str], str] = {}
        self._sends: Dict[int, int] = {}          # msg_id -> send eid
        self._writes: Dict[Tuple[str, int], int] = {}  # (site, lsn) -> eid
        self._waits: Dict[Tuple[str, str, str], int] = {}
        self._grants: Dict[Tuple[str, str, str], int] = {}

    def handlers(self, cluster) -> Dict[str, Callable]:
        handlers = {"send": self._on_send, "deliver": self._on_deliver,
                    "transition": self._on_transition,
                    "write": self._on_write, "flush": self._on_flush,
                    "wait": self._on_wait, "grant": self._on_grant,
                    "release": self._on_release}
        if self.kernel_events:
            handlers["event"] = self._on_kernel
        return handlers

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    @property
    def _now(self) -> float:
        return self.cluster.simulator.now if self.cluster else 0.0

    def _emit(self, kind: str, site: str, txn: Optional[str],
              phase: Optional[str], ref: Optional[str] = None,
              peer: Optional[str] = None, lsn: Optional[int] = None,
              forced: Optional[bool] = None,
              extra_parents: Sequence[Optional[int]] = ()) -> int:
        eid = len(self._entries)
        parents: List[int] = []
        previous = self._last_at_site.get(site)
        if previous is not None:
            parents.append(previous)
        for parent in extra_parents:
            if parent is not None and parent not in parents:
                parents.append(parent)
        self._entries.append(JournalEntry(
            eid=eid, t=self._now, kind=kind, node=site, txn=txn,
            phase=phase, ref=ref, peer=peer, lsn=lsn, forced=forced,
            parents=parents))
        self._last_at_site[site] = eid
        if txn is not None:
            self._last_txn_site[(txn, site)] = eid
        return eid

    def _phase(self, txn: Optional[str], site: str) -> str:
        # Detached own-log RMs journal under "node/rm"; protocol state
        # lives at the owning node.
        node = site.split("/", 1)[0]
        return self._states.get((txn, node), IDLE_PHASE)

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_transition(self, node: str, txn_id: str, old, new) -> None:
        extra: List[Optional[int]] = []
        if old is None:
            # Context creation: link the parent/child txn edge so the
            # causal DAG shows who enrolled this node.
            context = self.cluster.nodes[node].ctx(txn_id)
            parent_node = getattr(context, "parent", None)
            if parent_node is not None:
                extra.append(self._last_txn_site.get((txn_id, parent_node)))
        self._states[(txn_id, node)] = new.value
        self._emit("transition", node, txn_id, new.value, ref=new.value,
                   peer=old.value if old is not None else None,
                   extra_parents=extra)

    def _on_send(self, message) -> None:
        eid = self._emit("send", message.src, message.txn_id,
                         self._phase(message.txn_id, message.src),
                         ref=message.msg_type.value, peer=message.dst)
        self._sends[message.msg_id] = eid

    def _on_deliver(self, message) -> None:
        self._emit("deliver", message.dst, message.txn_id,
                   self._phase(message.txn_id, message.dst),
                   ref=message.msg_type.value, peer=message.src,
                   extra_parents=[self._sends.pop(message.msg_id, None)])

    def _on_write(self, record) -> None:
        site = record.node
        eid = self._emit("write", site, record.txn_id,
                         self._phase(record.txn_id, site),
                         ref=record.record_type.value, lsn=record.lsn,
                         forced=record.forced)
        self._writes[(site, record.lsn)] = eid

    def _on_flush(self, durable) -> None:
        for record in durable:
            site = record.node
            self._emit("harden", site, record.txn_id,
                       self._phase(record.txn_id, site),
                       ref=record.record_type.value, lsn=record.lsn,
                       extra_parents=[
                           self._writes.pop((site, record.lsn), None)])

    def _on_wait(self, node: str, txn_id: str, key: str, mode) -> None:
        eid = self._emit("wait", node, txn_id, self._phase(txn_id, node),
                         ref=key, peer=getattr(mode, "value", str(mode)))
        self._waits[(node, txn_id, key)] = eid

    def _on_grant(self, node: str, txn_id: str, key: str, mode) -> None:
        eid = self._emit("grant", node, txn_id, self._phase(txn_id, node),
                         ref=key, peer=getattr(mode, "value", str(mode)),
                         extra_parents=[
                             self._waits.pop((node, txn_id, key), None)])
        self._grants[(node, txn_id, key)] = eid

    def _on_release(self, node: str, txn_id: str, key: str) -> None:
        self._emit("release", node, txn_id, self._phase(txn_id, node),
                   ref=key,
                   extra_parents=[
                       self._grants.pop((node, txn_id, key), None)])

    def _on_kernel(self, event) -> None:
        self._emit("kernel", "kernel", None, None,
                   ref=getattr(event, "name", "") or "event")

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[JournalEntry]:
        return list(self._entries)

    def to_jsonl(self, meta: Optional[Dict[str, object]] = None) -> str:
        return journal_to_jsonl(self.entries(), meta=meta)


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def journal_to_jsonl(entries: Sequence[JournalEntry],
                     meta: Optional[Dict[str, object]] = None) -> str:
    """Header line + one JSON object per entry, in eid order."""
    header = {"schema": SCHEMA, "meta": dict(meta or {})}
    lines = [json.dumps(header, sort_keys=True)]
    for entry in sorted(entries, key=lambda e: e.eid):
        lines.append(json.dumps(entry.to_dict(), sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines)


def journal_from_jsonl(text: str
                       ) -> Tuple[Dict[str, object], List[JournalEntry]]:
    """Parse a journal; returns (meta, entries).

    Raises :class:`ValueError` naming the offending line for malformed
    JSON, missing fields, or an unsupported schema version.
    """
    meta: Optional[Dict[str, object]] = None
    entries: List[JournalEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {lineno}: invalid JSON: {error}")
        if meta is None:
            schema = data.get("schema")
            if schema != SCHEMA:
                raise ValueError(
                    f"line {lineno}: unsupported journal schema "
                    f"{schema!r} (this reader handles {SCHEMA!r})")
            meta = dict(data.get("meta") or {})
            continue
        missing = [f for f in ("eid", "t", "kind", "node")
                   if f not in data]
        if missing:
            raise ValueError(f"line {lineno}: journal entry missing "
                             f"field(s) {', '.join(missing)}")
        entries.append(JournalEntry.from_dict(data))
    if meta is None:
        raise ValueError("empty journal: no schema header line")
    return meta, entries


def normalize_txn_ids(entries: Sequence[JournalEntry]
                      ) -> List[JournalEntry]:
    """Rewrite txn ids to ``t0, t1, ...`` by first appearance.

    Transaction ids draw from a process-global counter, so two
    recordings of the same workload in one process name their
    transactions differently; normalizing makes such journals
    comparable.  Returns new entries; the input is left untouched.
    """
    alias: Dict[str, str] = {}
    out: List[JournalEntry] = []
    for entry in entries:
        txn = entry.txn
        if txn is not None:
            short = alias.get(txn)
            if short is None:
                short = f"t{len(alias)}"
                alias[txn] = short
            txn = short
        out.append(JournalEntry(
            eid=entry.eid, t=entry.t, kind=entry.kind, node=entry.node,
            txn=txn, phase=entry.phase, ref=entry.ref, peer=entry.peer,
            lsn=entry.lsn, forced=entry.forced, parents=entry.parents))
    return out
