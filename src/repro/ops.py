"""The operator console.

The paper treats heuristic decisions as something a human operator (or
an operator-configured policy) takes when in-doubt transactions hold
"valuable locks" too long, and damage as something "reported to the
subordinate system's operator".  This module is that surface: list
in-doubt transactions, inspect the damage log, force a heuristic
commit/abort (the CICS ``CEMT``-style verb), and kick recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.states import TxnState
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.collector import HeuristicEvent


@dataclass
class InDoubtEntry:
    """One in-doubt transaction as the operator sees it."""

    node: str
    txn_id: str
    coordinator: Optional[str]
    in_doubt_for: float          # virtual time spent in the window
    held_keys: List[str]
    phase: str = "prepared"      # protocol state holding the window open

    def __str__(self) -> str:
        keys = ", ".join(self.held_keys) or "-"
        return (f"{self.txn_id}@{self.node} (coordinator "
                f"{self.coordinator or '?'}): in doubt for "
                f"{self.in_doubt_for:.1f}, holding [{keys}]")

    def to_dict(self) -> Dict[str, object]:
        return {"node": self.node, "txn": self.txn_id,
                "coordinator": self.coordinator,
                "in_doubt_for": round(self.in_doubt_for, 6),
                "held_keys": list(self.held_keys), "phase": self.phase}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InDoubtEntry":
        return cls(node=data["node"], txn_id=data["txn"],
                   coordinator=data.get("coordinator"),
                   in_doubt_for=float(data.get("in_doubt_for", 0.0)),
                   held_keys=list(data.get("held_keys") or []),
                   phase=data.get("phase", "prepared"))


class OperatorConsole:
    """Inspect and intervene in one cluster's transaction state.

    ``cluster`` is anything exposing the shared cluster surface
    (``simulator`` / ``nodes`` / ``metrics``) — the simulated
    :class:`~repro.core.cluster.Cluster` or the live
    :class:`~repro.transport.live.LiveCluster`; the admin plane
    serves this console's verbs over HTTP for the latter.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def in_doubt_transactions(self,
                              node: Optional[str] = None
                              ) -> List[InDoubtEntry]:
        """Every transaction currently stuck in the in-doubt window."""
        entries = []
        now = self.cluster.simulator.now
        names = [node] if node else sorted(self.cluster.nodes)
        for name in names:
            tm = self.cluster.nodes[name]
            for context in tm.contexts.values():
                if context.state is not TxnState.PREPARED:
                    continue
                if context.is_decision_maker and \
                        context.last_agent_child is None:
                    continue
                held: List[str] = []
                for rm in tm.all_rms():
                    held.extend(sorted(rm.locks.held_keys(context.txn_id)))
                prepared = next(
                    (r for r in tm.log.records_for(context.txn_id)
                     if r.record_type.value == "prepared"), None)
                since = prepared.written_at if prepared else now
                entries.append(InDoubtEntry(
                    node=name, txn_id=context.txn_id,
                    coordinator=context.parent,
                    in_doubt_for=now - since, held_keys=held,
                    phase=context.state.value))
        return entries

    def damage_report(self) -> List[HeuristicEvent]:
        """All heuristic decisions whose damage status is known bad."""
        return self.cluster.metrics.damaged_heuristics()

    def heuristic_log(self) -> List[HeuristicEvent]:
        """Every heuristic decision taken in this cluster."""
        return list(self.cluster.metrics.heuristics)

    # ------------------------------------------------------------------
    # Intervention
    # ------------------------------------------------------------------
    def force_outcome(self, node: str, txn_id: str,
                      decision: str) -> None:
        """Manually take a heuristic decision for an in-doubt txn.

        The operator's judgement replaces the timer: the decision is
        force-logged, applied locally, and any later conflict with the
        tree's outcome is detected and reported as damage.
        """
        tm = self._node(node)
        context = tm.ctx(txn_id)
        state = tm.final_state(txn_id)
        if state is None:
            raise ProtocolError(f"{node} knows nothing about {txn_id}")
        if context is None or not tm.heuristic_decide(context, decision):
            raise ProtocolError(
                f"{txn_id}@{node} is not in doubt (state {state.value})")

    def force_commit(self, node: str, txn_id: str) -> None:
        self.force_outcome(node, txn_id, "commit")

    def force_abort(self, node: str, txn_id: str) -> None:
        self.force_outcome(node, txn_id, "abort")

    def resync(self, node: str, txn_id: str) -> None:
        """Kick recovery for an in-doubt transaction right now (send
        the inquiry without waiting for any timer)."""
        tm = self._node(node)
        context = tm.ctx(txn_id)
        if context is None or context.state is not TxnState.PREPARED:
            raise ProtocolError(f"{txn_id}@{node} is not in doubt")
        if tm.config.coordinator_driven_recovery:
            raise ProtocolError(
                "Presumed Nothing recovery is coordinator-driven; the "
                "subordinate operator cannot inquire")
        tm._start_inquiry(context)

    def _node(self, name: str):
        if name not in self.cluster.nodes:
            raise ConfigurationError(f"unknown node {name!r}")
        return self.cluster.nodes[name]
