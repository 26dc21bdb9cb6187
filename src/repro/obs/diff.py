"""Journal divergence differ: localize the first causally-divergent event.

Two journals of "the same" run — record vs replay, wheel vs heap
scheduler, serial vs parallel sweep shards, eventually live transport
vs simulated twin — are equivalent iff every *site* observed the same
sequence of actions and the cross-site causal edges pair the same
events.  The global interleaving of independent sites is a permitted
reordering and is deliberately not compared; per-site program order
and the causal wiring are the contract.

:func:`diff_journals` returns ``None`` for equivalent journals, or a
:class:`Divergence` naming the first point of disagreement — chosen as
the earliest candidate by ``(t, eid)`` across sites — with the node,
transaction, protocol phase, and expected-vs-observed entries spelled
out for a human.

:func:`run_journal_self_check` is the oracle gate: record a seeded
workload, replay it on a fresh cluster, and demand an empty diff for
every protocol variant.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.journal import (JournalEntry, JournalRecorder,
                               normalize_txn_ids)

#: Protocol variants the self-check gate must hold for.
SELF_CHECK_PROTOCOLS = ("basic", "presumed_abort", "presumed_nothing",
                       "presumed_commit")


class Divergence:
    """The first causally-divergent event between two journals."""

    def __init__(self, site: str, position: int, reason: str,
                 expected: Optional[JournalEntry],
                 observed: Optional[JournalEntry]) -> None:
        self.site = site
        self.position = position
        self.reason = reason
        self.expected = expected
        self.observed = observed

    # ------------------------------------------------------------------
    @property
    def _anchor(self) -> Optional[JournalEntry]:
        return self.expected if self.expected is not None else self.observed

    def describe(self) -> str:
        """Human-readable localization: node, txn, phase, expected vs
        observed."""
        anchor = self._anchor
        lines = [
            f"first divergence at node {self.site}, "
            f"site-position {self.position}"
            + (f", txn {anchor.txn}" if anchor and anchor.txn else "")
            + (f", phase {anchor.phase}" if anchor and anchor.phase
               else "")
            + f": {self.reason}",
            "  expected: " + (self.expected.describe()
                              if self.expected else "(no further events)"),
            "  observed: " + (self.observed.describe()
                              if self.observed else "(no further events)"),
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "position": self.position,
            "reason": self.reason,
            "txn": self._anchor.txn if self._anchor else None,
            "phase": self._anchor.phase if self._anchor else None,
            "expected": self.expected.to_dict() if self.expected else None,
            "observed": self.observed.to_dict() if self.observed else None,
        }

    def __repr__(self) -> str:
        return f"<Divergence {self.site}#{self.position}: {self.reason}>"


def _by_site(entries: Sequence[JournalEntry]
             ) -> Dict[str, List[JournalEntry]]:
    sites: Dict[str, List[JournalEntry]] = {}
    for entry in entries:
        sites.setdefault(entry.node, []).append(entry)
    return sites


def _sort_key(divergence: Divergence) -> Tuple[float, int]:
    anchor = divergence._anchor
    if anchor is None:
        return (float("inf"), 1 << 62)
    return (anchor.t, anchor.eid)


def diff_journals(expected: Sequence[JournalEntry],
                  observed: Sequence[JournalEntry],
                  ignore_time: bool = False) -> Optional[Divergence]:
    """Compare two journals modulo permitted reorderings.

    Per-site sequences are compared by entry signature; if all match,
    cross-site causal edges must pair the same (positionally matched)
    events.  ``ignore_time`` drops timestamps from the comparison —
    for journals from different clocks (e.g. a live transport twin).
    Returns ``None`` if equivalent, else the first :class:`Divergence`
    by ``(t, eid)``.
    """
    a_sites = _by_site(expected)
    b_sites = _by_site(observed)
    with_time = not ignore_time
    candidates: List[Divergence] = []

    for site in sorted(set(a_sites) | set(b_sites)):
        a_seq = a_sites.get(site, [])
        b_seq = b_sites.get(site, [])
        for position in range(max(len(a_seq), len(b_seq))):
            a_entry = a_seq[position] if position < len(a_seq) else None
            b_entry = b_seq[position] if position < len(b_seq) else None
            if a_entry is None or b_entry is None:
                reason = ("observed journal has extra events at this site"
                          if a_entry is None else
                          "observed journal ends early at this site")
                candidates.append(Divergence(site, position, reason,
                                             a_entry, b_entry))
                break
            if a_entry.signature(with_time) != b_entry.signature(with_time):
                candidates.append(Divergence(
                    site, position, "event mismatch", a_entry, b_entry))
                break

    if candidates:
        return min(candidates, key=_sort_key)

    # Per-site sequences agree; verify the causal wiring pairs the same
    # events.  Positional matching per site gives the eid mapping.
    a_to_b: Dict[int, int] = {}
    for site, a_seq in a_sites.items():
        for a_entry, b_entry in zip(a_seq, b_sites[site]):
            a_to_b[a_entry.eid] = b_entry.eid
    mapped_eids = set(a_to_b.values())
    for site in sorted(a_sites):
        for position, (a_entry, b_entry) in enumerate(
                zip(a_sites[site], b_sites[site])):
            mapped = sorted(a_to_b[p] for p in a_entry.parents
                            if p in a_to_b)
            actual = sorted(p for p in b_entry.parents
                            if p in mapped_eids)
            if mapped != actual:
                candidates.append(Divergence(
                    site, position,
                    "causal parents pair different events",
                    a_entry, b_entry))
                break
    if candidates:
        return min(candidates, key=_sort_key)
    return None


# ----------------------------------------------------------------------
# Self-check: record -> replay -> diff must be empty
# ----------------------------------------------------------------------
def record_workload_journal(config, seed: int = 11, txns: int = 8,
                            nodes: Optional[Sequence[str]] = None
                            ) -> List[JournalEntry]:
    """Run a seeded generated workload under a journal recorder and
    return the txn-normalized entries."""
    from repro.core.cluster import Cluster
    from repro.sim.randomness import RandomStream
    from repro.workload.generator import WorkloadGenerator, WorkloadParams

    node_names = list(nodes or ["n0", "n1", "n2"])
    cluster = Cluster(config, nodes=node_names, seed=seed)
    recorder = JournalRecorder().attach(cluster)
    generator = WorkloadGenerator(
        node_names, WorkloadParams(read_only_fraction=0.3, key_space=4),
        RandomStream(seed))
    for spec in generator.stream(txns):
        cluster.run_transaction(spec)
    recorder.detach()
    return normalize_txn_ids(recorder.entries())


def run_journal_self_check(seed: int = 11, txns: int = 8
                           ) -> Dict[str, Optional[Divergence]]:
    """Record -> replay -> diff for every protocol variant.

    Each protocol's workload is recorded twice on fresh clusters with
    the same seed; determinism requires the journals to be equivalent.
    Returns ``{protocol: None}`` when clean; any non-``None`` value is
    the localized divergence (a determinism bug).
    """
    from repro.core.config import (BASIC_2PC, PRESUMED_ABORT,
                                   PRESUMED_COMMIT, PRESUMED_NOTHING)

    configs = {
        "basic": BASIC_2PC,
        "presumed_abort": PRESUMED_ABORT,
        "presumed_nothing": PRESUMED_NOTHING,
        "presumed_commit": PRESUMED_COMMIT,
    }
    results: Dict[str, Optional[Divergence]] = {}
    for name in SELF_CHECK_PROTOCOLS:
        config = configs[name]
        recorded = record_workload_journal(config, seed=seed, txns=txns)
        replayed = record_workload_journal(config, seed=seed, txns=txns)
        results[name] = diff_journals(recorded, replayed)
    return results
