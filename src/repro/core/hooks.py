"""The one seam through which observers attach to a cluster.

Every instrument (tracer, ledger, journal, registry, checker, ...)
declares its handlers by *site name*; this module alone knows where
each site's hook lists live, walks the cluster once, and removes
exactly what it added:

===========  ==========================================  ====================
site         hook lists                                  handler arguments
===========  ==========================================  ====================
send         ``network.on_send``                         (message)
deliver      ``network.on_deliver``                      (message)
transaction  ``metrics.on_transaction``                  (record)
heuristic    ``metrics.on_heuristic``                    (event)
recovery     ``metrics.on_recovery``                     (record)
transition   ``node.on_transition``, every node          (node, txn, old, new)
note         ``node.on_note``, every node                (node, txn, text)
write        ``log.on_write``, every distinct log        (record)
flush        ``log.on_flush``, every distinct log        (records)
wait         ``locks.on_wait``, every RM                 (node, txn, key, mode)
grant        ``locks.on_grant``, every RM                (node, txn, key, mode)
release      ``locks.on_release``, every RM              (node, txn, key)
event        the simulator's event hook                  (event)
===========  ==========================================  ====================

Lock managers report no node name, so lock handlers get theirs bound
here, once per lock manager.  Handlers are appended, so an unattached
cluster keeps empty hook lists and pays nothing.  The seam lives in
``core``, beside the topology it walks: the checker and tracer import
it, ``import repro`` loads them, and a seam inside :mod:`repro.obs`
would make every ``import repro`` load the whole observability
package.

Fault arming (:class:`repro.torture.sites.ArmedCrash`,
:class:`repro.transport.faults.LiveFaultInjector`) stays outside this
seam: it inserts at the *front* of hook lists and raises interrupts,
so it must fire before any observer records the action it cancels.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence

_NETWORK_SITES = ("send", "deliver")
_METRICS_SITES = ("transaction", "heuristic", "recovery")
_NODE_SITES = ("transition", "note")
_LOG_SITES = ("write", "flush")
_LOCK_SITES = ("wait", "grant", "release")

#: Every site name an observer may declare.
SITES = (_NETWORK_SITES + _METRICS_SITES + _NODE_SITES + _LOG_SITES
         + _LOCK_SITES + ("event",))


def _discard(hook_list: list, hook: Callable) -> None:
    try:
        hook_list.remove(hook)
    except ValueError:
        pass  # hook list was externally cleared; nothing to do


def install(cluster, handlers: Mapping[str, Callable]
            ) -> List[Callable[[], None]]:
    """Install ``handlers`` (site name -> callable) on ``cluster``.

    Returns the undo actions, one per installed hook.  Only the nodes,
    logs and lock managers that exist now are covered.
    """
    unknown = sorted(set(handlers) - set(SITES))
    if unknown:
        raise ValueError(f"unknown hook site(s): {', '.join(unknown)}")
    undo: List[Callable[[], None]] = []

    def add(owner, sites, node: Optional[str] = None) -> None:
        for site in sites:
            handler = handlers.get(site)
            if handler is None:
                continue
            if node is not None:
                handler = partial(handler, node)
            hook_list = getattr(owner, "on_" + site)
            hook_list.append(handler)
            undo.append(partial(_discard, hook_list, handler))

    add(cluster.network, _NETWORK_SITES)
    add(cluster.metrics, _METRICS_SITES)
    for node in cluster.nodes.values():
        add(node, _NODE_SITES)
        for log in node.logs():
            add(log, _LOG_SITES)
        for rm in node.all_rms():
            add(rm.locks, _LOCK_SITES, node=node.name)
    event = handlers.get("event")
    if event is not None:
        simulator = cluster.simulator
        simulator.add_event_hook(event)
        undo.append(partial(simulator.remove_event_hook, event))
    return undo


class Observer:
    """The attach contract every instrument shares.

    Subclasses declare :meth:`handlers`.  Re-attaching to the same
    cluster is a no-op (nothing is installed twice), attaching to
    another cluster while attached raises :class:`RuntimeError`,
    ``detach()`` removes exactly what ``attach()`` installed and is
    idempotent, and collected data survives it.
    """

    cluster = None
    _undo: Sequence[Callable[[], None]] = ()

    def handlers(self, cluster) -> Dict[str, Callable]:
        """Site name -> handler; called once per attach."""
        raise NotImplementedError

    def attach(self, cluster):
        if self.cluster is cluster:
            return self
        if self.cluster is not None:
            raise RuntimeError(f"{type(self).__name__} is already attached "
                               "to a different cluster; detach() first")
        self._undo = install(cluster, self.handlers(cluster))
        self.cluster = cluster
        return self

    def detach(self) -> None:
        for undo in self._undo:
            undo()
        self._undo = ()
        self.cluster = None

    @property
    def attached(self) -> bool:
        return self.cluster is not None
