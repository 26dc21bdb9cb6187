"""Open-loop load generator: ``begin`` frames to a running
``repro-2pc serve``.

One asyncio process, one client connection to the coordinator node.
Every transaction has a *due* time fixed before the run starts
(``window start + i / rate``), and the sender writes its ``begin``
frame at that time whatever happened to earlier transactions, so a
stall in the server shows as latency of the transactions due during
it instead of as fewer transactions sent (no coordinated omission).
Latency is timed from the due time to the ``outcome`` frame; how late
the sender itself ran is recorded so a slow generator is visible.

A transaction that has no outcome when the settle deadline passes
counts as failed; that includes one the server refused with an
``error`` frame, which names no transaction.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.transport.wire import encode_frame, read_frame


@dataclass
class Sample:
    """One transaction as the client saw it."""

    window: str
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    outcome: Optional[str] = None

    @property
    def latency(self) -> float:
        assert self.done is not None
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class LoadResult:
    samples: List[Sample]
    #: ``(name, start, end)`` of every offered-rate window, in
    #: ``time.perf_counter`` seconds.
    windows: List[Tuple[str, float, float]]
    outcomes_by_txn: Dict[str, str] = field(default_factory=dict)

    def window(self, name: str) -> Tuple[float, float]:
        for label, start, end in self.windows:
            if label == name:
                return start, end
        raise KeyError(name)


async def drive(host: str, port: int,
                frames: Sequence[Tuple[str, bytes]],
                windows: Sequence[Tuple[str, float, float]],
                start: float, settle_timeout: float) -> LoadResult:
    """Send ``frames`` (``(txn_id, encoded begin frame)``, in order)
    over ``windows`` of ``(name, rate per second, seconds)``, the first
    starting at ``start`` (``time.perf_counter`` seconds), and wait up
    to ``settle_timeout`` seconds after the last send for outcomes."""
    reader, writer = await asyncio.open_connection(host, port)
    schedule: List[Tuple[str, Sample, bytes]] = []
    spans: List[Tuple[str, float, float]] = []
    offset = 0.0
    position = 0
    for name, rate, seconds in windows:
        count = int(round(rate * seconds))
        for index in range(count):
            txn, frame = frames[position]
            position += 1
            schedule.append((txn, Sample(name, start + offset + index / rate),
                             frame))
        spans.append((name, start + offset, start + offset + seconds))
        offset += seconds
    by_txn = {txn: sample for txn, sample, _frame in schedule}
    result = LoadResult([sample for _txn, sample, _frame in schedule], spans)
    pending = set(by_txn)
    all_settled = asyncio.Event()

    async def receive() -> None:
        while True:
            obj = await read_frame(reader)
            if obj is None:
                return
            if obj.get("kind") == "outcome":
                sample = by_txn.get(obj.get("txn"))
                if sample is None or sample.done is not None:
                    continue
                sample.done = time.perf_counter()
                sample.outcome = obj.get("outcome")
                result.outcomes_by_txn[obj["txn"]] = sample.outcome
                pending.discard(obj["txn"])
                if not pending:
                    all_settled.set()

    receiver = asyncio.ensure_future(receive())
    try:
        for _txn, sample, frame in schedule:
            delay = sample.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(frame)
            sample.sent = time.perf_counter()
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        await writer.drain()
        if pending:
            try:
                await asyncio.wait_for(all_settled.wait(), settle_timeout)
            except asyncio.TimeoutError:
                pass
    finally:
        receiver.cancel()
        try:
            await receiver
        except asyncio.CancelledError:
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return result


def begin_frame(spec_wire: dict) -> bytes:
    """The control frame asking the coordinator to run one transaction."""
    return encode_frame({"kind": "begin", "spec": spec_wire})
