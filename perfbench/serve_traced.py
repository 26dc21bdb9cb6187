"""Run ``repro-2pc`` with the benchmark's layer spans installed.

Usage: ``serve_traced.py DUMP ARGS...`` (ARGS as for ``repro-2pc``,
normally ``serve ...``), with the program's ``src`` on ``PYTHONPATH``.
The spans are installed before the CLI builds the cluster.  When the
CLI returns, after ``serve`` has drained, the span summary and the
cluster's public counters are written to ``DUMP`` as JSON and every
span to ``DUMP`` + ``.spans.jsonl``.
"""

from __future__ import annotations

import json
import sys
from typing import List

from tracer import Tracer, install


def main(argv: List[str]) -> int:
    dump = argv[0]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main
    from repro.transport.live import LiveCluster

    clusters = []
    lock_waits = [0]
    original_start = LiveCluster.start

    def on_wait(_txn, _key, _mode) -> None:
        lock_waits[0] += 1

    async def start(self):
        clusters.append(self)
        for node in self.nodes.values():
            for rm in node.all_rms():
                rm.locks.on_wait.append(on_wait)
        return await original_start(self)

    LiveCluster.start = start
    code = cli_main(argv[1:])
    cluster = clusters[0]
    rms = [rm for node in cluster.nodes.values() for rm in node.all_rms()]
    committed = sum(1 for record in cluster.metrics.transactions
                    if record.outcome == "commit")
    counts = {
        "committed": committed,
        "msgs": cluster.network.sent,
        "log_writes": cluster.metrics.total_log_writes(),
        "log_forced": cluster.metrics.forced_log_writes(),
        "log_ios": cluster.metrics.physical_ios(),
        "fsyncs": sum(cluster.fsync_counts().values()),
        "frames": cluster.transport.frames_sent,
        "lock_waits": lock_waits[0],
        "deadlocks": sum(rm.locks.deadlocks_detected for rm in rms),
        "waiting_end": sum(rm.locks.total_waiting() for rm in rms),
        "contexts_end": sum(len(n.contexts) for n in cluster.nodes.values()),
    }
    tracer.dump(dump + ".spans.jsonl")
    with open(dump, "w") as out:
        json.dump({"trace": tracer.summary(), "counts": counts}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
