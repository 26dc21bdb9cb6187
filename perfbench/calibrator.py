"""Calibration loops on a schedule, in a process of their own.

Usage: ``calibrator.py START SECONDS PERIOD``: from ``START`` (a
``time.perf_counter`` reading; the clock is system-wide) for
``SECONDS``, run one calibration loop every ``PERIOD`` seconds, then
print the samples as one JSON list.  ``live_open`` pins this process to
``serve``'s CPU, so the loops measure the speed ``serve`` gets without
stopping the load client.
"""

from __future__ import annotations

import json
import sys
import time

from common import SpeedLog


def main(argv) -> int:
    start, seconds, period = (float(arg) for arg in argv)
    speed = SpeedLog()
    at = start
    while True:
        delay = at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        speed.sample(shared=True)
        if at >= start + seconds:
            break
        at += period
    print(json.dumps(speed.samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
