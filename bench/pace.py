"""Host-speed reference: a fixed chunk of interpreter work, timed every few ms.

Usage::

    python3 bench/pace.py OUT.bin

``run.py`` starts it on the one CPU the measured commands are pinned to, so
the chunks interleave with the program's work on that CPU. On a shared host
the CPU's speed changes with what other tenants run on the same core: the
same command took from 1x to 1.7x its best time within minutes, for tens of
seconds at a time. A chunk's CPU time rises and falls with it, so dividing a
command's CPU time by the chunk time around it takes most of that swing out.

On SIGTERM it writes ``(perf_counter, chunk CPU seconds)`` pairs as native
float64 to OUT.bin and exits. ``perf_counter`` is CLOCK_MONOTONIC, which the
measured processes share, so their slot stamps line up with the samples.
"""

from __future__ import annotations

import signal
import sys
import time
from array import array
from pathlib import Path

#: Pause between chunks: about a tenth of the CPU goes to the reference.
PAUSE_S = 0.008


def chunk() -> dict[int, int]:
    """Dict and integer work, as in the program's own interpreter-bound code."""
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return counts


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: pace.py OUT.bin", file=sys.stderr)
        return 2
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = array("d")
    while not stopping:
        cpu = time.thread_time()
        chunk()
        samples.append(time.perf_counter())
        samples.append(time.thread_time() - cpu)
        time.sleep(PAUSE_S)
    Path(argv[0]).write_bytes(samples.tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
