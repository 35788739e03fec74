"""Pure arithmetic over probe reports: percentiles, self time, layer totals.

A span is ``[name, start, end, parent, slot]`` as written by ``probe.py``;
``parent`` and ``slot`` are indices into the same span list, or -1.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

#: A high percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def p90_with_tail(samples: list[float]) -> tuple[float, int]:
    """The 90th percentile (``statistics.quantiles``, exclusive method) and the
    number of samples strictly above it."""
    if len(samples) < 2:
        raise ValueError("need at least two samples for a percentile")
    p90 = statistics.quantiles(samples, n=10)[8]
    return p90, sum(1 for s in samples if s > p90)


def checked_p90(samples: list[float]) -> float:
    """p90, refusing a sample too small to put ``MIN_TAIL`` samples beyond it."""
    p90, beyond = p90_with_tail(samples)
    if beyond < MIN_TAIL:
        raise ValueError(f"p90 of {len(samples)} samples has only {beyond} beyond it;"
                         f" need {MIN_TAIL}")
    return p90


def median_per_unit(repeats: list[list[float]]) -> list[float]:
    """Per unit of work, its median time over repeats that do the same units
    in the same order."""
    if not repeats or len({len(r) for r in repeats}) != 1:
        raise ValueError("repeats must be non-empty and of equal length")
    return [statistics.median(times) for times in zip(*repeats)]


class Pace:
    """Samples of ``pace.py``'s reference chunk: ``(perf_counter, CPU seconds)``.

    ``scale`` turns CPU seconds spent between two ``perf_counter`` stamps into
    reference seconds: CPU seconds on a host that runs the chunk in
    :attr:`NOMINAL_S`. The factor is the mean of ``NOMINAL_S / chunk`` over
    the samples from :attr:`PAD_S` before the interval to :attr:`PAD_S` after
    it, which is the host's mean speed over the interval.
    """

    NOMINAL_S = 0.001
    PAD_S = 0.25

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        ordered = sorted(samples)
        self.stamps = [t for t, _ in ordered]
        self.chunks = [c for _, c in ordered]

    def speed(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start - self.PAD_S)
        hi = bisect.bisect_right(self.stamps, end + self.PAD_S)
        if lo == hi:
            raise ValueError(f"no reference samples in [{start:.3f}, {end:.3f}]")
        return statistics.fmean(self.NOMINAL_S / c for c in self.chunks[lo:hi])

    def scale(self, cpu: float, start: float, end: float) -> float:
        return cpu * self.speed(start, end)

    def median_chunk_s(self) -> float:
        return statistics.median(self.chunks)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        inside = [(max(lo, start), min(hi, end)) for lo, hi in children.get(i, ())]
        out.append((end - start) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


class LayerTotals:
    """Calls, total and self seconds, and per-call durations for each span name."""

    def __init__(self, spans: list[list]) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.add(spans)

    def add(self, spans: list[list]) -> None:
        for span, own in zip(spans, self_times(spans)):
            name, start, end = span[0], span[1], span[2]
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += own
            self.durations[name].append(end - start)

    def median_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1000.0 * statistics.median(d) if d else 0.0

    def p90_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1000.0 * statistics.quantiles(d, n=10)[8] if d and len(d) > 1 else 0.0
