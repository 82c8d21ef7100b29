"""Spin-loop calibration of wall-clock timings on a noisy host.

The host this benchmark runs on drifts between a fast and a slow state
(1.3x and more) in episodes of 0.1-10 s, and separate processes start
at different speeds. Every timed operation is therefore bracketed by a
fixed calibration loop, and its wall time is rescaled to a nominal loop
speed:

    calibrated = wall * NOMINAL_S / mean(cal_before, cal_after)

where ``cal_before``/``cal_after`` are the two loops adjacent to the
operation.

The loop makes small-array numpy calls from Python, as the pipeline
does. Against a pure-Python integer loop it tracked the pipeline
better: per-op noise after calibration was 11% against 19% on warm
DG-MINI matches (18% uncalibrated) and 11% against 11% on cold DG01
matches (20% uncalibrated). The nominal speed is a constant rather
than the run's fastest loop because the fastest loop itself differed by
20% from process to process, and rescaling to it carried that
difference into every metric. Raw wall times are kept next to the
calibrated ones for diagnosis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

#: Iterations of the calibration loop.
SPIN_ITERS = 800
#: Nominal duration of the loop: 3.5 us per iteration, about the fast
#: state of a 2-CPU x86 cloud host. Calibrated seconds are seconds at
#: this loop speed.
NOMINAL_S = SPIN_ITERS * 3.5e-6

#: A loop at least this much slower than ``cal_min`` counts as slow.
SLOW_FACTOR = 1.3

T = TypeVar("T")


def spin() -> int:
    """The calibration workload: small numpy gathers and searches
    driven from a Python loop."""
    values = np.arange(4096, dtype=np.int64) * 7919 % 1000
    index = np.arange(64, dtype=np.int64) * 61 % 4096
    head = np.sort(values[:64])
    total = 0
    for _ in range(SPIN_ITERS):
        total += int(values[index].sum()) + int(np.searchsorted(head, 500))
    return total


def loop_seconds() -> float:
    """Wall seconds of one calibration loop."""
    t0 = time.perf_counter()
    spin()
    return time.perf_counter() - t0


def calibrated(wall: float, cal_before: float, cal_after: float,
               nominal: float = NOMINAL_S) -> float:
    """``wall`` rescaled to the nominal loop speed."""
    adjacent = (cal_before + cal_after) / 2.0
    if adjacent <= 0.0:
        raise ValueError("calibration loops must take positive time")
    return wall * nominal / adjacent


@dataclass
class Sample:
    """One timed operation and the calibration loops adjacent to it."""

    label: str
    wall: float
    cal_before: float
    cal_after: float


@dataclass
class Calibrator:
    """Interleaves calibration loops with timed operations.

    Loops and operations alternate (loop, op, loop, op, loop, ...), so
    consecutive operations share the loop between them.
    """

    loops: list[float] = field(default_factory=list)

    def loop(self) -> float:
        elapsed = loop_seconds()
        self.loops.append(elapsed)
        return elapsed

    def time(self, label: str, fn: Callable[[], T]) -> tuple[T, Sample]:
        """Run ``fn`` between two calibration loops; returns its result
        and the recorded :class:`Sample`."""
        before = self.loops[-1] if self.loops else self.loop()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.loop()
        return result, Sample(label, wall, before, after)

    @property
    def cal_min(self) -> float:
        return min(self.loops)

    def value(self, sample: Sample) -> float:
        """Calibrated seconds of ``sample``."""
        return calibrated(sample.wall, sample.cal_before, sample.cal_after)

    def factor(self, sample: Sample) -> float:
        """Multiplier turning ``sample``'s raw span times calibrated."""
        return self.value(sample) / sample.wall if sample.wall > 0 else 1.0

    def slow_share(self) -> float:
        """Share of calibration loops at least :data:`SLOW_FACTOR` times
        slower than the fastest."""
        cut = self.cal_min * SLOW_FACTOR
        return sum(1 for c in self.loops if c >= cut) / len(self.loops)
