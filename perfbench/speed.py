"""The machine's current speed, measured between queries.

On a shared virtual machine the same pure-Python code runs up to about
1.8 times slower for stretches of ten seconds or more, most likely when
other tenants load the host (measured on a 2-vCPU 2.1 GHz Xeon VM: a fixed
loop took 3.0 ms in one stretch and 5.5 ms in the next, while the ratio
of a tukeykit query's time to the loop's time stayed within about 5%).
Wall times taken in different stretches then differ by more than any
program change worth measuring.

A ``Meter`` times a fixed kernel, independent of tukeykit, at most every
``INTERVAL_S`` seconds between queries.  ``factor()`` is
``REFERENCE_S`` divided by the median of the last ``WINDOW`` kernel
times, so a wall time multiplied by it reads as the time the same work
takes when the kernel takes ``REFERENCE_S``: about the machine's fast
stretches.  The kernel's own times are kept and reported, so the raw
wall times can be recovered.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass
from math import isqrt

# about the kernel's time on the VM above in its fast stretches (0.8 to
# 1.0 ms; 1.3 to 1.4 ms in its slow ones)
REFERENCE_S = 0.0010
INTERVAL_S = 0.025
WINDOW = 5


@dataclass(frozen=True)
class _Spec:
    n: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")


def kernel() -> int:
    """Mixed interpreter work of the kinds tukeykit does: small frozen
    dataclasses and calls, tuple keys in a dict, str, big-int
    arithmetic, tuple slicing and a keyed sort."""
    counts: dict = {}
    acc = 0
    bits = tuple(i & 1 for i in range(97))
    for i in range(400):
        spec = _Spec(40 + i % 7, 1 + i % 40)
        key = (spec.m & 31, i * 3 % 17)
        counts[key] = counts.get(key, 0) + 1
        big = (i + 1) ** 9 * 1_000_003
        acc += len(str(i)) + isqrt(big) % 7 + sum(bits[i % 50:i % 50 + 12])
    return acc + len(sorted(counts, key=lambda k: k[1] - k[0]))


class Meter:
    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        self.last = 0.0
        for _ in range(WINDOW):
            self.sample()

    def sample(self) -> None:
        """Time the kernel twice and keep the faster, which an interrupt
        did not hit."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        self.recent.append(best)
        self.samples.append(best)
        self.last = time.perf_counter()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.recent)

    def tick(self) -> float:
        """The current factor, after a fresh sample when the last one is
        older than ``INTERVAL_S``."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()
        return self.factor()
