"""Host speed probe: a fixed piece of work timed between benchmark rounds.

On a shared host the same code runs up to a third faster or slower from
one minute to the next, as neighbours come and go. The probe does work of
the same kinds as the library (interpreter loops, many small numpy calls,
large-array exp/log) and never calls the library, so its time moves only
with the host. Dividing a round's time by the probe time measured around
it cancels most of the drift; multiplying by ``REFERENCE_S`` expresses the
result as it would read on a host where the probe takes that long.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.150  # typical probe time on a shared 2-core Xeon VM
REPEATS = 3


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random((7000, 2))
        self._large = rng.random((7000, 256))
        self._point = rng.random(2)
        self.samples: list[float] = []

    def _once(self) -> float:
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(20000):
            x = math.sqrt(i * 0.5) + math.atan2(i, 7.0)
            table[i % 613] = (x, f"{x!r}")
            acc += x
        for _ in range(60):
            s = np.abs(self._small - self._point).sum(axis=1)
            far = s > 0.5
            s[far] = s[far] ** 1.2
            acc += float(s.sum())
        for _ in range(6):
            peak = self._large.max(axis=1)
            acc += float(np.log(np.exp(self._large - peak[:, None]).sum(axis=1)).sum())
        if not math.isfinite(acc):
            raise ArithmeticError("speed probe produced a non-finite sum")
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Median probe time now; also kept in ``samples``."""
        value = statistics.median(self._once() for _ in range(REPEATS))
        self.samples.append(value)
        return value
