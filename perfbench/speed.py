"""Host speed sampling for rescaling the end-to-end times.

On a 2-core VM (Python 3.11.7, numpy 2.4.6, no gmpy2), host speed flips
between a fast and a slow state on sub-second to minute scales, and a
run's times move with it by 10-30%.  The program's kinds of work slow down
together, though not equally: in the fast state prediction (interpreter
loops and small numpy calls) gains 1.6-1.9x, modular exponentiation much
less.  So
while the untraced phases run, :class:`SpeedSampler` runs a fixed kernel
from a timer signal every ``INTERVAL_S`` and records how long it took, as
a whole (interpreter loop and small numpy calls, a numpy reduction,
big-integer ``pow``, JSON encoding plus SHA-512) and for its interpreter
part alone.  A timed call is reported as

    (measured - kernel time inside it) * REFERENCE_S[part] / (mean duration of part during it)

that is, in seconds on a host where the kernel takes ``REFERENCE_S``.  Each
training is scaled by the samples taken during it, the set-up repeats by
those of their whole phase, and the batch scorings and single-row requests
per quarter-second window (see ``bench.WINDOW_S``), so that no single
sample's noise enters a median or percentile.  Set-up and training follow
the whole kernel; batch scoring and single-row requests, which are
interpreter-bound, follow the interpreter part.  The unscaled times are
printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
from time import perf_counter

import numpy as np

# kernel seconds on the reference host, for the whole kernel and for its
# interpreter part alone
REFERENCE_S = {"whole": 0.0024, "interp": 0.0009}
INTERVAL_S = 0.05

_MODULUS = (1 << 1024) - 105  # odd 1024-bit modulus, the size of a 512-bit key's n^2
_BASE = 0x1F2E3D4C5B6A7988 ** 15
_ROW = np.zeros(8)


def _interp_part() -> None:
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    for _ in range(400):
        np.atleast_2d(_ROW)


def _rest() -> None:
    float(np.sqrt(np.arange(30_000.0)).sum())
    pow(_BASE, _MODULUS >> 900, _MODULUS)
    hashlib.sha512(json.dumps(list(range(2_500))).encode()).digest()


class SpeedSampler:
    """Runs the kernel every INTERVAL_S while active and keeps, per sample,
    its end time and the durations of the whole kernel and its interpreter part."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations = {"whole": [], "interp": []}
        self.total = 0.0  # kernel seconds so far, to subtract from enclosing calls
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        _interp_part()
        middle = perf_counter()
        _rest()
        end = perf_counter()
        self.ends.append(end)
        self.durations["whole"].append(end - start)
        self.durations["interp"].append(middle - start)
        self.total += end - start

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float, part: str) -> float:
        """REFERENCE_S[part] over the mean duration of ``part`` in the samples
        taken in [start, end], or in the latest sample before it."""
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        if hi == lo:  # too short to contain a sample
            lo, hi = max(lo - 1, 0), max(lo, 1)
        durations = self.durations[part][lo:hi]
        return REFERENCE_S[part] * len(durations) / sum(durations)
