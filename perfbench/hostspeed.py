"""Host-speed reference: the yardstick end-to-end times are divided by.

The shared 2-vCPU host this benchmark was tuned on runs the same code at
changing speeds: a phase in which the sibling vCPU or a neighbouring VM is
busy makes pure-Python and numpy work alike 1.2-2x slower, for seconds to
minutes.  A run's raw wall time therefore says as much about the phase as
about the program.  So the runner samples a fixed reference block of work
while the program runs, and reports the program's time rescaled to the
speed at which that block takes ``REFERENCE_S``: a "reference second".
A change to the program moves the rescaled time exactly as it moves the
raw one; a change of host phase moves the reference block with it.

The block mixes the kinds of work the workloads do: an interpreted loop
over dicts and lists (FTL and BCH code), numpy array passes (the epoch
engine), and zlib plus JSON decoding (the result store).  Its inputs are
built once at import and never change, so every call does the same work.

``Sampler`` runs the block from a ``SIGALRM`` interval timer while a
measured call is in progress and records each block's duration; the time
the handler took is then subtracted from the call's wall time.  The
handler runs in the main thread between bytecodes, so the program's own
state is never touched.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
import zlib

import numpy as np

__all__ = ["REFERENCE_S", "Sampler", "reference_block", "reference_samples"]

#: duration of one reference block in the fast phase of the host the
#: benchmark was tuned on (Xeon, 2 vCPUs, Python 3.11, numpy 2.4); one
#: reference second is the time in which the block runs
#: ``1 / REFERENCE_S`` times at that speed
REFERENCE_S = 0.010

_ARRAY = np.random.default_rng(20231).random(40_000)
_TOC = json.dumps(
    [{"key": f"k{i:05d}", "column": f"obs.c{i % 6}", "offset": i * 37, "n": i % 91}
     for i in range(600)],
    sort_keys=True,
).encode()
_BLOB = zlib.compress(_TOC, 6)


def reference_block() -> float:
    """Run the fixed reference work once; returns a value so the work is
    not optimised away (and so callers can check it is always the same)."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(24_000):
        slot = (i * 7919) % 211
        table[slot] = table.get(slot, 0) + i
        acc += table[slot] & 0xFF
    x = _ARRAY
    for _ in range(7):
        x = np.sort(np.sqrt(x * 1.0001 + 0.5))
    acc += int(np.cumsum(x)[-1])
    for _ in range(5):
        acc += len(json.loads(zlib.decompress(_BLOB)))
    return float(acc)


def reference_samples(n: int) -> list[float]:
    """Durations of ``n`` back-to-back reference blocks."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_block()
        out.append(time.perf_counter() - t0)
    return out


class Sampler:
    """Run the reference block every ``interval`` seconds of a measured call.

    Use as a context manager around one call; afterwards ``samples``
    holds the reference durations taken during it and ``overhead`` their
    sum, which the caller subtracts from the call's wall time.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.overhead = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_block()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.overhead += elapsed
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.overhead = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float | None:
        """Mean reference duration during the call (the mean, not the
        median, because the call's own time integrates every slow spell)."""
        return statistics.fmean(self.samples) if self.samples else None
