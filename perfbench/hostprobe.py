"""Host-speed probe and the normalisation to reference host speed.

The probe is a fixed loop with the simulator's instruction mix: dict
lookups over a table of a few MB, loop bytecode, and small-array numpy
ops. It imports nothing from ``repro``, so a change to the program
cannot change it.

On a shared 2-vCPU host the speed of one vCPU switches between a fast
and a slow regime (about 1.6x apart) within seconds, and a probe on
the other vCPU does not see it. So the probe runs *in band*: a
:class:`ProbeClock` in each process that does campaign work samples
the probe between that process's jobs, at most every
:data:`PROBE_GAP_S` seconds, and a time window is normalised by the
speed its own samples saw around each segment of it:

    normalised time = raw time x factor,
    factor = time-weighted mean over segments of REFERENCE_PROBE_S / probe

Rates are divided by the factor. On that host, for a simulation loop
timed in 13 s windows, probing only at the window's edges removed a
third of the run-to-run spread, and probing between its 0.5 s chunks
four fifths.

A probe must not measure the program's own load, or the factor
would fall when the program takes more CPU and normalising would
divide that slowdown out of the program's figure. Two things keep it
out. A probe's time is its thread's CPU time, which does not count
waiting for a CPU; on that host CPU and wall time of an uncontended
probe agree (correlation 0.91, kernel steal about 1%), so it still
tracks the host. And no probing process shares a CPU with the
program's other processes: the ``fleet`` workload leaves its
coordinator a CPU of its own (``rep.fleet_size``). On that host a
probe beside one busy process read as on an idle host; beside two,
wall time doubled and CPU time still rose by about a tenth.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

#: Median probe time on the host the benchmark was defined on (2 vCPU,
#: Python 3.11, numpy 2.4). A host running at this speed has factor 1.
REFERENCE_PROBE_S = 0.0115

#: Least seconds between two in-band samples of one process.
PROBE_GAP_S = 0.5

_ITERATIONS = 9000
_TABLE = {i: i for i in range(1 << 16)}
_KEYS = np.random.default_rng(12345).integers(0, 1 << 16, _ITERATIONS).tolist()
_LANES = np.arange(32, dtype=np.int64)


def probe() -> float:
    """CPU seconds of this thread for one pass of the fixed probe loop."""
    start = time.thread_time()
    acc = 0
    for i, key in enumerate(_KEYS):
        acc += _TABLE[key] ^ i
        if i & 7 == 0:
            shifted = (_LANES + i) & 0xFF
            acc += int(np.where(shifted > 128, shifted, 0).sum())
    return time.thread_time() - start


def normalise(value: float, unit: str, factor: float) -> float:
    """``value`` at reference host speed: seconds scale by ``factor``,
    rates by its inverse, anything else (counts, bytes, shares) stays."""
    if unit == "s":
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


class ProbeClock:
    """In-band probe samples of one process, on the ``time.monotonic``
    clock (shared by all processes of the host)."""

    def __init__(self):
        #: (start, end, probe seconds) per sample
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        """One sample: the median of three probes, so a cold first
        probe or an interrupt does not set a segment's speed. The
        sample spans wall time; its probe seconds are CPU time."""
        start = time.monotonic()
        seconds = statistics.median(probe() for _ in range(3))
        self.samples.append((start, time.monotonic(), seconds))

    def maybe_sample(self) -> None:
        if not self.samples or time.monotonic() - self.samples[-1][1] \
                >= PROBE_GAP_S:
            self.sample()

    def after(self, fn):
        """``fn`` followed by a sample when :data:`PROBE_GAP_S` has
        passed."""
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.maybe_sample()
        return probed


def probe_time(samples: list, start: float, end: float) -> float:
    """Seconds ``samples`` spent probing inside ``[start, end]``."""
    return sum(max(0.0, min(e, end) - max(s, start)) for s, e, _ in samples)


def window_factor(processes: list[list], start: float, end: float) -> float:
    """Time-weighted ``REFERENCE_PROBE_S / probe`` over ``[start, end]``.

    ``processes`` holds each process's ``(start, end, seconds)``
    samples. The segment between two consecutive samples of a process
    runs at the mean of their two probe times; segments count by how
    much of the window they cover. Raises ``ValueError`` when no
    segment covers the window.
    """
    weighted = covered = 0.0
    for samples in processes:
        for (_, seg_start, before), (seg_end, _, after) in zip(
                samples, samples[1:]):
            overlap = min(seg_end, end) - max(seg_start, start)
            if overlap > 0:
                weighted += overlap * REFERENCE_PROBE_S * 2 / (before + after)
                covered += overlap
    if covered <= 0:
        raise ValueError("no probe segment covers the window")
    return weighted / covered
