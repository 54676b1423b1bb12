"""Host-speed reference that makes wall times comparable across runs.

On a 2-vCPU Intel Xeon virtual machine, single-threaded numpy work ran at
two speeds that alternated every minute or so, 1.4 to 1.6 times apart. Over
a 6-minute probe cut into 20 s windows, the window medians of each
workload's main operation spread by 11-19% (quartile distance over median);
divided by plain-numpy reference kernels (a matvec chain, a large FFT,
Philox construction) timed in the same windows, by 3-6%.

So each run times `reference_kernel` in short bursts spread over its set-up
and its timed loops, and reports every operation's time at the reference
speed: seconds * REFERENCE_S / median(seconds of the bursts nearest to it).

The kernel mixes the work the workloads spend their time in: a chain of
dense 256x256 complex matvecs, an FFT pass over a 16 MiB complex array and
per-seed Philox generator construction. The FFT writes into a buffer
allocated once: with a fresh output per burst, bursts run inside the dof-2
LvN evolution timed the allocator's state and moved 1.5 times while the
evolution held within 6%. Without the large FFT, bursts slowed 1.7 times
between host states in which the dof-1 evolution slowed 1.1 times. The
kernel calls nothing in osqm, so a change to osqm moves a scaled time
exactly as it moves the raw one.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

# Typical median seconds of one reference burst on the machine described
# above (numpy 2.4, OpenBLAS 0.3.31, one thread); it only sets the scale.
REFERENCE_S = 0.008

# A point in the run samples one burst per this many seconds since the last
# sample, up to MAX_BURSTS, so samples follow run time evenly.
INTERVAL_S = 0.5
MAX_BURSTS = 8
# An operation is scaled by the median of the bursts nearest to it in time.
NEAREST = 9


class Pace:
    """Timeline of reference-kernel bursts taken through one run."""

    def __init__(self):
        rng = np.random.default_rng(2008_04930)
        q, _ = np.linalg.qr(rng.standard_normal((256, 256))
                            + 1j * rng.standard_normal((256, 256)))
        self._unitary = q
        self._big = rng.standard_normal((32, 32, 32, 32)) + 0j
        self._big_out = np.empty_like(self._big)
        self._times: list[float] = []     # burst start
        self._secs: list[float] = []      # burst duration
        self._last = None
        self.busy = 0.0                   # seconds spent sampling, warm-ups included
        self.inline = True                # whether hooked calls may sample

    def reference_kernel(self):
        v = self._unitary[:, 0]
        for _ in range(64):
            v = self._unitary @ v
        np.fft.fft(self._big, axis=1, out=self._big_out)
        s = 0.0
        for i in range(20):
            ss = np.random.SeedSequence(entropy=7, spawn_key=(i,))
            s += np.random.Generator(np.random.Philox(ss)).random()
        return v, s

    def sample(self, bursts: int = 1) -> None:
        """One unrecorded warm-up burst, then `bursts` recorded ones."""
        begin = time.perf_counter()
        self.reference_kernel()
        for _ in range(bursts):
            t0 = time.perf_counter()
            self.reference_kernel()
            self._times.append(t0)
            self._secs.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.busy += self._last - begin

    def tick(self) -> None:
        """Sample in proportion to the time since the last sample."""
        due = 1 if self._last is None else \
            math.floor((time.perf_counter() - self._last) / INTERVAL_S)
        if due >= 1:
            self.sample(min(MAX_BURSTS, due))

    @contextlib.contextmanager
    def hooked(self, owner, attr: str):
        """Let calls to `owner.attr` sample too, while `inline` is set.

        Hooking a function that a long operation calls often spreads bursts
        through the operation, so its factor comes from its own time span.
        """
        original = owner.__dict__[attr]

        def ticking(*args, **kwargs):
            if self.inline:
                self.tick()
            return original(*args, **kwargs)

        setattr(owner, attr, ticking)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def factor_at(self, start: float, seconds: float) -> float:
        """Multiplier taking an operation's seconds to the reference speed."""
        times = np.asarray(self._times)
        gap = np.maximum.reduce([np.zeros_like(times), start - times,
                                 times - (start + seconds)])
        nearest = np.argsort(gap, kind="stable")[:NEAREST]
        return REFERENCE_S / float(np.median(np.asarray(self._secs)[nearest]))

    def summary(self) -> dict:
        secs = np.asarray(self._secs)
        return {"bursts": len(secs), "median_s": float(np.median(secs)),
                "p10_s": float(np.percentile(secs, 10)),
                "p90_s": float(np.percentile(secs, 90))}
