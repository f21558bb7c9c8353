"""Scaling of measured times to a reference CPU speed.

On a shared two-vCPU virtual machine (Xeon, OpenBLAS, one thread), the
speed of the CPU drifts by up to about 1.7x as other tenants load the host,
switching level within a fraction of a second, and a run of tens of seconds
cannot average that out: unscaled, the median train step of ten 25 s runs
spread by 30% between quartiles. So each run times a fixed reference kernel
at least every ``PROBE_EVERY_S`` seconds, also inside calls (see
:meth:`Speed.inside`), and scales each timing by the trimmed mean of
``NOMINAL_PROBE_S`` over the kernel times within ``WINDOW_S`` of it. The
trimmed mean follows a switch of level in mid-interval, where a median would
pick one level. The kernel mixes what the model spends its time in: small
BLAS matmuls, an unoptimised ``einsum`` and interpreter work. Scaled times
read as seconds on a CPU where the kernel takes ``NOMINAL_PROBE_S``; runs
record the raw times too, with the probe time taken out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

import tracer

NOMINAL_PROBE_S = 0.0025
PROBE_EVERY_S = 0.1
WINDOW_S = 0.15
TRIM = 0.25


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(96, 96))
        self._x = rng.normal(size=(4, 30, 64))
        self._u = rng.normal(size=(8, 64, 4))
        self._at: list = []
        self._took: list = []
        self.spent = 0.0  # seconds spent probing, to take out of timings

    def probe(self) -> None:
        t0 = time.perf_counter()
        for _ in range(20):
            self._a @ self._a
        np.einsum("bld,hdr->bhlr", self._x, self._u)
        total = 0
        for i in range(20000):
            total += i
        took = time.perf_counter() - t0
        self._at.append(t0)
        self._took.append(took)
        self.spent += took

    def probe_if_due(self) -> None:
        if not self._at or time.perf_counter() - self._at[-1] >= PROBE_EVERY_S:
            self.probe()

    @contextmanager
    def inside(self, names):
        """Probe when due also on each call of the slat functions ``names``
        (``"model.forward"``), wherever a caller looks them up. A name the
        code no longer has is skipped."""
        bindings = []
        for name in names:
            original, where = tracer.bindings(name)
            if original is None:
                continue
            probed = self._probing(original)
            bindings += [(mod, attr, original, probed) for mod, attr in where]
        for mod, attr, _, probed in bindings:
            setattr(mod, attr, probed)
        try:
            yield
        finally:
            for mod, attr, original, _ in bindings:
                setattr(mod, attr, original)

    def _probing(self, original):
        @functools.wraps(original)
        def probed(*args, **kwargs):
            self.probe_if_due()
            return original(*args, **kwargs)
        return probed

    def scale(self, starts, ends) -> np.ndarray:
        """Factor for each timing from ``starts`` to ``ends``: the trimmed
        mean of nominal over probe time, for the probes that start within
        ``WINDOW_S`` of the timing (at least the nearest earlier one)."""
        at = np.array(self._at)
        factor = NOMINAL_PROBE_S / np.array(self._took)
        lo = np.searchsorted(at, np.asarray(starts) - WINDOW_S)
        hi = np.searchsorted(at, np.asarray(ends) + WINDOW_S)
        lo = np.minimum(lo, at.size - 1)
        return np.array([_trimmed_mean(factor[a:max(b, a + 1)]) for a, b in zip(lo, hi)])

    def probes(self) -> list:
        return list(self._took)


def _trimmed_mean(values: np.ndarray) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` share."""
    cut = int(TRIM * values.size)
    return float(np.sort(values)[cut:values.size - cut].mean())
