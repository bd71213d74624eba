"""Machine-speed references for calibrated timings.

Small shared machines change speed by tens of percent within a minute. On
a 2-vCPU x86-64 VM, 15-second medians of one compress op ranged from 650
to 1090 ms within a single process, while the same ops divided by the
time of a fixed array kernel, run next to them, moved by under 4 %. The
benchmark therefore times a fixed kernel between ops and reports each op
(and each set-up) scaled to the kernel's nominal duration. Which kernel
tracks a workload depends on what limits it: memory traffic on large
arrays ("array", like prefill at N=512) or interpreter and small-call
overhead ("interp", like decode steps and the CLI). The kernels never call
the program, so no change to the program can move them.
"""
from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# Each kernel's typical duration on that VM; fixed constants, so they cancel
# out of any comparison between two commits.
NOMINAL_NS = {"array": 45_000_000, "interp": 40_000_000}


class Reference:
    """Times one of the fixed kernels, keeping every sample."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_NS:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        self.nominal_ns = NOMINAL_NS[kind]
        rng = np.random.default_rng(0)
        if kind == "array":
            self._a = rng.standard_normal((4, 512, 512))
        else:
            self._x = rng.standard_normal(32)
            self._w = rng.standard_normal((4, 32, 8))
            self._k = rng.standard_normal((4, 130, 8))
        self.samples_ns: list[int] = []
        self.measure()  # the first call pays one-off allocation costs
        self.samples_ns.clear()
        self.measure()

    def _array(self) -> None:
        a = self._a
        for _ in range(2):
            z = a - a.max(axis=2, keepdims=True)
            e = np.exp(z)
            e /= e.sum(axis=2, keepdims=True)
            np.einsum("hmc,hce->hme", e, a[:, :, :8])

    def _interp(self) -> None:
        v = 0
        for i in range(150_000):
            v = (v * 1103515245 + i) & 0xFFFFFFFF
        for _ in range(600):
            q = np.einsum("d,hde->he", self._x, self._w)
            s = np.einsum("he,hce->hc", q, self._k)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            np.einsum("hc,hce->he", e, self._k)

    def measure(self) -> int:
        start = perf_counter_ns()
        if self.kind == "array":
            self._array()
        else:
            self._interp()
        self.last_ns = perf_counter_ns() - start
        self.samples_ns.append(self.last_ns)
        return self.last_ns

    def calibrated(self, raw_ns: float, before_ns: int, after_ns: int) -> float:
        """``raw_ns`` at nominal speed, judged by the kernel times around it."""
        return self.calibrated_segments([raw_ns], [before_ns, after_ns])

    def calibrated_segments(self, segments_ns: list[float], refs_ns: list[int]) -> float:
        """Total of ``segments_ns`` at nominal speed, each segment judged by
        the kernel times on either side of it (``refs_ns`` has one more
        entry than ``segments_ns``). Short segments track speed changes that
        happen within a long op."""
        if len(refs_ns) != len(segments_ns) + 1:
            raise ValueError("need one kernel time before each segment and one after the last")
        return sum(
            seg * self.nominal_ns / ((refs_ns[k] + refs_ns[k + 1]) / 2)
            for k, seg in enumerate(segments_ns)
        )
