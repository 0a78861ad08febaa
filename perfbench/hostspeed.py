"""The host's current speed, from fixed reference kernels.

The benchmark shares a few cores of a host whose speed changes over
seconds to minutes. On the 2-CPU shared host (Intel Xeon) the benchmark was
defined on, it switched between two states every few seconds; in the slow
one a sweep operation took 1.5x to 1.75x as long, and CPU time moved with
wall time, so it is not time-sharing alone. A run cannot average that away,
because each run sees only its own share of slow periods, and the share
differs from run to run: raw times of the same code spread by up to 30%
between runs.

So a run times a reference kernel after every operation and before and
after every set-up sample, and multiplies each time by REFERENCE_S / (the
median time of the NEIGHBOURS kernel samples nearest it): a time in seconds
on the host at the speed where the kernel takes REFERENCE_S. The kernels
use no `cpdyn` code, so a change to the program cannot move them. How much
a slow period slows code depends on the code, so each workload uses the
kernel that followed its operations best (`workloads.HOST_KERNEL`):

- `interpreted`: RK4 of a 4-state system in small numpy products, then a
  plain interpreted loop, like the program's N=4 RK4 steps;
- `plain`: the interpreted loop alone;
- `startup`: a fresh interpreter that runs nothing, for `setup_s`, which
  slows with process start and file access more than with the CPU.

On 4-minute recordings cut into 25 s runs, the spread (IQR / median) of a
pass's time fell from 0.20 to 0.03 on `sweep` and from 0.18 to 0.05 on
`figures` with `interpreted`, from 0.09 to 0.06 on `high-dim` with `plain`,
and that of the median set-up sample from 0.08-0.11 to 0.03-0.04 with
`startup` (0.05-0.08 with `plain`).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Kernel samples that set one interval's speed: the one just before it and
# the one just after. More smooth out the kernel's own noise but miss
# changes of the host's state within seconds, and did worse.
NEIGHBOURS = 2

_RNG = np.random.default_rng(20261017)  # fixed: kernels never depend on --seed


def _generator(n: int) -> tuple[np.ndarray, np.ndarray]:
    """-i H for a fixed random Hermitian H with unit-scale spectrum, and a
    unit start vector."""
    m = _RNG.standard_normal((n, n)) + 1j * _RNG.standard_normal((n, n))
    return -0.5j * (m + m.conj().T) / np.sqrt(n), np.ones(n, dtype=complex) / np.sqrt(n)


_SMALL_A, _SMALL_Y0 = _generator(4)


def _rk4(a: np.ndarray, y: np.ndarray, steps: int, h: float = 1e-3) -> np.ndarray:
    for _ in range(steps):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i & 7
    return s


def interpreted() -> float:
    return float(abs(_rk4(_SMALL_A, _SMALL_Y0, 450)[0])) + _loop(120_000)


def plain() -> float:
    return float(_loop(200_000))


def startup() -> float:
    """A fresh interpreter that does nothing: process start, dynamic
    loading and interpreter set-up, which `setup_s` pays too."""
    return float(subprocess.run([sys.executable, "-c", "pass"], check=True,
                                timeout=60).returncode)


# Each kernel with its REFERENCE_S, its time in the host's fast state; the
# slow state adds half to four fifths. REFERENCE_S only sets the scale of
# the scaled times, so it stays fixed when the host changes.
KERNELS = {
    "interpreted": (interpreted, 0.0105),
    "plain": (plain, 0.009),
    "startup": (startup, 0.064),
}


class Timeline:
    """Times of one kernel through a run, each at the midpoint of its run."""

    def __init__(self, name: str):
        self.kernel, self.reference_s = KERNELS[name]
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time of the NEIGHBOURS samples
        nearest the interval's midpoint: multiply a time measured over
        [start, end] by it to scale it to the reference host speed."""
        mid = 0.5 * (start + end)
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEIGHBOURS]
        return self.reference_s / statistics.median(k for _, k in nearest)
