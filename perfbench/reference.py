"""Fixed reference work that reads how fast the host runs at the moment.

The host this benchmark was built on shifts its speed by up to 1.7x, both
within a second and for minutes at a time, on both cores at once; every job
time moves with it.  The harness times this reference work between
consecutive samples and scales each sample's times by how long the two
readings around it took against ``NOMINAL_S``.  The reference runs none of
fpklab's code, so a change to fpklab moves the scaled times as it moves the
job, and only the host's drift cancels.

The work mixes what fpklab's jobs spend their time on: the interpreter
(a pure-Python loop), per-call overhead of numpy on a 128-cell field (the
1-D workloads' explicit stencil), and arithmetic on 32^3 fields (the 3-D
workload's stencil, in cache).  Each part takes about 0.1 s.
"""

import time

import numpy as np

#: the median reading of ``reference_s`` on the 2-core x86_64 host the first
#: numbers were taken on; it sets only the scale of the scaled times
NOMINAL_S = 0.30


def _interpreter() -> int:
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total


def _stencil(f: np.ndarray, d: np.ndarray, steps: int) -> np.ndarray:
    """Explicit periodic diffusion steps with harmonic-mean face coefficients."""
    for _ in range(steps):
        for axis in range(f.ndim):
            d_right = np.roll(d, -1, axis)
            flux = 2.0 * d * d_right / (d + d_right) * (np.roll(f, -1, axis) - f)
            f = f + 1e-4 * (flux - np.roll(flux, 1, axis))
    return f


def reference_s() -> float:
    """Seconds the fixed reference work takes now."""
    rng = np.random.default_rng(0)
    small = 1.0 + rng.random(128), 1.0 + rng.random(128)
    large = 1.0 + rng.random((32, 32, 32)), 1.0 + rng.random((32, 32, 32))
    t0 = time.perf_counter()
    _interpreter()
    _stencil(*small, steps=3500)
    _stencil(*large, steps=100)
    return time.perf_counter() - t0
