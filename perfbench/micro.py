"""Microbenchmarks of the public RHS and grid kernels, run in a fresh process.

    python3 perfbench/micro.py --seed N

Prints one JSON object: the median time per call in microseconds of
``fpklab.rhs``, ``gradient_arrays``, ``face_divergence`` and
``centered_hessian`` at the sizes below, plus bytes and operations per call
computed from a model, never measured.  The seed translates the
coefficients as it does the workload inputs.

Bytes are the compulsory traffic: every input array read once and every
output array written once, 8 B per value.  Operations count the arithmetic
of the stencil per cell as the docstrings define it (a log counts as one).
With C cells and n axes:

* rhs: reads f, D, phi, pi and writes the result, 5 x 8C B; per cell
  D log f + phi (3), f / pi (1), and per axis the harmonic face mean (4),
  the psi difference (1), flux product and scaling (2), the face difference
  and accumulation (2), then the final 1/h (1): 5 + 9n operations.
* gradient: reads v, writes n components, (1 + n) x 8C B; 2n operations.
* face divergence: reads n fluxes, writes one field, (n + 1) x 8C B;
  2n + 1 operations.
* hessian: reads v, writes n^2 entries, (1 + n^2) x 8C B; first
  differences 2n, diagonal 4n, off-diagonal pairs n(n - 1): 6n + n(n - 1).
"""

import argparse
import json
import statistics
import sys
import time

import fpklab
from fpklab.grid import centered_hessian, face_divergence, gradient_arrays
from inputs import translate

RHS_SIZES = ((1, 128), (2, 48), (3, 16), (3, 64))
GRADIENT_SIZES = ((1, 128), (3, 64))
FACE_DIVERGENCE_SIZES = ((1, 128), (3, 64))
HESSIAN_SIZES = ((3, 32),)

# smooth, strictly positive, spatially varying; pi is static, as on every
# workload but the time-dependent one
COEFFICIENTS = {
    "D": "1.5 + 0.25*cos(2*pi*x1)",
    "phi": "0.3*cos(2*pi*x1)",
    "pi": "1.2 + 0.2*cos(2*pi*x1)",
    "f0": "1 + 0.1*sin(2*pi*x1)",
}

LOOP_SECONDS = 0.02
REPEATS = 7


def per_call_us(fn) -> float:
    """Median over REPEATS loops of the time per call, each loop >= LOOP_SECONDS."""
    fn()
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= LOOP_SECONDS:
            break
        number *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = {}

    for dim, n in RHS_SIZES:
        cells = n**dim
        grid = fpklab.build_grid(dim, n)
        coeffs, f0 = fpklab.sample_coefficients(translate(COEFFICIENTS, args.seed, n), grid)
        tag = f"{dim}d_n{n}"
        out[f"solver.rhs_us.{tag}"] = per_call_us(lambda: fpklab.rhs(f0, coeffs, 0.0))
        out[f"solver.rhs_bytes.{tag}"] = 5 * 8 * cells
        out[f"solver.rhs_ops.{tag}"] = (5 + 9 * dim) * cells

    for dim, n in GRADIENT_SIZES:
        cells = n**dim
        grid = fpklab.build_grid(dim, n)
        _, f0 = fpklab.sample_coefficients(translate(COEFFICIENTS, args.seed, n), grid)
        tag = f"{dim}d_n{n}"
        out[f"grid.gradient_us.{tag}"] = per_call_us(lambda: gradient_arrays(f0.values, grid.spacing))
        out[f"grid.gradient_bytes.{tag}"] = (1 + dim) * 8 * cells
        out[f"grid.gradient_ops.{tag}"] = 2 * dim * cells

    for dim, n in FACE_DIVERGENCE_SIZES:
        cells = n**dim
        grid = fpklab.build_grid(dim, n)
        _, f0 = fpklab.sample_coefficients(translate(COEFFICIENTS, args.seed, n), grid)
        fluxes = gradient_arrays(f0.values, grid.spacing)
        tag = f"{dim}d_n{n}"
        out[f"grid.face_divergence_us.{tag}"] = per_call_us(lambda: face_divergence(grid, fluxes))
        out[f"grid.face_divergence_bytes.{tag}"] = (dim + 1) * 8 * cells
        out[f"grid.face_divergence_ops.{tag}"] = (2 * dim + 1) * cells

    for dim, n in HESSIAN_SIZES:
        cells = n**dim
        grid = fpklab.build_grid(dim, n)
        coeffs, _ = fpklab.sample_coefficients(translate(COEFFICIENTS, args.seed, n), grid)
        tag = f"{dim}d_n{n}"
        out[f"grid.hessian_us.{tag}"] = per_call_us(lambda: centered_hessian(coeffs.phi))
        out[f"grid.hessian_bytes.{tag}"] = (1 + dim * dim) * 8 * cells
        out[f"grid.hessian_ops.{tag}"] = (6 * dim + dim * (dim - 1)) * cells

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
