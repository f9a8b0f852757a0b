"""Workload inputs: the shipped scenario files, resized, and translated by the seed.

A seed picks a whole-cell translation x1 -> x1 + k h of every coefficient
(D, phi, pi and f0), with k = seed mod N and h = 1/N on the periodic grid of
N cells per axis.  Seed 0 is the shipped file.  The translated problem has
the same dynamics on a shifted grid, so step counts, records, regime and
verdicts match seed 0 while every sampled value changes in its last bits.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

#: per workload: input kind, shipped file, and the blocks it overrides
WORKLOADS = {
    "euler_stationary_1d": ("scenario", "stationary_1d.json", {}),
    "varpi_recorded_1d": (
        "scenario",
        "variable_pi_1d.json",
        {"solver": {"t_end": 0.2}, "diagnostics": {"fit_window": [0.04, 0.16]}},
    ),
    "bulk_3d": (
        "scenario",
        "torus_3d.json",
        {
            "grid": {"cells_per_axis": 32},
            "solver": {"t_end": 0.02},
            "diagnostics": {"record_every": 8, "fit_window": [0.004, 0.016]},
        },
    ),
    "sweep_d_scale": ("sweep", "sweep_d_scale.json", {}),
}

_X1 = re.compile(r"\bx1\b")


def translate(coefficients: dict, seed: int, cells_per_axis: int) -> dict:
    """Coefficient sources with x1 replaced by x1 + k/N, k = seed mod N."""
    k = seed % cells_per_axis
    if k == 0:
        return dict(coefficients)
    shifted = f"(x1 + {k}/{cells_per_axis})"
    return {name: _X1.sub(shifted, source) for name, source in coefficients.items()}


def build_input(scenarios_dir: Path, workload: str, seed: int) -> tuple[str, dict, int]:
    """The (kind, JSON document, translation in cells) the workload runs at this seed."""
    kind, filename, overrides = WORKLOADS[workload]
    data = json.loads((scenarios_dir / filename).read_text())
    scenario = data["base"] if kind == "sweep" else data
    if not isinstance(scenario, dict):
        raise ValueError(f"{filename}: the benchmark needs an inline scenario")
    for block, values in copy.deepcopy(overrides).items():
        scenario.setdefault(block, {}).update(values)
    n = int(scenario["grid"]["cells_per_axis"])
    scenario["coefficients"] = translate(scenario["coefficients"], seed, n)
    return kind, data, seed % n
