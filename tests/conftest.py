import copy
import json
from pathlib import Path

import numpy as np
import pytest

import fpklab as F
from fpklab import cli, diagnostics as dg
from fpklab.coefficients import _finite_samples, _grid_coords, _require_positive
from fpklab.grid import shift

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
SCHEMA_DIR = REPO_ROOT / "src" / "fpklab" / "schemas"


def load_scenario_dict(name: str, **overrides) -> dict:
    """Load a shipped scenario file and apply nested overrides."""
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data = copy.deepcopy(data)
    for dotted, value in overrides.items():
        node = data
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return data


def capturing(recorder, states: list):
    """``recorder``, also appending each state it records to ``states``."""

    def capture(state):
        record = recorder(state)
        states.append(state)
        return record

    return capture


def run_with_snapshots(scenario_dict: dict):
    """Run a scenario dict in memory; returns (series, report, snapshots).

    The snapshots are the recorded states, captured by wrapping
    ``diagnostics.make_recorder`` for the duration of the run.
    """
    scenario = cli.build_scenario(scenario_dict, fallback_name=scenario_dict.get("name", "test"))
    snapshots = []
    make_recorder = dg.make_recorder
    dg.make_recorder = lambda *args, **kwargs: capturing(make_recorder(*args, **kwargs), snapshots)
    try:
        series, report = cli.run_scenario_data(scenario)
    finally:
        dg.make_recorder = make_recorder
    return series, report, snapshots


def plain_pi_values(coeffs, t):
    """Reference mobility sample: the whole expression evaluated at t, uncached."""
    if not coeffs.pi_expr.uses_t:
        return coeffs.pi0.values
    expr, grid = coeffs.pi_expr, coeffs.grid
    arr = _finite_samples(expr.evaluate(_grid_coords(expr, grid, "pi"), t), expr, grid, "pi")
    _require_positive("pi", arr, grid)
    return arr


def plain_rhs_values(f_values, coeffs, pi):
    """Reference RHS: the face fluxes and their divergence as plain, allocating expressions."""
    h = coeffs.grid.spacing
    psi = coeffs.D.values * np.log(f_values) + coeffs.phi.values
    m = f_values / pi
    fluxes = []
    for k in range(f_values.ndim):
        m_east = shift(m, 1, k)
        face = 2.0 * m * m_east / (m + m_east)
        fluxes.append(face * (shift(psi, 1, k) - psi) / h)
    acc = fluxes[0] - shift(fluxes[0], -1, 0)
    for k in range(1, len(fluxes)):
        acc += fluxes[k] - shift(fluxes[k], -1, k)
    acc /= h
    return acc


def plain_advance(f_values, coeffs, pi, dt, integrator):
    """Reference explicit step: forward Euler or classical RK4 as plain expressions."""
    if integrator == "explicit-euler":
        return f_values + dt * plain_rhs_values(f_values, coeffs, pi)
    k1 = plain_rhs_values(f_values, coeffs, pi)
    k2 = plain_rhs_values(f_values + 0.5 * dt * k1, coeffs, pi)
    k3 = plain_rhs_values(f_values + 0.5 * dt * k2, coeffs, pi)
    k4 = plain_rhs_values(f_values + dt * k3, coeffs, pi)
    return f_values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.fixture(scope="session")
def heat_run_64():
    """Heat relaxation at N=64 with snapshots; reused across test modules."""
    grid = F.build_grid(1, 64)
    coeffs, f0 = F.sample_coefficients(
        {"D": "1", "phi": "0", "pi": "1", "f0": "1 + 0.05*sin(2*pi*x1)"}, grid
    )
    feq, _ = F.compute_equilibrium(coeffs)
    envelope = dg.max_principle_envelope(f0, feq, coeffs)
    snapshots = []
    recorder = capturing(dg.make_recorder(coeffs, envelope=envelope), snapshots)
    series = F.run(
        f0, coeffs, F.SolverConfig(t_end=0.03, cfl_safety=0.4, record_every=8), recorder
    )
    return {
        "grid": grid,
        "coeffs": coeffs,
        "f0": f0,
        "feq": feq,
        "envelope": envelope,
        "series": series,
        "snapshots": snapshots,
    }
