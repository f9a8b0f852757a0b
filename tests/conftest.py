import copy
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fpklab as F
from fpklab import cli, diagnostics as dg
from fpklab.coefficients import _finite_samples, _grid_coords, _require_positive
from fpklab.grid import gradient_arrays, per_axis

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


def clauses_by_name(report: dict) -> dict:
    """A condition report's clauses, keyed by clause name."""
    return {c["name"]: c for c in report["clauses"]}


def constant(value, provenance: str = "empirical") -> dict:
    """A decay constant as the T2/T3/T4 checkers take it and report.json writes it."""
    return {"value": value, "provenance": provenance}


def constants_map(poincare, sobolev=1.0, sobolev_weighted=None, provenance: str = "empirical") -> dict:
    """The constants map the T2/T3/T4 checkers take, all of one provenance; the
    weighted Sobolev constant is the plain one unless given."""
    weighted = sobolev if sobolev_weighted is None else sobolev_weighted
    values = {"poincare": poincare, "sobolev": sobolev, "sobolev_weighted": weighted}
    return {name: constant(value, provenance) for name, value in values.items()}


def capturing(recorder, states: list):
    """The batch ``recorder``, also appending each state it records to ``states``."""

    def capture(batch, pis):
        records = recorder(batch, pis)
        states.extend(batch)
        return records

    return capture


def run_with_snapshots(scenario_dict: dict):
    """Run a scenario dict in memory; returns (series, report, snapshots).

    The snapshots are the recorded states, captured by wrapping
    ``diagnostics.make_batch_recorder`` for the duration of the run.
    """
    scenario = cli.build_scenario(scenario_dict, fallback_name=scenario_dict.get("name", "test"))
    snapshots = []
    make_batch_recorder = dg.make_batch_recorder
    dg.make_batch_recorder = lambda *args, **kwargs: capturing(make_batch_recorder(*args, **kwargs), snapshots)
    try:
        series, report = cli.run_scenario_data(scenario)
    finally:
        dg.make_batch_recorder = make_batch_recorder
    return series, report, snapshots


def plain_pi_values(coeffs, t):
    """Reference mobility sample: the whole expression evaluated at t, uncached."""
    if not coeffs.pi_expr.uses_t:
        return coeffs.pi0.values
    expr, grid = coeffs.pi_expr, coeffs.grid
    arr = _finite_samples(expr.evaluate({**_grid_coords(expr, grid, "pi"), "t": t}), expr, grid, "pi")
    _require_positive("pi", arr, grid)
    return arr


def plain_fluxes(f_values, coeffs, pi):
    """Reference face fluxes times h, one per axis: harmonic_mean(m, m_east) (psi_east - psi),
    m = f/pi, as plain allocating expressions; np.roll(v, -1, k) is the east neighbor."""
    psi = coeffs.D.values * np.log(f_values) + coeffs.phi.values
    m = f_values / pi
    fluxes = []
    for k in range(f_values.ndim):
        m_east = np.roll(m, -1, k)
        face = 2.0 * m * m_east / (m + m_east)
        fluxes.append(face * (np.roll(psi, -1, k) - psi))
    return fluxes


def plain_rhs_values(f_values, coeffs, pi):
    """Reference RHS: the divergence of ``plain_fluxes``, scaled once by N^2 = 1/h^2;
    no grid code is shared."""
    fluxes = plain_fluxes(f_values, coeffs, pi)
    acc = fluxes[0] - np.roll(fluxes[0], 1, 0)
    for k in range(1, len(fluxes)):
        acc += fluxes[k] - np.roll(fluxes[k], 1, k)
    acc *= coeffs.grid.cells_per_axis**2
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


def plain_hessian(values, spacing):
    """Reference discrete Hessian, shape (n, n, N, ..., N): 3-point second differences on
    the diagonal, the centered first difference taken twice off it, wrapped by np.roll."""
    n, h = values.ndim, spacing
    out = np.empty((n, n) + values.shape)
    for k in range(n):
        east, west = np.roll(values, -1, k), np.roll(values, 1, k)
        out[k, k] = (east - 2.0 * values + west) / h**2
        first = (east - west) / (2.0 * h)
        for l in range(k + 1, n):
            out[k, l] = out[l, k] = (np.roll(first, -1, l) - np.roll(first, 1, l)) / (2.0 * h)
    return out


def interpolation_check(f, u, sobolev_const: float, mode: str) -> float:
    """Signed margin RHS - LHS of the cubic-moment interpolation inequality.

    LHS = int |u|^3 f.  With K = sobolev_const, mode ``pi-constant`` uses
    RHS = (3/4) K^{3/2} int |grad u|^2 f + (1/4) K^{3/2} (int |u|^2 f)^3;
    mode ``pi-variable`` uses the weighted variant
    RHS = (3/2) K^{3/2} (int |grad u|^2 f + int |u|^2 f)
          + (1/4) K^{3/2} (int |u|^2 f)^3.
    A nonnegative margin certifies the inequality for this sample.  No run
    reads it: with K a state's own Sobolev ratio, Hoelder and Young bound the
    LHS by the RHS, so it is a reference the tests hold the recorded ratios to.
    """
    if sobolev_const <= 0.0:
        raise ValueError("sobolev_const must be positive")
    if mode not in ("pi-constant", "pi-variable"):
        raise ValueError("mode must be 'pi-constant' or 'pi-variable'")
    grid = f.grid
    speed_sq, grad_sq, _ = dg._velocity_sums(per_axis(grid, u, "velocity"), grid.spacing)
    speed = np.sqrt(speed_sq)
    lhs = dg._cell_integral(grid, speed**3 * f.values)
    grad_term = dg._cell_integral(grid, grad_sq * f.values)
    speed_sq_term = dg._cell_integral(grid, speed**2 * f.values)
    k32 = sobolev_const**1.5
    if mode == "pi-constant":
        rhs = 0.75 * k32 * grad_term + 0.25 * k32 * speed_sq_term**3
    else:
        rhs = 1.5 * k32 * (grad_term + speed_sq_term) + 0.25 * k32 * speed_sq_term**3
    return rhs - lhs


def comparison_ode(spec, t_end: float, dt: float):
    """Reference fixed-step RK4 solution of dg/dt = -c g + d g^p from g0, as (times,
    values): steps h = min(dt, t_end - t), a g^p that overflows read as +inf, and a
    stop once g is not finite or passes 1e12 (the blow-up above the threshold)."""

    def slope(g: float) -> float:
        try:
            return -spec.c * g + spec.d * g**spec.p
        except OverflowError:
            return math.inf

    times, values = [0.0], [spec.g0]
    while times[-1] < t_end - 1e-15 and math.isfinite(values[-1]) and values[-1] <= 1e12:
        t, g = times[-1], values[-1]
        h = min(dt, t_end - t)
        k1 = slope(g)
        k2 = slope(g + 0.5 * h * k1)
        k3 = slope(g + 0.5 * h * k2)
        k4 = slope(g + h * k3)
        times.append(t + h)
        values.append(g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(times), np.array(values)


def plain_term_breakdown(f, coeffs, t, mode):
    """Reference d^2F/dt^2 terms: the full Jacobian and Hessian contracted by einsum,
    the dot products by np.sum(a * b, axis=0), every integrand a plain expression."""
    grid, fv, d = f.grid, f.values, coeffs.D.values
    h, log_f, pi = grid.spacing, np.log(f.values), coeffs.pi_values(t)
    uc = np.stack(F.compute_velocity(f, coeffs, t))
    jac = np.stack([np.stack(gradient_arrays(uk, h)) for uk in uc])
    speed_sq, grad_u_sq, div_u = np.sum(uc**2, axis=0), np.sum(jac**2, axis=(0, 1)), np.trace(jac)

    def quad(x):
        return grid.cell_volume * float((x * fv).sum())

    hess_u = np.einsum("kl...,l...->k...", plain_hessian(coeffs.phi.values, h), uc)
    terms = {}
    terms["hessian_phi"] = 2.0 * quad(np.sum(hess_u * uc, axis=0))
    terms["d_grad_u_sq"] = 2.0 * quad(d * grad_u_sq)
    if mode != "homogeneous":
        grad_d = coeffs.grad_D
        u_dot_grad_d = np.sum(uc * grad_d, axis=0)
        u_dot_grad_phi = np.sum(uc * coeffs.grad_phi, axis=0)
        grad_speed_sq = np.stack(gradient_arrays(speed_sq, h))
        terms["logf_gradDu_sq_cross"] = -quad((log_f - 1.0) * np.sum(grad_speed_sq * grad_d, axis=0))
        terms["divu_cross"] = -2.0 * quad((1.0 + log_f) * u_dot_grad_d * div_u)
        terms["cubic_logf"] = 2.0 * quad((pi / d) * speed_sq * log_f * u_dot_grad_d)
        terms["gradD_sq_logf_sq"] = 2.0 * quad((log_f**2) * (u_dot_grad_d**2) / d)
        terms["gradD_gradPhi_cross"] = 2.0 * quad(log_f * u_dot_grad_d * u_dot_grad_phi / d)
    if mode == "full":
        grad_pi = np.stack(gradient_arrays(pi, h))
        u_dot_grad_pi = np.sum(uc * grad_pi, axis=0)
        grad_pi_dot_grad_d = np.sum(grad_pi * grad_d, axis=0)
        jac_u = np.einsum("kl...,l...->k...", jac, uc)
        terms["pi_t"] = quad(coeffs.pi_t_values(t) * speed_sq)
        terms["cubic_gradPi"] = quad(speed_sq * u_dot_grad_pi)
        terms["gradPi_gradD"] = -2.0 * quad((log_f - 1.0) * speed_sq * grad_pi_dot_grad_d / pi)
        terms["gradPi_gradD_directional"] = 2.0 * quad((log_f - 1.0) * u_dot_grad_pi * u_dot_grad_d / pi)
        terms["grad_usq_gradPi"] = quad((d / pi) * np.sum(grad_speed_sq * grad_pi, axis=0))
        terms["jacobian_u_gradPi"] = -2.0 * quad((d / pi) * np.sum(jac_u * grad_pi, axis=0))
    return terms


def traced_peak_arrays(call, grid):
    """(call(), the peak of memory traced during it above its start, in arrays of ``grid``'s shape)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - start) / (8 * grid.cell_count)


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
    recorder = capturing(dg.make_batch_recorder(coeffs, envelope=envelope), snapshots)
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
