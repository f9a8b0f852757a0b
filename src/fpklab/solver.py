"""Conservative finite-volume time stepping for the density.

The flow is the continuity form df/dt = -Div(f u) with velocity
u = -(1/pi) grad(D log f + phi).  Writing psi = D log f + phi and m = f/pi,
the face flux between neighbor cells a and b along axis k, times h, is

    F_k = harmonic_mean(m_a, m_b) * (psi_b - psi_a),

and the cell update is the conservative face divergence of these fluxes,
sum_k (F_k - F_k,west) / h^2, scaled once by N^2 = 1/h^2.
Two structural consequences drive everything downstream: the total mass
telescopes to zero at every evaluation (mass is conserved to round-off by
any explicit stage combination), and the sampled equilibrium density makes
psi constant so the scheme is exactly stationary on it.  The harmonic mean
vanishes when either cell vanishes, which helps positivity; steps that still
produce a cell at or below the positivity floor are rejected and retried
with a halved dt rather than clipped (clipping would silently break mass
conservation).  This floor test is the one rejection rule: stages are not
checked, since a stage cell at or below 0 makes psi -inf or NaN and hence the
result NaN there.  With the mass test, which +inf fails, it is the only check
on a new state, so the array is wrapped with no copy or finiteness pass.

Time stepping is explicit (forward Euler or the classical four-stage
Runge-Kutta).  ``step`` samples the mobility once, at the step's start time,
and every stage and every retry of that step shares the sample.  So RK4 is
first order in dt when the mobility uses t: on 64 cells with pi = 1.2 +
0.2 cos 2 pi x + 0.5 sin 40t, its error at t = 0.02 is 5.1e-5, 2.5e-5 and
1.2e-5 at cfl_safety 0.4, 0.2 and 0.1, where a t-free mobility's is
round-off, below 1e-12, at 0.4.  The coefficient set caches its latest mobility
sample, so ``stable_dt``, ``step`` and ``run``'s record at one time share one
evaluation of the mobility; ``run`` hands the recorder that sample.  When the mobility does not use t, ``stable_dt``
depends only on D and pi at t = 0, so ``run`` computes it once per run;
otherwise once per step.  ``run`` returns its records, one list per quantity,
in a TimeSeries; diagnostics builds on this module.

Evaluations are vectorized whole-grid numpy operations.  The potential,
each face flux, each Runge-Kutta stage and the stage sum are built in place,
in arrays the evaluation already owns, with the IEEE operations of the plain
formulas in the same order, so results are bitwise those of the plain
formulas.  The one N^2 leaves a call two divisions in 1-D and four in 3-D
(f/pi and a harmonic mean per axis).  When N is a power of two, h = 2^-k,
so dividing each flux and then the divergence by h gives the same bits,
short of overflow or underflow; for another N they differ in the last bits.
A 1-D right-hand side runs a one-axis body: the same operations in the same
order, so it too is bitwise the plain formulas, in 15 whole-array numpy
calls.  What does not change between calls is bound once per grid and
fetched in one cached lookup: each neighbor is an index ``a[rows]`` through
``grid.wrapped_rows`` (the cached index ``shift`` takes on axis 0), cheaper
than ``a.take(rows)``, and 2 and N^2 are read-only 0-d float64 operands,
which numpy 2 applies in less time than a Python float it converts on every
call, with the same bits.  Higher dimensions keep the per-axis path, whose
allocation order sets a 32^3 step's page faults.  The timings behind these
choices are in BENCH_30.json, BENCH_31.json and their CHANGES.md entries.
Reductions use numpy's pairwise summation in array
order, so results are bitwise deterministic run to run for a fixed build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .coefficients import CoefficientSet
from .errors import (
    FpkError,
    MassConservationError,
    NonFiniteFieldError,
    NonPositiveDensityError,
    StiffnessError,
)
from .grid import ScalarField, face_divergence_arrays, gradient_arrays, integrate, shift, wrapped_rows

INTEGRATORS = ("explicit-euler", "rk4")

#: relative mass defect tolerated at an accepted step
MASS_TOL = 1e-12

#: rejected-step retries before declaring the problem stiff
MAX_RETRIES = 10

#: run hands its recorder the held states once they hold this many cells
BATCH_CELLS = 4096


@dataclass(frozen=True)
class SolverState:
    """Density snapshot at one accepted time."""

    f: ScalarField
    t: float
    step_index: int


@dataclass(frozen=True)
class TimeSeries:
    """Records as one equal-length list per quantity, ``t`` strictly increasing; the step count, None if unstepped."""

    columns: dict
    accepted_steps: int | None = None

    def __post_init__(self):
        if len({len(column) for column in self.columns.values()}) > 1:
            raise ValueError("every recorded quantity must have one value per record")
        times = self.columns["t"]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("record times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.columns["t"])

    def column(self, name: str) -> np.ndarray:
        return np.array(self.columns[name])


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl_safety: float = 0.4
    positivity_floor: float = 0.0
    integrator: str = "rk4"
    max_steps: int = 1_000_000
    record_every: int = 10

    def __post_init__(self):
        if not (0.0 <= self.t_end < math.inf):
            raise ValueError("t_end must be finite and nonnegative")
        if not (0.0 <= self.positivity_floor < math.inf):
            raise ValueError("positivity_floor must be finite and nonnegative")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def require_positive_density(f_values: np.ndarray) -> None:
    """Raise NonPositiveDensityError unless every cell is above 0 (NaN passes)."""
    if f_values.min() <= 0.0:
        raise NonPositiveDensityError("density has a nonpositive cell; log f undefined")


def _potential(f_values: np.ndarray, coeffs: CoefficientSet) -> np.ndarray:
    """psi = D log f + phi, built in one fresh array."""
    psi = np.log(f_values)
    psi *= coeffs.D.values
    psi += coeffs.phi.values
    return psi


def _velocity_arrays(psi: np.ndarray, pi: np.ndarray, spacing: float, lead: int = 0) -> list[np.ndarray]:
    """u_k = -(d_k psi) / pi per axis after the first ``lead``, each in its gradient's own array."""
    comps = gradient_arrays(psi, spacing, lead)
    for g in comps:
        np.negative(g, out=g)
        g /= pi
    return comps


def compute_velocity(f: ScalarField, coeffs: CoefficientSet, t: float) -> list[np.ndarray]:
    """u = -(1/pi) grad(D log f + phi), centered differences, one array per axis;
    NonFiniteFieldError if an entry is NaN or infinite."""
    require_positive_density(f.values)
    u = _velocity_arrays(_potential(f.values, coeffs), coeffs.pi_values(t), f.grid.spacing)
    if not all(np.isfinite(uk).all() for uk in u):
        raise NonFiniteFieldError("velocity has a NaN or infinite entry")
    return u


#: 2.0 as a read-only 0-d float64: numpy 2 converts a Python float operand on every call
_TWO = np.array(2.0)
_TWO.setflags(write=False)


@cache
def _axis_operands(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N^2 = n*n as a read-only 0-d float64, east rows, west rows) of n cells per axis, cached per n."""
    scale = np.array(float(n * n))
    scale.setflags(write=False)
    return scale, wrapped_rows(n, 1), wrapped_rows(n, -1)


def _rhs_values(f_values: np.ndarray, coeffs: CoefficientSet, pi: np.ndarray) -> np.ndarray:
    scale, east_rows, west_rows = _axis_operands(f_values.shape[0])
    if f_values.ndim == 1:
        # the loop below and face_divergence_arrays for one axis, operation for operation,
        # each neighbor indexed through the cached rows shift takes on axis 0
        psi = np.log(f_values)
        psi *= coeffs.D.values
        psi += coeffs.phi.values
        mobility_density = f_values / pi
        east = mobility_density[east_rows]
        flux = _TWO * mobility_density
        flux *= east
        east += mobility_density
        flux /= east
        east = psi[east_rows]
        east -= psi
        flux *= east
        div = flux[west_rows]
        np.subtract(flux, div, out=div)
        div *= scale
        return div
    psi = _potential(f_values, coeffs)
    mobility_density = f_values / pi
    fluxes = []
    for k in range(f_values.ndim):
        # flux = (2 m m_east) / (m + m_east) * (psi_east - psi), in place
        east = shift(mobility_density, 1, k)
        flux = 2.0 * mobility_density
        flux *= east
        east += mobility_density
        flux /= east
        east = shift(psi, 1, k)
        east -= psi
        flux *= east
        fluxes.append(flux)
    div = face_divergence_arrays(fluxes)
    div *= scale
    return div


def rhs(f: ScalarField, coeffs: CoefficientSet, t: float) -> ScalarField:
    """Conservative right-hand side Div((f/pi) grad(D log f + phi))."""
    require_positive_density(f.values)
    return ScalarField(f.grid, _rhs_values(f.values, coeffs, coeffs.pi_values(t)))


def stable_dt(coeffs: CoefficientSet, t: float, cfl_safety: float) -> float:
    """Parabolic step heuristic cfl_safety * h^2 / (2 n max(D/pi)); FpkError unless
    it is positive and finite (max(D/pi), or the step, over- or underflowing)."""
    if not 0.0 < cfl_safety <= 1.0:
        raise ValueError("cfl_safety must be in (0, 1]")
    grid = coeffs.grid
    with np.errstate(over="ignore"):
        diffusivity = float((coeffs.D.values / coeffs.pi_values(t)).max())
    scale = 2.0 * grid.dim * diffusivity
    dt = cfl_safety * grid.spacing**2 / scale if scale > 0.0 else math.inf
    if not 0.0 < dt < math.inf:  # false on NaN
        raise FpkError(
            f"max D/pi is {diffusivity!r} at t = {t!r}; with cfl_safety {cfl_safety!r} "
            f"the stable time step is {dt!r}, not positive and finite"
        )
    return dt


def _advance(f_values: np.ndarray, coeffs: CoefficientSet, pi: np.ndarray, dt: float, integrator: str) -> np.ndarray:
    """f + dt k1 (Euler) or f + (dt/6)(k1 + 2 k2 + 2 k3 + k4) (RK4), built in
    k1; f_values and pi are only read."""
    k1 = _rhs_values(f_values, coeffs, pi)
    weight = dt
    if integrator == "rk4":
        # each stage f + scale k is built in a fresh k * scale; each k is added into k1,
        # left to right, and freed once the next stage is built from it
        stage = k1 * (0.5 * dt)
        stage += f_values
        k2 = _rhs_values(stage, coeffs, pi)
        del stage  # before k2's stage is allocated: a 3-D step's page faults follow allocation order
        stage = k2 * (0.5 * dt)
        stage += f_values
        k2 *= _TWO
        k1 += k2
        del k2
        k3 = _rhs_values(stage, coeffs, pi)
        stage = k3 * dt
        stage += f_values
        k3 *= _TWO
        k1 += k3
        del k3
        k1 += _rhs_values(stage, coeffs, pi)
        weight = dt / 6.0
    k1 *= weight
    k1 += f_values
    return k1


def step(state: SolverState, coeffs: CoefficientSet, dt: float, config: SolverConfig) -> SolverState:
    """One accepted explicit step; rejects and halves dt at the positivity floor."""
    if not 0.0 < dt < math.inf:  # false on NaN
        raise ValueError("dt must be positive and finite")
    floor = config.positivity_floor
    pi = coeffs.pi_values(state.t)
    rejections = 0
    while True:
        # a nonpositive stage cell gives NaN, an overflowing flux inf or NaN: the floor or mass test fails
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new_values = _advance(state.f.values, coeffs, pi, dt, config.integrator)
        fmin = float(new_values.min())
        if fmin > floor:  # false on NaN
            break
        rejections += 1
        if rejections >= MAX_RETRIES:
            raise StiffnessError(
                f"{MAX_RETRIES} consecutive step rejections at t = {state.t:.6g}, step {state.step_index}"
                f" (last dt {dt:.3e}, min new value {fmin:.3e})",
                {
                    "t": state.t,
                    "step_index": state.step_index,
                    "last_dt": dt,
                    "min_new_value": fmin,
                    "positivity_floor": floor,
                    "min_current_value": state.f.min(),
                },
            )
        dt *= 0.5

    new_f = ScalarField._trusted(state.f.grid, new_values)
    mass = integrate(new_f)
    if not abs(mass - 1.0) <= MASS_TOL:  # fails closed on NaN
        raise MassConservationError(
            f"mass {mass!r} drifted beyond {MASS_TOL:g} at step {state.step_index + 1}"
        )
    return SolverState(f=new_f, t=state.t + dt, step_index=state.step_index + 1)


def run(f0: ScalarField, coeffs: CoefficientSet, config: SolverConfig, recorder):
    """March from f0 to t_end (or max_steps), recording diagnostics.

    ``recorder`` maps SolverStates and the mobility sampled at each one's time
    to their records, one list per quantity keyed by name (see
    ``diagnostics.make_batch_recorder``).  It records the initial state at
    once, then every ``record_every`` accepted steps and the final state in
    batches of up to BATCH_CELLS cells (at least one state), and those held
    when a step fails before its error propagates, so the first failure in
    trajectory order is the one raised.  Returns the TimeSeries of the lists
    each batch extends, its ``accepted_steps`` the run's step count.
    """
    if f0.min() <= 0.0:
        raise NonPositiveDensityError("initial density must be strictly positive")
    mass = integrate(f0)
    if not abs(mass - 1.0) <= MASS_TOL:  # fails closed on NaN
        raise FpkError(f"initial density must have unit mass; got {mass!r}")

    state = SolverState(f=f0, t=0.0, step_index=0)
    columns, held = recorder([state], [coeffs.pi_values(0.0)]), []  # a bad input fails before any step

    def flush():  # a batch whose recorder raises is not recorded again, and none outlives its call
        nonlocal held
        full, held = held, []
        for name, column in recorder(*map(list, zip(*full))).items():
            columns[name] += column

    batch = max(1, BATCH_CELLS // f0.grid.cell_count)
    fixed_dt = None if coeffs.pi_expr.uses_t else stable_dt(coeffs, 0.0, config.cfl_safety)
    try:
        while state.t < config.t_end and state.step_index < config.max_steps:
            dt = stable_dt(coeffs, state.t, config.cfl_safety) if fixed_dt is None else fixed_dt
            dt = min(dt, config.t_end - state.t)
            state = step(state, coeffs, dt, config)
            final = not (state.t < config.t_end and state.step_index < config.max_steps)
            if final or state.step_index % config.record_every == 0:
                held.append((state, coeffs.pi_values(state.t)))  # the sample the next step reuses
            if len(held) == batch:
                flush()  # a 3-D state kept to the next record took a bulk run from 7.4k to 28k page faults
    finally:
        if held:
            flush()
    return TimeSeries(columns=columns, accepted_steps=state.step_index)


__all__ = [
    "SolverState",
    "SolverConfig",
    "TimeSeries",
    "compute_velocity",
    "rhs",
    "stable_dt",
    "step",
    "run",
    "INTEGRATORS",
]
