"""Functionals tracked along trajectories.

Free energy F[f] = int D f (log f - 1) + f phi and its dissipation rate
D_dis = int pi |u|^2 f are the primary pair (dF/dt = -D_dis along solutions).
On top of those this module evaluates:

* pointwise maximum-principle envelopes built from f0, the equilibrium
  density, and D, plus containment margins along a trajectory;
* the pointwise divergence bound |Div u|^2 <= n |grad u|^2;
* the second time derivative of the free energy, broken into named integral
  terms (2 terms when D and pi are constant, 7 with spatial D, 13 with a
  variable mobility), so the identity can be checked against a centered
  time difference of -D_dis;
* empirical density-weighted Sobolev and Poincare ratios, interpolation
  margins for the cubic velocity moment, and exponential decay fits.

All integrals use midpoint quadrature on cell centers, consistent with the
grid module.  Every derivative here is a centered difference; the solver's
face stencil is intentionally different.

The weighted Sobolev/Poincare constants in the decay conditions are not
constructive, so by default the running maxima of the empirical ratios stand
in for them; a user-supplied certified value can replace either.  The
exponent p* is fixed at 6 in all dimensions (one code path), and the
weighted-denominator variant exposes its epsilon with default 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import REGIMES, CoefficientSet
from .errors import (
    TooShortSeriesError,
    UndefinedRatioError,
    WrongRegimeError,
)
from .grid import (
    Grid,
    ScalarField,
    VectorField,
    centered_hessian,
    gradient_arrays,
    integrate,
)
from .solver import SolverState, compute_velocity, require_positive_density


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    free_energy: float
    dissipation: float
    f_min: float
    f_max: float
    log_f_sup: float
    u_sup: float
    envelope_violation: float
    jensen_margin: float
    # empirical ratios of the decay conditions (NaN together where undefined)
    poincare: float = math.nan
    sobolev: float = math.nan
    sobolev_weighted: float = math.nan


@dataclass(frozen=True)
class TimeSeries:
    """Ordered diagnostics records with strictly increasing times."""

    records: list[DiagnosticsRecord]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        times = [r.t for r in self.records]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("record times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


@dataclass(frozen=True)
class TermBreakdown:
    """Named integrals of the d^2F/dt^2 identity, in textual order."""

    mode: str
    terms: dict[str, float]
    sum: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares line through (t, log dissipation)."""

    rate: float
    log_intercept: float
    window: tuple[float, float]
    residual_rms: float
    n_points: int


def _cell_integral(grid: Grid, integrand: np.ndarray) -> float:
    return grid.cell_volume * float(integrand.sum())


# Array kernels shared by the public functions and the recorder, which
# computes each per-cell array (log f, |u|^2, |u|, |grad u|^2) once per state.


def _speed_sq(u: VectorField) -> np.ndarray:
    return np.sum(u.components**2, axis=0)


def _grad_sq(jac: np.ndarray) -> np.ndarray:
    return np.sum(jac**2, axis=(0, 1))


def _free_energy(grid: Grid, fv: np.ndarray, log_f: np.ndarray, coeffs: CoefficientSet) -> float:
    return _cell_integral(grid, coeffs.D.values * fv * (log_f - 1.0) + fv * coeffs.phi.values)


def _dissipation(grid: Grid, fv: np.ndarray, pi: np.ndarray, speed_sq: np.ndarray) -> float:
    return _cell_integral(grid, pi * speed_sq * fv)


def free_energy(f: ScalarField, coeffs: CoefficientSet) -> float:
    """int D f (log f - 1) + f phi."""
    v = f.values
    require_positive_density(v)
    return _free_energy(f.grid, v, np.log(v), coeffs)


def dissipation(f: ScalarField, coeffs: CoefficientSet, t: float) -> float:
    """int pi |u|^2 f  (nonnegative; zero exactly at equilibrium)."""
    u = compute_velocity(f, coeffs, t)
    return _dissipation(f.grid, f.values, coeffs.pi_values(t), _speed_sq(u))


def energy_law_residual(series: TimeSeries) -> np.ndarray:
    """Centered check of dF/dt = -D_dis at each interior record.

    residual_i = (F(t_{i+1}) - F(t_{i-1})) / (t_{i+1} - t_{i-1}) + D_dis(t_i)
    """
    if len(series) < 3:
        raise TooShortSeriesError("need at least 3 records for the energy-law residual")
    t = series.column("t")
    fe = series.column("free_energy")
    dis = series.column("dissipation")
    return (fe[2:] - fe[:-2]) / (t[2:] - t[:-2]) + dis[1:-1]


def max_principle_envelope(
    f0: ScalarField, feq: ScalarField, coeffs: CoefficientSet
) -> tuple[ScalarField, ScalarField]:
    """Time-independent pointwise bounds exp(m/D) feq <= f <= exp(M/D) feq,

    with m and M the extrema over cells of D log(f0/feq).  By construction
    the initial density sits between the two envelopes.
    """
    ratio = coeffs.D.values * np.log(f0.values / feq.values)
    m = float(ratio.min())
    big_m = float(ratio.max())
    lower = np.exp(m / coeffs.D.values) * feq.values
    upper = np.exp(big_m / coeffs.D.values) * feq.values
    grid = f0.grid
    return ScalarField(grid, lower), ScalarField(grid, upper)


def envelope_margin(f: ScalarField, envelope: tuple[ScalarField, ScalarField]) -> float:
    """Worst signed containment margin min(f - lower, upper - f) over cells."""
    lower, upper = envelope
    return float(np.minimum(f.values - lower.values, upper.values - f.values).min())


def check_envelope(states, envelope: tuple[ScalarField, ScalarField]) -> float:
    """Worst margin over a collection of ScalarFields (pass iff >= -1e-8)."""
    return min(envelope_margin(f, envelope) for f in states)


def _jacobian(u: VectorField) -> np.ndarray:
    """J[k, l] = d u_k / d x_l by centered differences; shape (n, n, ...)."""
    h = u.grid.spacing
    return np.stack([np.stack(gradient_arrays(c, h)) for c in u.components])


def _jensen_margin(jac: np.ndarray, grad_sq: np.ndarray) -> float:
    div = np.trace(jac, axis1=0, axis2=1)
    return float((jac.shape[0] * grad_sq - div**2).min())


def jensen_check(u: VectorField) -> float:
    """min over cells of n |grad u|^2 - |Div u|^2 (nonnegative to round-off)."""
    jac = _jacobian(u)
    return _jensen_margin(jac, _grad_sq(jac))


_FULL_TERM_NAMES = (
    "hessian_phi",
    "d_grad_u_sq",
    "logf_gradDu_sq_cross",
    "divu_cross",
    "cubic_logf",
    "gradD_sq_logf_sq",
    "gradD_gradPhi_cross",
    "pi_t",
    "cubic_gradPi",
    "gradPi_gradD",
    "gradPi_gradD_directional",
    "grad_usq_gradPi",
    "jacobian_u_gradPi",
)


def second_derivative_terms(
    f: ScalarField, coeffs: CoefficientSet, t: float, mode: str
) -> TermBreakdown:
    """Evaluate the named integrals of d^2F/dt^2 for the requested regime.

    ``homogeneous`` (constant D and pi) has 2 terms, ``inhomogeneous-D``
    (constant pi) 7, ``full`` 13.  The mode must be ``coeffs.regime`` or a
    later regime of REGIMES.  All derivatives are centered differences;
    grad|u|^2 is the centered gradient of the sampled speed-squared field.
    """
    if mode not in REGIMES:
        raise ValueError(f"mode must be one of {REGIMES}")
    if REGIMES.index(mode) < REGIMES.index(coeffs.regime):
        raise WrongRegimeError(f"{mode} mode does not cover the {coeffs.regime} regime")

    grid = f.grid
    fv = f.values
    log_f = np.log(fv)
    u = compute_velocity(f, coeffs, t)
    uc = u.components
    jac = _jacobian(u)
    grad_u_sq = _grad_sq(jac)
    div_u = np.trace(jac, axis1=0, axis2=1)
    speed_sq = _speed_sq(u)
    hess_phi = centered_hessian(coeffs.phi)
    hess_u = np.einsum("kl...,l...->k...", hess_phi, uc)
    d = coeffs.D.values

    def quad(x: np.ndarray) -> float:
        return _cell_integral(grid, x * fv)

    terms: dict[str, float] = {}
    terms["hessian_phi"] = 2.0 * quad(np.sum(hess_u * uc, axis=0))
    terms["d_grad_u_sq"] = 2.0 * quad(d * grad_u_sq)

    if mode != "homogeneous":
        grad_d = coeffs.grad_D.components
        grad_phi = coeffs.grad_phi.components
        u_dot_grad_d = np.sum(uc * grad_d, axis=0)
        u_dot_grad_phi = np.sum(uc * grad_phi, axis=0)
        grad_speed_sq = np.stack(gradient_arrays(speed_sq, grid.spacing))
        pi_now = coeffs.pi_values(t)

        terms["logf_gradDu_sq_cross"] = -quad(
            (log_f - 1.0) * np.sum(grad_speed_sq * grad_d, axis=0)
        )
        terms["divu_cross"] = -2.0 * quad((1.0 + log_f) * u_dot_grad_d * div_u)
        # with constant pi the pi/D weight reduces to the constant over D
        terms["cubic_logf"] = 2.0 * quad((pi_now / d) * speed_sq * log_f * u_dot_grad_d)
        terms["gradD_sq_logf_sq"] = 2.0 * quad((log_f**2) * (u_dot_grad_d**2) / d)
        terms["gradD_gradPhi_cross"] = 2.0 * quad(log_f * u_dot_grad_d * u_dot_grad_phi / d)

    if mode == "full":
        grad_pi = coeffs.grad_pi_at(t).components
        pi_t = coeffs.pi_t_values(t)
        u_dot_grad_pi = np.sum(uc * grad_pi, axis=0)
        grad_pi_dot_grad_d = np.sum(grad_pi * grad_d, axis=0)
        jac_u = np.einsum("kl...,l...->k...", jac, uc)

        terms["pi_t"] = quad(pi_t * speed_sq)
        terms["cubic_gradPi"] = quad(speed_sq * u_dot_grad_pi)
        terms["gradPi_gradD"] = -2.0 * quad((log_f - 1.0) * speed_sq * grad_pi_dot_grad_d / pi_now)
        terms["gradPi_gradD_directional"] = 2.0 * quad(
            (log_f - 1.0) * u_dot_grad_pi * u_dot_grad_d / pi_now
        )
        terms["grad_usq_gradPi"] = quad((d / pi_now) * np.sum(grad_speed_sq * grad_pi, axis=0))
        terms["jacobian_u_gradPi"] = -2.0 * quad((d / pi_now) * np.sum(jac_u * grad_pi, axis=0))

    return TermBreakdown(mode=mode, terms=terms, sum=math.fsum(terms.values()))


def _poincare_ratio(grid: Grid, fv: np.ndarray, speed_sq: np.ndarray, grad_sq: np.ndarray) -> float:
    num = _cell_integral(grid, speed_sq * fv)
    den = _cell_integral(grid, grad_sq * fv)
    if den <= 0.0:
        raise UndefinedRatioError("int |grad u|^2 f vanishes; Poincare ratio undefined")
    return num / den


def empirical_poincare(f: ScalarField, u: VectorField) -> float:
    """Ratio int |u|^2 f / int |grad u|^2 f (empirical constant sample)."""
    return _poincare_ratio(f.grid, f.values, _speed_sq(u), _grad_sq(_jacobian(u)))


def empirical_sobolev(
    f: ScalarField,
    u: VectorField,
    p_star: float = 6.0,
    weighted: bool = False,
    eps: float = 2.0,
) -> float:
    """Ratio (int |u|^p* f)^(1/p*) / (int |grad u|^2 f)^(1/2).

    The ``weighted`` variant divides by (int (2|grad u|^2 + eps |u|^2) f)^(1/2)
    instead, matching the form needed when the velocity is not a gradient.
    """
    if not p_star > 2.0:
        raise ValueError("p_star must exceed 2")
    return _sobolev_ratio(f.grid, f.values, u.magnitude(), _grad_sq(_jacobian(u)), p_star, weighted, eps)


def _sobolev_ratio(
    grid: Grid,
    fv: np.ndarray,
    speed: np.ndarray,
    grad_sq: np.ndarray,
    p_star: float = 6.0,
    weighted: bool = False,
    eps: float = 2.0,
) -> float:
    num = _cell_integral(grid, speed**p_star * fv) ** (1.0 / p_star)
    if weighted:
        # speed**2, not |u|^2 summed again: the two differ in the last bit
        den_sq = _cell_integral(grid, (2.0 * grad_sq + eps * speed**2) * fv)
    else:
        den_sq = _cell_integral(grid, grad_sq * fv)
    if den_sq <= 0.0:
        raise UndefinedRatioError("Sobolev-ratio denominator vanishes (u constant)")
    return num / math.sqrt(den_sq)


def interpolation_check(
    f: ScalarField, u: VectorField, sobolev_const: float, mode: str
) -> float:
    """Signed margin RHS - LHS of the cubic-moment interpolation inequality.

    LHS = int |u|^3 f.  With K = sobolev_const, mode ``pi-constant`` uses
    RHS = (3/4) K^{3/2} int |grad u|^2 f + (1/4) K^{3/2} (int |u|^2 f)^3;
    mode ``pi-variable`` uses the weighted variant
    RHS = (3/2) K^{3/2} (int |grad u|^2 f + int |u|^2 f)
          + (1/4) K^{3/2} (int |u|^2 f)^3.
    A nonnegative margin certifies the inequality for this sample.
    """
    if sobolev_const <= 0.0:
        raise ValueError("sobolev_const must be positive")
    if mode not in ("pi-constant", "pi-variable"):
        raise ValueError("mode must be 'pi-constant' or 'pi-variable'")
    grid = f.grid
    speed = u.magnitude()
    lhs = _cell_integral(grid, speed**3 * f.values)
    grad_term = _cell_integral(grid, _grad_sq(_jacobian(u)) * f.values)
    speed_sq_term = _cell_integral(grid, speed**2 * f.values)
    k32 = sobolev_const**1.5
    if mode == "pi-constant":
        rhs = 0.75 * k32 * grad_term + 0.25 * k32 * speed_sq_term**3
    else:
        rhs = 1.5 * k32 * (grad_term + speed_sq_term) + 0.25 * k32 * speed_sq_term**3
    return rhs - lhs


def decay_fit(series: TimeSeries, window: tuple[float, float]) -> DecayFit:
    """Fit log dissipation linearly in t over the window; rate = -slope."""
    t_lo, t_hi = window
    t = series.column("t")
    dis = series.column("dissipation")
    mask = (t >= t_lo) & (t <= t_hi) & (dis > 0.0)
    if int(mask.sum()) < 5:
        raise TooShortSeriesError(
            f"need >= 5 records with positive dissipation in [{t_lo}, {t_hi}]; got {int(mask.sum())}"
        )
    ts = t[mask]
    logs = np.log(dis[mask])
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = logs - (slope * ts + intercept)
    return DecayFit(
        rate=float(-slope),
        log_intercept=float(intercept),
        window=(float(t_lo), float(t_hi)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_points=int(mask.sum()),
    )


def make_recorder(coeffs: CoefficientSet, envelope=None, on_state=None):
    """Build the per-state diagnostics callback used by solver.run.

    The callback is the one place a recorded state is read: from one
    velocity and Jacobian it records the series row and the empirical
    Poincare, Sobolev and weighted Sobolev (eps = 2) ratios, all NaN when
    any is undefined.  ``envelope`` is the (lower, upper) pair from
    max_principle_envelope; without it the containment margin is recorded
    as NaN.  ``on_state`` receives each recorded SolverState.
    """

    def recorder(state: SolverState) -> DiagnosticsRecord:
        f = state.f
        grid, fv = f.grid, f.values
        u = compute_velocity(f, coeffs, state.t)  # raises on a nonpositive cell
        jac = _jacobian(u)
        speed_sq = _speed_sq(u)
        speed = np.sqrt(speed_sq)  # u.magnitude()
        grad_sq = _grad_sq(jac)
        try:
            ratios = {
                "poincare": _poincare_ratio(grid, fv, speed_sq, grad_sq),
                "sobolev": _sobolev_ratio(grid, fv, speed, grad_sq),
                "sobolev_weighted": _sobolev_ratio(grid, fv, speed, grad_sq, weighted=True),
            }
        except UndefinedRatioError:
            ratios = {}  # the record's NaN defaults
        log_f = np.log(fv)
        record = DiagnosticsRecord(
            t=state.t,
            mass=integrate(f),
            free_energy=_free_energy(grid, fv, log_f, coeffs),
            dissipation=_dissipation(grid, fv, coeffs.pi_values(state.t), speed_sq),
            f_min=f.min(),
            f_max=f.max(),
            log_f_sup=float(np.abs(log_f).max()),
            u_sup=float(speed.max()),
            envelope_violation=envelope_margin(f, envelope) if envelope is not None else math.nan,
            jensen_margin=_jensen_margin(jac, grad_sq),
            **ratios,
        )
        if on_state is not None:
            on_state(state)
        return record

    return recorder
