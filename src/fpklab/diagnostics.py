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
exponent P_STAR = 6 holds in all dimensions (one code path), and the
weighted denominator's epsilon is EPS = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import REGIMES, CoefficientSet
from .errors import (
    NonFiniteFieldError,
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
from .solver import SolverState, _velocity_arrays, compute_velocity, require_positive_density

#: a run's records carry at most this many term breakdowns, picked by target time
TERM_SAMPLES = 5

#: the Sobolev ratios' moment exponent p*, and the weighted denominator's epsilon
P_STAR = 6.0
EPS = 2.0


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
    envelope_margin: float
    jensen_margin: float
    # empirical ratios of the decay conditions (NaN together where undefined)
    poincare: float = math.nan
    sobolev: float = math.nan
    sobolev_weighted: float = math.nan
    # the d^2F/dt^2 breakdown, on the records make_recorder samples by target time
    terms: TermBreakdown | None = field(default=None, compare=False)


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


# Array kernels shared by the public functions and the recorder: one pass over
# the velocity's derivatives, so each quantity has one definition and one bit pattern.


def _velocity_sums(components, spacing: float, jacobian=None):
    """|u|^2, |grad u|^2 and div u, one component u_k at a time: each centered d_l u_k
    is squared in its own array after d_k u_k joins div u.  The sums start at 0 in the
    order of np.sum(u**2, axis=0), np.sum(J**2, axis=(0, 1)) and np.trace(J), so each is
    bitwise theirs.  No Jacobian is built; given an (n, n, ...) array ``jacobian``,
    each d_l u_k is copied into jacobian[k, l] before it is squared."""
    speed_sq, grad_sq, div = (np.zeros(components[0].shape) for _ in range(3))
    for k, uk in enumerate(components):
        speed_sq += uk * uk
        for l, grad in enumerate(gradient_arrays(uk, spacing)):
            if jacobian is not None:
                jacobian[k, l] = grad
            if l == k:
                div += grad
            grad *= grad
            grad_sq += grad
    return speed_sq, grad_sq, div


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
    speed_sq = _velocity_sums(compute_velocity(f, coeffs, t).components, f.grid.spacing)[0]
    return _dissipation(f.grid, f.values, coeffs.pi_values(t), speed_sq)


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


def _jensen_margin(dim: int, grad_sq: np.ndarray, div: np.ndarray) -> float:
    return float((dim * grad_sq - div**2).min())


def jensen_check(u: VectorField) -> float:
    """min over cells of n |grad u|^2 - |Div u|^2 (nonnegative to round-off)."""
    _, grad_sq, div = _velocity_sums(u.components, u.grid.spacing)
    return _jensen_margin(u.grid.dim, grad_sq, div)


def _velocity_pass(f: ScalarField, coeffs: CoefficientSet, t: float, jacobian: bool = False):
    """(log f, pi, u, J, |u|^2, |grad u|^2, div u) of one state, log f taken once; the
    u_k are compute_velocity's, in a list, and J, the (n, n, ...) Jacobian, is None
    unless asked for.  A nonpositive cell raises NonPositiveDensityError, a NaN or
    infinite |u| (|u|^2 overflowing too) NonFiniteFieldError."""
    require_positive_density(f.values)
    grid, log_f = f.grid, np.log(f.values)
    psi = log_f * coeffs.D.values  # solver._potential, from the one log f
    psi += coeffs.phi.values
    pi = coeffs.pi_values(t)
    u = _velocity_arrays(psi, pi, grid.spacing)
    jac = np.empty((grid.dim, grid.dim) + grid.shape) if jacobian else None
    sums = _velocity_sums(u, grid.spacing, jac)
    if not math.isfinite(float(sums[0].max())):  # NaN if any component is NaN
        raise NonFiniteFieldError("velocity has a NaN or infinite entry, or |u|^2 overflows")
    return (log_f, pi, u, jac, *sums)


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
    velocity = _velocity_pass(f, coeffs, t, jacobian=mode == "full")
    return _term_breakdown(f, coeffs, t, mode, centered_hessian(coeffs.phi), velocity)


def _term_breakdown(f, coeffs, t, mode, hess_phi, velocity) -> TermBreakdown:
    """second_derivative_terms from a _velocity_pass (with J in full mode)."""
    log_f, pi, uc, jac, speed_sq, grad_u_sq, div_u = velocity
    grid, fv, d = f.grid, f.values, coeffs.D.values

    def quad(x: np.ndarray) -> float:
        return _cell_integral(grid, x * fv)

    hess_u = np.einsum("kl...,l...->k...", hess_phi, uc)
    terms: dict[str, float] = {}
    terms["hessian_phi"] = 2.0 * quad(np.sum(hess_u * uc, axis=0))
    terms["d_grad_u_sq"] = 2.0 * quad(d * grad_u_sq)

    if mode != "homogeneous":
        grad_d = coeffs.grad_D.components
        grad_phi = coeffs.grad_phi.components
        u_dot_grad_d = np.sum(uc * grad_d, axis=0)
        u_dot_grad_phi = np.sum(uc * grad_phi, axis=0)
        grad_speed_sq = np.stack(gradient_arrays(speed_sq, grid.spacing))

        terms["logf_gradDu_sq_cross"] = -quad(
            (log_f - 1.0) * np.sum(grad_speed_sq * grad_d, axis=0)
        )
        terms["divu_cross"] = -2.0 * quad((1.0 + log_f) * u_dot_grad_d * div_u)
        # with constant pi the pi/D weight reduces to the constant over D
        terms["cubic_logf"] = 2.0 * quad((pi / d) * speed_sq * log_f * u_dot_grad_d)
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
        terms["gradPi_gradD"] = -2.0 * quad((log_f - 1.0) * speed_sq * grad_pi_dot_grad_d / pi)
        terms["gradPi_gradD_directional"] = 2.0 * quad(
            (log_f - 1.0) * u_dot_grad_pi * u_dot_grad_d / pi
        )
        terms["grad_usq_gradPi"] = quad((d / pi) * np.sum(grad_speed_sq * grad_pi, axis=0))
        terms["jacobian_u_gradPi"] = -2.0 * quad((d / pi) * np.sum(jac_u * grad_pi, axis=0))

    return TermBreakdown(mode=mode, terms=terms, sum=math.fsum(terms.values()))


def _ratios(grid: Grid, fv, speed_sq, speed, grad_sq) -> dict[str, float]:
    """The empirical ratios of one velocity pass, NaN where a denominator is
    not positive; int |grad u|^2 f and int |u|^p* f are formed once for all three."""
    grad_int = _cell_integral(grid, grad_sq * fv)
    with np.errstate(over="ignore"):  # |u|^p* overflowing makes the moment, and both Sobolev ratios, +inf
        moment = _cell_integral(grid, speed**P_STAR * fv) ** (1.0 / P_STAR)
    # speed**2, not |u|^2 summed again: the two differ in the last bit
    weighted_sq = _cell_integral(grid, (2.0 * grad_sq + EPS * speed**2) * fv)
    return {
        "poincare": _cell_integral(grid, speed_sq * fv) / grad_int if grad_int > 0.0 else math.nan,
        "sobolev": moment / math.sqrt(grad_int) if grad_int > 0.0 else math.nan,
        "sobolev_weighted": moment / math.sqrt(weighted_sq) if weighted_sq > 0.0 else math.nan,
    }


def _sample_ratio(f: ScalarField, u: VectorField, name: str) -> float:
    speed_sq, grad_sq, _ = _velocity_sums(u.components, f.grid.spacing)
    ratio = _ratios(f.grid, f.values, speed_sq, np.sqrt(speed_sq), grad_sq)[name]
    if math.isnan(ratio):
        raise UndefinedRatioError(f"{name} ratio undefined: its denominator vanishes (u constant)")
    return ratio


def empirical_poincare(f: ScalarField, u: VectorField) -> float:
    """Ratio int |u|^2 f / int |grad u|^2 f (empirical constant sample)."""
    return _sample_ratio(f, u, "poincare")


def empirical_sobolev(f: ScalarField, u: VectorField, *, weighted: bool = False) -> float:
    """Ratio (int |u|^p* f)^(1/p*) / (int |grad u|^2 f)^(1/2), p* = P_STAR.

    The ``weighted`` variant divides by (int (2|grad u|^2 + EPS |u|^2) f)^(1/2)
    instead, matching the form needed when the velocity is not a gradient.
    """
    return _sample_ratio(f, u, "sobolev_weighted" if weighted else "sobolev")


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
    speed_sq, grad_sq, _ = _velocity_sums(u.components, grid.spacing)
    speed = np.sqrt(speed_sq)  # u.magnitude()
    lhs = _cell_integral(grid, speed**3 * f.values)
    grad_term = _cell_integral(grid, grad_sq * f.values)
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


def make_recorder(coeffs: CoefficientSet, envelope=None, config=None):
    """Build the per-state diagnostics callback used by solver.run.

    The callback is the one place a recorded state is read: from one
    _velocity_pass (which raises on a nonpositive cell or a non-finite |u|)
    it records the series row and the Poincare, Sobolev and weighted Sobolev
    ratios, all NaN when any is undefined, each bitwise what the
    public functions give.  ``envelope`` is the pair from
    max_principle_envelope (else the margin is NaN).  Given the run's
    SolverConfig, the first record at or after each target time j t_end /
    (TERM_SAMPLES - 1), and the final record of a run max_steps stops early,
    carry in ``terms`` their pass's bitwise second_derivative_terms in the
    coefficients' regime.  A recorder serves one run.
    """
    mode, targets, hess_phi = coeffs.regime, [], None
    if config is not None:
        targets = [j * config.t_end / (TERM_SAMPLES - 1) for j in range(TERM_SAMPLES)]
        hess_phi = centered_hessian(coeffs.phi)  # phi does not depend on t

    def recorder(state: SolverState) -> DiagnosticsRecord:
        f, t, grid, fv = state.f, state.t, state.f.grid, state.f.values
        final = config is not None and state.step_index >= config.max_steps
        sampled = bool(targets) and (final or t >= targets[0])
        targets[:] = [target for target in targets if target > t and not final]
        velocity = _velocity_pass(f, coeffs, t, jacobian=sampled and mode == "full")
        terms = _term_breakdown(f, coeffs, t, mode, hess_phi, velocity) if sampled else None
        log_f, pi, u, jac, speed_sq, grad_sq, div = velocity
        del velocity, u, jac  # freed before the ratios' arrays are built
        speed = np.sqrt(speed_sq)  # u.magnitude()
        ratios = _ratios(grid, fv, speed_sq, speed, grad_sq)
        if any(map(math.isnan, ratios.values())):
            ratios = {}  # the record's NaN defaults: one undefined ratio voids all three
        return DiagnosticsRecord(
            t=t,
            mass=integrate(f),
            free_energy=_free_energy(grid, fv, log_f, coeffs),
            dissipation=_dissipation(grid, fv, pi, speed_sq),
            f_min=f.min(),
            f_max=f.max(),
            log_f_sup=float(np.abs(log_f).max()),
            u_sup=float(speed.max()),
            envelope_margin=envelope_margin(f, envelope) if envelope is not None else math.nan,
            jensen_margin=_jensen_margin(grid.dim, grad_sq, div),
            terms=terms,
            **ratios,
        )

    return recorder
