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
* empirical density-weighted Sobolev and Poincare ratios (the tests check
  them against the cubic-moment interpolation inequality) and decay fits.

A term breakdown and a decay fit are returned as the plain dicts report.json
writes (see second_derivative_terms and decay_fit).

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

import numpy as np

from .coefficients import REGIMES, CoefficientSet
from .errors import (
    NonFiniteFieldError,
    TooShortSeriesError,
    UndefinedRatioError,
    WrongRegimeError,
)
from .grid import Grid, ScalarField, dot, gradient_arrays, hessian_entry, per_axis
from .solver import TimeSeries, _potential, _velocity_arrays, compute_velocity, require_positive_density

#: a run's records carry at most this many term breakdowns, picked by target time
TERM_SAMPLES = 5

#: the Sobolev ratios' moment exponent p*, and the weighted denominator's epsilon
P_STAR = 6.0
EPS = 2.0


def _cells(grid: Grid, values: np.ndarray, reduce=np.sum):
    """``reduce`` over the grid's axes, the trailing ones: one state's, or each state's of a stack."""
    return reduce(values, axis=tuple(range(-grid.dim, 0)))


def _cell_integral(grid: Grid, integrand: np.ndarray):
    """h^n times the sum over cells: a float, or for a stack a list of floats."""
    return (grid.cell_volume * _cells(grid, integrand)).tolist()


# Array kernels shared by the public functions and the recorder: one pass over
# the velocity's derivatives, so each quantity has one definition and one bit pattern.


def _velocity_sums(components, spacing: float, jac_u=None):
    """|u|^2 (dot(u, u)), |grad u|^2 and div u, the last two one component u_k at a
    time: each centered d_l u_k is squared in its own array after d_k u_k joins div u
    and, given zero arrays ``jac_u``, d_l u_k u_l joins jac_u[k], so they end as J u
    (J_kl = d_l u_k).  The sums start at 0 and add in ascending index, the order of
    np.sum(J**2, axis=(0, 1)), np.trace(J) and np.einsum("kl...,l...->k...", J, u), so
    each is bitwise theirs.  No Jacobian is built."""
    speed_sq = dot(components, components)
    grad_sq, div = (np.zeros(components[0].shape) for _ in range(2))
    for k, uk in enumerate(components):  # one u_k per grid axis; axes before the grid's stack states
        for l, grad in enumerate(gradient_arrays(uk, spacing, uk.ndim - len(components))):
            if jac_u is not None:
                jac_u[k] += grad * components[l]
            if l == k:
                div += grad
            grad *= grad
            grad_sq += grad
    return speed_sq, grad_sq, div


def _finite(name: str, value):
    """``value``, a float or a list of floats formed with overflow ignored, or
    NonFiniteFieldError naming the quantity where one overflowed (to inf, or NaN)."""
    if not np.isfinite(value).all():
        raise NonFiniteFieldError(f"{name} is not finite: it overflows a float")
    return value


def _free_energy(grid: Grid, fv: np.ndarray, log_f: np.ndarray, coeffs: CoefficientSet) -> float:
    with np.errstate(over="ignore"):
        integrand = coeffs.D.values * fv * (log_f - 1.0) + fv * coeffs.phi.values
        return _finite("free energy", _cell_integral(grid, integrand))


def _dissipation(grid: Grid, fv: np.ndarray, pi: np.ndarray, speed_sq: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return _finite("dissipation", _cell_integral(grid, pi * speed_sq * fv))


def free_energy(f: ScalarField, coeffs: CoefficientSet) -> float:
    """int D f (log f - 1) + f phi."""
    v = f.values
    require_positive_density(v)
    return _free_energy(f.grid, v, np.log(v), coeffs)


def dissipation(f: ScalarField, coeffs: CoefficientSet, t: float) -> float:
    """int pi |u|^2 f  (nonnegative; zero exactly at equilibrium)."""
    u = compute_velocity(f, coeffs, t)
    return _dissipation(f.grid, f.values, coeffs.pi_values(t), dot(u, u))


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
    the initial density sits between the two envelopes.  NonFiniteFieldError
    if D log(f0/feq) or a bound overflows.
    """
    with np.errstate(over="ignore"):  # an overflow is inf, raised on below
        ratio = coeffs.D.values * np.log(f0.values / feq.values)
        m, big_m = _finite("the envelope's D log(f0/feq)", [float(ratio.min()), float(ratio.max())])
        lower = np.exp(m / coeffs.D.values) * feq.values
        upper = np.exp(big_m / coeffs.D.values) * feq.values
    _finite("the envelope's upper bound", float(upper.max()))
    grid = f0.grid
    return ScalarField(grid, lower), ScalarField(grid, upper)


def envelope_margin(f: ScalarField, envelope: tuple[ScalarField, ScalarField]) -> float:
    """Worst signed containment margin min(f - lower, upper - f) over cells."""
    return _envelope_margin(f.grid, f.values, envelope)


def _envelope_margin(grid: Grid, fv: np.ndarray, envelope):
    lower, upper = envelope
    return _cells(grid, np.minimum(fv - lower.values, upper.values - fv), np.min).tolist()


def _jensen_margin(grid: Grid, grad_sq: np.ndarray, div: np.ndarray):
    return _cells(grid, grid.dim * grad_sq - div**2, np.min).tolist()


def jensen_check(grid: Grid, u) -> float:
    """min over cells of n |grad u|^2 - |Div u|^2 (nonnegative to round-off), u
    one array per axis."""
    _, grad_sq, div = _velocity_sums(per_axis(grid, u, "velocity"), grid.spacing)
    return _jensen_margin(grid, grad_sq, div)


def _velocity_pass(grid: Grid, fv: np.ndarray, pi: np.ndarray, coeffs: CoefficientSet, jac_u: bool = False):
    """(log f, pi, u, J u, |u|^2, |grad u|^2, div u) of a stack of states, ``fv`` and
    ``pi`` of shape (B, *grid.shape), log f taken once; the u_k are compute_velocity's
    and the (J u)_k _velocity_sums', each in a list, J u None unless asked for.  Before
    any sum, a nonpositive cell raises NonPositiveDensityError, a NaN or infinite |u|
    (|u|^2 or |grad u|^2 overflowing too) NonFiniteFieldError."""
    require_positive_density(fv)
    log_f = np.log(fv)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf or NaN, raised on below
        psi = _potential(log_f.copy(), coeffs)  # a copy: the one log f is also returned
        u = _velocity_arrays(psi, pi, grid.spacing, lead=1)
        del psi  # freed before the sums' arrays are built
        ju = [np.zeros(fv.shape) for _ in u] if jac_u else None
        sums = _velocity_sums(u, grid.spacing, ju)
    if not all(math.isfinite(float(sq.max())) for sq in sums[:2]):  # NaN if any entry is NaN
        raise NonFiniteFieldError("velocity has a NaN or infinite entry, or |u|^2 or |grad u|^2 overflows")
    return (log_f, pi, u, ju, *sums)


def second_derivative_terms(f: ScalarField, coeffs: CoefficientSet, t: float, mode: str) -> dict:
    """The named integrals of d^2F/dt^2 for the requested regime, as
    {"mode", "terms" (name -> value, in textual order), "sum"}.

    ``homogeneous`` (constant D and pi) has 2 terms, ``inhomogeneous-D``
    (constant pi) 7, ``full`` 13.  The mode must be ``coeffs.regime`` or a
    later regime of REGIMES.  All derivatives are centered differences;
    grad|u|^2 is the centered gradient of the sampled speed-squared field.
    The terms contract the velocity's Jacobian and phi's Hessian as they are
    formed: neither is held as an (n, n, ...) array.
    """
    if mode not in REGIMES:
        raise ValueError(f"mode must be one of {REGIMES}")
    if REGIMES.index(mode) < REGIMES.index(coeffs.regime):
        raise WrongRegimeError(f"{mode} mode does not cover the {coeffs.regime} regime")
    velocity = _velocity_pass(f.grid, f.values[None], coeffs.pi_values(t)[None], coeffs, jac_u=mode == "full")
    return _term_breakdown(f, coeffs, t, mode, velocity)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is inf or NaN, raised on below
def _term_breakdown(f, coeffs, t, mode, velocity, i: int = 0) -> dict:
    """second_derivative_terms of state ``i`` of a _velocity_pass (with J u in full
    mode).  Each integrand is formed in one array, in place, with the operations
    in the order its formula is written; H u takes phi's Hessian one entry at a time.
    A term that overflows is inf or NaN, and raises NonFiniteFieldError naming it."""
    log_f, pi, uc, ju, speed_sq, grad_u_sq, div_u = (  # state i's slices
        a if a is None else [c[i] for c in a] if isinstance(a, list) else a[i] for a in velocity
    )
    grid, fv, d = f.grid, f.values, coeffs.D.values

    def quad(x: np.ndarray, *factors: np.ndarray, over: np.ndarray | None = None) -> float:
        """int x * factors... / over * f, left to right, in x: the integrand's own array."""
        for factor in factors:
            x *= factor
        if over is not None:
            x /= over
        x *= fv
        return _cell_integral(grid, x)

    axes = range(grid.dim)
    hess_u = (dot((hessian_entry(coeffs.phi.values, grid.spacing, k, l) for l in axes), uc) for k in axes)
    terms: dict[str, float] = {}
    terms["hessian_phi"] = 2.0 * quad(dot(hess_u, uc))
    terms["d_grad_u_sq"] = 2.0 * quad(d * grad_u_sq)

    if mode != "homogeneous":
        grad_d, grad_phi = coeffs.grad_D, coeffs.grad_phi
        u_dot_grad_d = dot(uc, grad_d)
        grad_speed_sq = gradient_arrays(speed_sq, grid.spacing)

        terms["logf_gradDu_sq_cross"] = -quad(log_f - 1.0, dot(grad_speed_sq, grad_d))
        terms["divu_cross"] = -2.0 * quad(1.0 + log_f, u_dot_grad_d, div_u)
        # with constant pi the pi/D weight reduces to the constant over D
        terms["cubic_logf"] = 2.0 * quad(pi / d, speed_sq, log_f, u_dot_grad_d)
        terms["gradD_sq_logf_sq"] = 2.0 * quad(log_f**2, u_dot_grad_d**2, over=d)
        terms["gradD_gradPhi_cross"] = 2.0 * quad(log_f * u_dot_grad_d, dot(uc, grad_phi), over=d)

    if mode == "full":
        grad_pi = gradient_arrays(pi, grid.spacing)
        u_dot_grad_pi = dot(uc, grad_pi)

        terms["pi_t"] = quad(coeffs.pi_t_values(t), speed_sq)  # a fresh array
        terms["cubic_gradPi"] = quad(speed_sq * u_dot_grad_pi)
        terms["gradPi_gradD"] = -2.0 * quad(log_f - 1.0, speed_sq, dot(grad_pi, grad_d), over=pi)
        terms["gradPi_gradD_directional"] = 2.0 * quad(log_f - 1.0, u_dot_grad_pi, u_dot_grad_d, over=pi)
        terms["grad_usq_gradPi"] = quad(d / pi, dot(grad_speed_sq, grad_pi))
        terms["jacobian_u_gradPi"] = -2.0 * quad(d / pi, dot(ju, grad_pi))

    for name, value in terms.items():
        _finite(f"d^2F/dt^2 term {name}", value)
    return {"mode": mode, "terms": terms, "sum": math.fsum(terms.values())}


def _ratios(grid: Grid, fv, speed_sq, speed, grad_sq) -> dict[str, list[float]]:
    """Each empirical ratio's list over the stacked states, NaN where its denominator is not
    positive; int |grad u|^2 f and int |u|^p* f are formed once for all three, tails in floats.
    An overflowing int |u|^2 f or denominator raises NonFiniteFieldError naming its integral."""
    with np.errstate(over="ignore"):  # |u|^p* overflowing makes the moment, and both Sobolev ratios, +inf
        grad_ints = _finite("int |grad u|^2 f", _cell_integral(grid, grad_sq * fv))
        speed_ints = _finite("int |u|^2 f", _cell_integral(grid, speed_sq * fv))
        moments = [m ** (1.0 / P_STAR) for m in _cell_integral(grid, speed**P_STAR * fv)]
        # speed**2, not |u|^2 summed again: the two differ in the last bit
        weighted = _cell_integral(grid, (2.0 * grad_sq + EPS * speed**2) * fv)
    _finite(f"int (2 |grad u|^2 + {EPS:g} |u|^2) f", weighted)
    return {"poincare": [s / g if g > 0.0 else math.nan for g, s in zip(grad_ints, speed_ints)],
            "sobolev": [m / math.sqrt(g) if g > 0.0 else math.nan for g, m in zip(grad_ints, moments)],
            "sobolev_weighted": [m / math.sqrt(w) if w > 0.0 else math.nan for w, m in zip(weighted, moments)]}


def _sample_ratio(f: ScalarField, u, name: str) -> float:
    speed_sq, grad_sq, _ = _velocity_sums([uk[None] for uk in per_axis(f.grid, u, "velocity")], f.grid.spacing)
    ratio = _ratios(f.grid, f.values[None], speed_sq, np.sqrt(speed_sq), grad_sq)[name][0]
    if math.isnan(ratio):
        raise UndefinedRatioError(f"{name} ratio undefined: its denominator vanishes (u constant)")
    return ratio


def empirical_poincare(f: ScalarField, u) -> float:
    """Ratio int |u|^2 f / int |grad u|^2 f (empirical constant sample), u one
    array per axis."""
    return _sample_ratio(f, u, "poincare")


def empirical_sobolev(f: ScalarField, u, *, weighted: bool = False) -> float:
    """Ratio (int |u|^p* f)^(1/p*) / (int |grad u|^2 f)^(1/2), p* = P_STAR.

    The ``weighted`` variant divides by (int (2|grad u|^2 + EPS |u|^2) f)^(1/2)
    instead, matching the form needed when the velocity is not a gradient.
    """
    return _sample_ratio(f, u, "sobolev_weighted" if weighted else "sobolev")


def decay_fit(series: TimeSeries, window: tuple[float, float]) -> dict:
    """Fit log dissipation linearly in t over the window, as report.json's
    {"rate" (-slope), "log_intercept", "window", "residual_rms", "n_points"}."""
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
    return {
        "rate": float(-slope),
        "log_intercept": float(intercept),
        "window": [float(t_lo), float(t_hi)],
        "residual_rms": float(np.sqrt(np.mean(resid**2))),
        "n_points": int(mask.sum()),
    }


def make_batch_recorder(coeffs: CoefficientSet, envelope=None, config=None):
    """Build solver.run's recorder: (states, each one's mobility sample) -> {name: list in state order}.

    The recorder is the one place a recorded state is read: from one
    _velocity_pass over the stacked states (which raises on a nonpositive cell
    or a non-finite |u|) it records each series quantity and the Poincare, Sobolev
    and weighted Sobolev ratios (all NaN where one is undefined), each bitwise
    what the public functions give for its state alone, as every sum runs over
    one state's cells.  ``envelope`` is the pair from max_principle_envelope
    (else the margin is NaN).  Given the run's SolverConfig, the first record
    at or after each target time j t_end / (TERM_SAMPLES - 1), and the final
    record of a run max_steps stops early, get in ``terms`` their state's
    second_derivative_terms in the coefficients' regime, from the same pass; the others None.
    """
    mode, targets = coeffs.regime, []
    if config is not None:
        targets = [j * config.t_end / (TERM_SAMPLES - 1) for j in range(TERM_SAMPLES)]

    def recorder(states: list, pis: list) -> dict[str, list]:
        grid, due = coeffs.grid, []
        for state in states:
            final = config is not None and state.step_index >= config.max_steps
            due.append(bool(targets) and (final or state.t >= targets[0]))
            targets[:] = [target for target in targets if target > state.t and not final]
        # one state is viewed as a stack, not copied
        fv, pi = (a[0][None] if len(a) == 1 else np.stack(a) for a in ([s.f.values for s in states], pis))
        velocity = _velocity_pass(grid, fv, pi, coeffs, jac_u=mode == "full" and any(due))
        terms = [_term_breakdown(s.f, coeffs, s.t, mode, velocity, i) if sample else None
                 for i, (s, sample) in enumerate(zip(states, due))]
        log_f, _, u, ju, speed_sq, grad_sq, div = velocity
        del velocity, u, ju  # freed before the ratios' arrays are built
        speed = np.sqrt(speed_sq)
        ratios = _ratios(grid, fv, speed_sq, speed, grad_sq)
        undefined = [any(map(math.isnan, r)) for r in zip(*ratios.values())]  # a state records all three or none
        return {
            "t": [state.t for state in states],
            "mass": _cell_integral(grid, fv),
            "free_energy": _free_energy(grid, fv, log_f, coeffs),
            "dissipation": _dissipation(grid, fv, pi, speed_sq),
            "f_min": _cells(grid, fv, np.min).tolist(),
            "f_max": _cells(grid, fv, np.max).tolist(),
            "log_f_sup": _cells(grid, np.abs(log_f), np.max).tolist(),
            "u_sup": _cells(grid, speed, np.max).tolist(),
            "envelope_margin": [math.nan] * len(states) if envelope is None else _envelope_margin(grid, fv, envelope),
            "jensen_margin": _jensen_margin(grid, grad_sq, div),
            **{name: [math.nan if nan else r for r, nan in zip(column, undefined)] for name, column in ratios.items()},
            "terms": terms,
        }

    return recorder


def make_recorder(coeffs: CoefficientSet, envelope=None, config=None):
    """make_batch_recorder's recorder on one state and its time's mobility: state -> {name: value}."""
    record = make_batch_recorder(coeffs, envelope, config)
    return lambda state: {name: column[0] for name, column in record([state], [coeffs.pi_values(state.t)]).items()}
