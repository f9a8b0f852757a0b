"""Coefficient sampling, the equilibrium density, and the constants ledger.

Coefficients enter as mini-language expressions: diffusion D(x) and potential
phi(x) are spatial, the mobility pi(x, t) may also depend on t, and f0(x) is
the initial density shape (renormalized here to unit mass).  Spatial
gradients come from centered differences of the sampled fields so they match
the diagnostic stencils; the mobility's time derivative is a centered
difference of the analytic expression with a fixed small step, which avoids
symbolic differentiation while staying exact to O(dt^2).

``CoefficientSet.regime`` names the first of the nested REGIMES that covers
the samples; a coefficient counts as constant only if its samples are equal.

The mobility's expression is bound to the cell centers once, when the
coefficients are sampled, with every t-free subtree evaluated then; pi at
t = 0, every later sample and both samples of the pi_t difference evaluate
that one binding, which runs only the t-dependent part (bitwise equal to a
full evaluation).  A time-dependent mobility is sampled once per distinct
time: the latest sample is cached read-only.

A vector field here, as in grid, is a sequence of per-axis arrays.  D's and
phi's centered gradients are sampled once and each held as one read-only
(n, N, ..., N) array, whose rows are its axes (_gradient says why one array);
a gradient that overflows is an error naming its coefficient and a cell.

The constants ledger collects every named bound the decay conditions
consume: initial-density bounds, the diffusion floor, mobility bounds and
derivative bounds, the potential's Hessian floor, sup norms, the equilibrium
normalization shift, and the closed-form log-density bound.  Ledger sups are
discrete maxima over cell samples, hence lower bounds of the true sups; on
smooth coefficients the gap is O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import EquilibriumBracketError, ExpressionError, FpkError, NonFiniteFieldError, PositivityError
from .expressions import CoefficientExpr, parse_expression
from .grid import Grid, ScalarField, dot, gradient_arrays, hessian_entry, integrate

#: coefficient regimes, each containing the ones before it: constant D and pi,
#: spatial D with constant pi, and a mobility pi(x, t) varying in x or t
REGIMES = ("homogeneous", "inhomogeneous-D", "full")

#: time step for the centered difference defining pi_t from the expression
PI_TIME_DELTA = 1e-4

#: bisection iteration cap for the equilibrium normalization shift
SHIFT_MAX_ITERATIONS = 200

#: probe times for the mobility sups in the constants ledger
T_PROBE_COUNT = 9


def _grid_coords(expr: CoefficientExpr, grid: Grid, name: str) -> dict[str, np.ndarray]:
    allowed = {f"x{k + 1}" for k in range(grid.dim)}
    spatial = expr.variables - {"t"}
    if not spatial <= allowed:
        bad = sorted(spatial - allowed)[0]
        raise ExpressionError(
            f"coefficient {name!r} uses {bad!r} on a {grid.dim}-dimensional grid",
            expr.source,
            expr.source.find(bad),
        )
    return {f"x{k + 1}": c for k, c in enumerate(grid.coordinates())}


def _sample_expression(expr: CoefficientExpr, grid: Grid, name: str) -> np.ndarray:
    return _finite_samples(expr.evaluate(_grid_coords(expr, grid, name)), expr, grid, name)


def _finite_samples(raw, expr: CoefficientExpr, grid: Grid, name: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(raw, dtype=np.float64), grid.shape).copy()
    if not np.all(np.isfinite(arr)):
        cell = np.unravel_index(int(np.argmin(np.isfinite(arr))), grid.shape)
        raise ExpressionError(
            f"coefficient {name!r} is not finite at cell {tuple(map(int, cell))}", expr.source, 0
        )
    return arr


def _gradient(arr: np.ndarray, grid: Grid, name: str, at: str = "") -> np.ndarray:
    """Centered gradient of a coefficient's samples as one read-only (n, N, ..., N)
    array; a difference overflowing to +-inf raises NonFiniteFieldError naming the
    coefficient and a cell (and ``at``, the probe time)."""
    # One stacked array, not gradient_arrays' n arrays held as they come nor a
    # recomputation at each sampled record: how setup allocates sets the heap the
    # RK4 steps reuse, and either of the other two took a 32^3 run's minor page
    # faults up many times over (CHANGES.md, "One vector representation").
    with np.errstate(over="ignore"):
        grad = np.stack(gradient_arrays(arr, grid.spacing))
    finite = np.isfinite(grad)
    if not finite.all():
        cell = np.unravel_index(int(np.argmin(finite)), grad.shape)[1:]
        raise NonFiniteFieldError(
            f"the gradient of coefficient {name!r} overflows at cell {tuple(map(int, cell))}{at}"
        )
    grad.setflags(write=False)
    return grad


def _sup_norm(vector) -> float:
    """max over cells of sqrt(dot(v, v)); +inf where a square overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(dot(vector, vector)).max())


def _require_positive(name: str, arr: np.ndarray, grid: Grid) -> None:
    idx = int(np.argmin(arr))
    if arr.flat[idx] <= 0.0:
        cell = np.unravel_index(idx, grid.shape)
        raise PositivityError(name, cell, float(arr.flat[idx]))


@dataclass(frozen=True)
class CoefficientSet:
    """Sampled coefficients plus producers for the time-dependent mobility."""

    grid: Grid
    D: ScalarField
    grad_D: np.ndarray  # (n, N, ..., N), read-only; iterating it yields its per-axis arrays
    phi: ScalarField
    grad_phi: np.ndarray
    pi_expr: CoefficientExpr
    pi0: ScalarField  # mobility at t = 0, the value at every t when pi does not use t
    #: pi_expr bound to the cell centers: t -> its values there, unchecked
    pi_bound: Callable[[float], object] = field(repr=False, compare=False)

    def pi_values(self, t: float) -> np.ndarray:
        """Mobility samples at time t (finite and positive), read-only.

        The latest time's samples are cached, so every caller at one time
        shares one evaluation of the binding, whose full-grid float64 result
        is kept as the sample, uncopied.  A sample passing 0 < min and
        max < inf is accepted as is; any other raises the error the full
        per-cell checks give.
        """
        if not self.pi_expr.uses_t:
            return self.pi0.values
        cache = self.__dict__
        last = cache.get("_pi_last")
        if last is not None and last[0] == t:
            return last[1]
        arr = self.pi_bound(t)  # t-dependent, so a scalar or a ufunc's fresh result
        if not (type(arr) is np.ndarray and arr.shape == self.grid.shape
                and arr.dtype == np.float64 and arr.flags.c_contiguous):
            arr = np.broadcast_to(np.asarray(arr, dtype=np.float64), self.grid.shape).copy()
        if not (np.minimum.reduce(arr, axis=None) > 0.0
                and np.maximum.reduce(arr, axis=None) < math.inf):  # false on NaN
            # one of these raises, naming the same cell a full check names
            _require_positive("pi", _finite_samples(arr, self.pi_expr, self.grid, "pi"), self.grid)
        arr.setflags(write=False)
        cache["_pi_last"] = (t, arr)
        return arr

    def pi_t_values(self, t: float) -> np.ndarray:
        if not self.pi_expr.uses_t:
            return np.zeros(self.grid.shape)
        ahead = _finite_samples(self.pi_bound(t + PI_TIME_DELTA), self.pi_expr, self.grid, "pi")
        behind = _finite_samples(self.pi_bound(t - PI_TIME_DELTA), self.pi_expr, self.grid, "pi")
        return (ahead - behind) / (2.0 * PI_TIME_DELTA)

    @property
    def regime(self) -> str:
        """The first of REGIMES that covers the sampled coefficients."""
        if self.pi_expr.uses_t or float(np.ptp(self.pi0.values)) != 0.0:
            return "full"
        return "homogeneous" if float(np.ptp(self.D.values)) == 0.0 else "inhomogeneous-D"


def sample_coefficients(specs: Mapping[str, str], grid: Grid, only=None) -> tuple[CoefficientSet, ScalarField]:
    """Sample the sources of D, phi, pi, f0 at cell centers; f0 is rescaled to unit mass.

    D, phi and f0 are spatial-only; an expression using t in those slots is
    rejected.  D, pi and f0 must be strictly positive at every sample point,
    and so must the rescaled f0, which also must be finite.  ``only=("D", "pi")``
    samples those alone, all a regime and stable_dt read: the rest is None.
    """
    exprs = {}
    for name in only or ("D", "phi", "pi", "f0"):
        if name not in specs:
            raise ExpressionError(f"missing coefficient {name!r}", "", 0)
        exprs[name] = parse_expression(specs[name])
    for name in ("D", "phi", "f0"):
        if name in exprs and exprs[name].uses_t:
            raise ExpressionError(
                f"coefficient {name!r} is spatial-only but uses t",
                exprs[name].source,
                exprs[name].source.find("t"),
            )

    d_arr = _sample_expression(exprs["D"], grid, "D")
    _require_positive("D", d_arr, grid)
    phi_arr = _sample_expression(exprs["phi"], grid, "phi") if "phi" in exprs else None
    pi_bound = exprs["pi"].bind(_grid_coords(exprs["pi"], grid, "pi"))
    pi0 = _finite_samples(pi_bound(0.0), exprs["pi"], grid, "pi")
    _require_positive("pi", pi0, grid)
    if "f0" not in exprs:
        d_field, pi0_field = ScalarField(grid, d_arr), ScalarField(grid, pi0)
        return CoefficientSet(grid, d_field, None, None, None, exprs["pi"], pi0_field, pi_bound), None
    f0_arr = _sample_expression(exprs["f0"], grid, "f0")
    _require_positive("f0", f0_arr, grid)

    coeffs = CoefficientSet(
        grid=grid,
        D=ScalarField(grid, d_arr),
        grad_D=_gradient(d_arr, grid, "D"),
        phi=ScalarField(grid, phi_arr),
        grad_phi=_gradient(phi_arr, grid, "phi"),
        pi_expr=exprs["pi"],
        pi0=ScalarField(grid, pi0),
        pi_bound=pi_bound,
    )
    with np.errstate(all="ignore"):
        mass = integrate(ScalarField(grid, f0_arr))
        f0_normalized = f0_arr / mass
    if not (f0_normalized.min() > 0.0 and f0_normalized.max() < math.inf):  # false on NaN
        raise ExpressionError(
            f"coefficient 'f0' rescaled to unit mass is not finite and positive (its integral is {mass!r})",
            exprs["f0"].source,
            0,
        )
    return coeffs, ScalarField(grid, f0_normalized)


def _equilibrium_field(coeffs: CoefficientSet, shift: float) -> np.ndarray:
    return np.exp(-(coeffs.phi.values - shift) / coeffs.D.values)


def compute_equilibrium(coeffs: CoefficientSet, tol: float = 1e-12) -> tuple[ScalarField, float]:
    """Equilibrium density exp(-(phi - shift)/D) with unit-mass shift.

    The map shift -> mass is strictly increasing and the bracket
    [-sup|phi|, +sup|phi|] always contains the root, so plain bisection on
    the mass residual converges; 200 iterations cap the loop.  A mass that
    overflows is a +inf residual.  An equilibrium with a cell that is not
    finite and positive (phi/D spanning more than the float range) is an FpkError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid = coeffs.grid
    phi_sup = float(np.abs(coeffs.phi.values).max())

    def mass_residual(shift: float) -> float:
        with np.errstate(over="ignore"):
            return grid.cell_volume * float(_equilibrium_field(coeffs, shift).sum()) - 1.0

    lo, hi = -phi_sup, phi_sup
    res_lo = mass_residual(lo)
    res_hi = mass_residual(hi)
    # phi = 0 gives the bracket [0, 0], whose residual is cell-volume round-off
    if res_lo > tol or res_hi < -tol:
        raise EquilibriumBracketError(
            f"shift bracket [{lo}, {hi}] does not enclose the unit-mass root"
        )
    shift = 0.5 * (lo + hi)
    for _ in range(SHIFT_MAX_ITERATIONS):
        shift = 0.5 * (lo + hi)
        res = mass_residual(shift)
        if abs(res) <= tol:
            break
        if res < 0.0:
            lo = shift
        else:
            hi = shift
    else:
        raise EquilibriumBracketError(
            f"mass residual {mass_residual(shift):.3e} still above tol={tol:g} "
            f"after {SHIFT_MAX_ITERATIONS} bisection steps"
        )
    feq = _equilibrium_field(coeffs, shift)
    low, high = float(feq.min()), float(feq.max())
    if not (low > 0.0 and high < math.inf):  # false on NaN
        raise FpkError(
            f"the equilibrium exp(-(phi - shift)/D) spans [{low!r}, {high!r}], not finite"
            " and positive: phi/D varies by more than the float range"
        )
    return ScalarField(grid, feq), float(shift)


@dataclass(frozen=True)
class ConstantsLedger:
    """Every named coefficient bound the decay conditions consume.

    Sups are discrete maxima over cell samples (and mobility probe times),
    so they are lower bounds of the true sups.  ``log_f_bound`` is defined,
    not estimated: (1 + sqrt(n) grad_d)(log_f0_sup + 2 phi_sup) + 2 phi_sup.
    ``hess_phi_lower`` is the negated minimal Hessian eigenvalue clamped at
    zero for convex potentials, so the Hessian is bounded below by
    -hess_phi_lower * identity.
    """

    dim: int
    init_min: float
    init_max: float
    d_min: float
    pi_min: float
    pi_max: float
    pi_time: float
    grad_pi: float
    grad_d: float
    hess_phi_lower: float
    phi_sup: float
    grad_phi_sup: float
    log_f0_sup: float
    feq_shift: float
    log_f_bound: float
    d_max_bound: float

    def __post_init__(self):
        if not (0.0 < self.init_min <= self.init_max):
            raise ValueError("initial-density bounds must satisfy 0 < init_min <= init_max")
        if self.pi_min > self.pi_max:
            raise ValueError("pi_min must not exceed pi_max")


def log_density_bound(dim: int, grad_d: float, log_f0_sup: float, phi_sup: float) -> float:
    """Closed-form uniform bound on |log f| along the flow (D-floor free)."""
    return (1.0 + math.sqrt(dim) * grad_d) * (log_f0_sup + 2.0 * phi_sup) + 2.0 * phi_sup


def _min_hessian_eigenvalue(phi: ScalarField) -> float:
    """Least eigenvalue of the discrete Hessian over cells, eigvalsh taking 1024
    (n, n) matrices at a time; LAPACK solves each matrix alone, so the result
    is the bits one call on every cell gives; NonFiniteFieldError if an entry
    overflows (to inf, or NaN)."""
    v, h, n, block = phi.values, phi.grid.spacing, phi.grid.dim, 1024
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing difference is inf or NaN, raised on below
        entries = {(k, l): hessian_entry(v, h, k, l).reshape(-1) for k in range(n) for l in range(k, n)}
    if not all(np.isfinite(entry).all() for entry in entries.values()):
        raise NonFiniteFieldError("the discrete Hessian of phi is not finite: it overflows a float")
    lowest = []
    for start in range(0, v.size, block):
        matrices = np.empty((min(block, v.size - start), n, n))
        for (k, l), entry in entries.items():
            matrices[:, k, l] = matrices[:, l, k] = entry[start : start + block]
        lowest.append(np.linalg.eigvalsh(matrices)[:, 0].min())
    return float(np.min(lowest))  # NaN if any cell's is


def build_constants_ledger(
    coeffs: CoefficientSet,
    f0: ScalarField,
    grid: Grid,
    t_probe_count: int = T_PROBE_COUNT,
    t_horizon: float = 1.0,
    feq_shift: float | None = None,
) -> ConstantsLedger:
    """Assemble the ledger from discrete samples.

    Mobility extrema and the |pi_t|, |grad pi| sups are taken over
    ``t_probe_count`` evenly spaced probe times in [0, t_horizon] (a single
    probe at t = 0 when the mobility is time-independent).  ``feq_shift``
    is the equilibrium shift from compute_equilibrium; without it the
    ledger runs that bisection itself.
    """
    if t_probe_count < 1:
        raise ValueError("t_probe_count must be >= 1")
    if coeffs.pi_expr.uses_t:
        probes = np.linspace(0.0, t_horizon, t_probe_count)
    else:
        probes = np.array([0.0])

    pi_min = math.inf
    pi_max = -math.inf
    pi_time = 0.0
    grad_pi = 0.0
    for t in probes:
        pi_arr = coeffs.pi_values(float(t))
        pi_min = min(pi_min, float(pi_arr.min()))
        pi_max = max(pi_max, float(pi_arr.max()))
        pi_time = max(pi_time, float(np.abs(coeffs.pi_t_values(float(t))).max()))
        grad_pi = max(grad_pi, _sup_norm(_gradient(pi_arr, coeffs.grid, "pi", f" at t = {float(t)!r}")))

    dim = grid.dim
    grad_d = _sup_norm(coeffs.grad_D)
    d_min = coeffs.D.min()
    phi_sup = float(np.abs(coeffs.phi.values).max())
    grad_phi_sup = _sup_norm(coeffs.grad_phi)
    log_f0_sup = float(np.abs(np.log(f0.values)).max())
    lam = max(0.0, -_min_hessian_eigenvalue(coeffs.phi))
    shift = compute_equilibrium(coeffs)[1] if feq_shift is None else feq_shift

    return ConstantsLedger(
        dim=dim,
        init_min=f0.min(),
        init_max=f0.max(),
        d_min=d_min,
        pi_min=pi_min,
        pi_max=pi_max,
        pi_time=pi_time,
        grad_pi=grad_pi,
        grad_d=grad_d,
        hess_phi_lower=lam,
        phi_sup=phi_sup,
        grad_phi_sup=grad_phi_sup,
        log_f0_sup=log_f0_sup,
        feq_shift=shift,
        log_f_bound=log_density_bound(dim, grad_d, log_f0_sup, phi_sup),
        d_max_bound=d_min + math.sqrt(dim) * grad_d,
    )
