"""Sufficient-condition checkers and predicted decay envelopes.

The decay results form a ladder: THEOREMS[i] covers the coefficient regime
``coefficients.REGIMES[i]`` and every earlier one, and a run checks its own
regime's theorem and every later one (``regime_theorems``).  This module is
the one place that knows the theorems: ``condition_reports`` passes the run's
constants to each of a regime's theorems and returns their reports, and
``envelope_report`` compares a series with the envelope of the regime's own
theorem.  A verdict has one form: each checker returns its theorem's
``condition_reports`` entry of report.json as a plain dict, whose clauses
are the report schema's ``clause`` definition (name, lhs, rhs, op, pass), and
``clause_margin`` reads a clause's distance to its boundary.  The clauses,
named once in CLAUSES, are:

* T2, homogeneous (constant D and pi): a single rate clause
  -2 lambda + 2 d_min / C_poincare >= gamma, plus initial-energy finiteness;
* T3, spatial D with constant pi: a diffusion-floor clause with three
  competing entries, the rate clause -2(lambda + 1) + d_min / C_poincare >=
  gamma, and a saturation threshold on the initial dissipation;
* T4, variable mobility: six clauses covering the diffusion floor, |pi_t|, a
  four-entry bound on |grad pi|, a Poincare gate, the rate clause against
  gamma * pi_max, and a saturation threshold.

The Sobolev/Poincare constants are non-constructive, so every report records
the numeric value used together with its provenance (empirical running
maximum or a user-certified value), in report.json's form {"value",
"provenance"}.  A checker ``check_condition_T*(ledger, gamma, g0, constants)``
takes the map of all three ("poincare", "sobolev", "sobolev_weighted") and
checks the ones its theorem takes: one that is missing, 0, negative or NaN
raises an FpkError naming it, an error entry and not a verdict, as a ratio
that underflowed to 0 lies below the true constant and would loosen the T3/T4
diffusion floor.  Division-by-zero entries for grad_d = 0 are treated as
infinitely permissive, matching the degeneration of the derivation when D is
constant.  An entry that overflows a float is +inf, and a zero factor keeps
its entry at 0 beside it, so no clause sees a NaN.

Each theorem closes with the comparison inequality dg/dt <= -c g + d g^p,
c = gamma, p = 3, d = 0 (T2), 1/6 (T3) or 1/(12 pi_min^3) (T4).  Below the
threshold (c/d)^{1/(p-1)} the closed form g(t) <= (g(0)^{-p+1} -
d/c)^{-1/(p-1)} e^{-ct} holds; the threshold clauses evaluate this one
closed form, the run's envelope is gronwall_bound of its own regime's
theorem's GronwallSpec (``predicted_envelope`` returns that spec), and the
tests cross-check it against a fixed-step RK4 solution of the saturating ODE
(``comparison_ode`` in tests/conftest.py).
Where g(0)^{-p+1} overflows, the same bound is formed as g(0) (1 - (g(0) /
threshold)^{p-1})^{-1/(p-1)} e^{-ct}, whose factor is 1 to the last bit
unless the threshold is as small as g(0).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import REGIMES, ConstantsLedger
from .errors import FpkError, ThresholdError, WrongRegimeError

#: each theorem's clause names, in report order; sweep.csv needs them before any row runs
CLAUSES = {
    "T2": ("rate", "initial_energy_finite"),
    "T3": ("diffusion_floor", "rate", "gronwall_threshold"),
    "T4": (
        "diffusion_floor",
        "mobility_time",
        "mobility_gradient",
        "poincare_gate",
        "rate",
        "gronwall_threshold",
    ),
}

#: the decay theorem of each regime, in the order of REGIMES
THEOREMS = tuple(CLAUSES)

_REGIME_ATOL = 1e-14


def regime_theorems(regime: str) -> tuple[str, ...]:
    """The theorems that cover a regime: its own theorem first, then every later one."""
    return THEOREMS[REGIMES.index(regime):]


@dataclass(frozen=True)
class GronwallSpec:
    """Constants of the saturating comparison ODE dg/dt = -c g + d g^p."""

    c: float
    d: float
    p: float
    g0: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if self.d < 0.0:
            raise ValueError("d must be nonnegative")
        if self.p <= 1.0:
            raise ValueError("p must exceed 1")
        if self.g0 < 0.0:
            raise ValueError("g0 must be nonnegative")


def gronwall_threshold(spec: GronwallSpec) -> float:
    """(c/d)^(1/(p-1)); infinite when the saturating term is absent."""
    if spec.d == 0.0:
        return math.inf
    return (spec.c / spec.d) ** (1.0 / (spec.p - 1.0))


def gronwall_bound(spec: GronwallSpec, t) -> float | np.ndarray:
    """Closed-form decay bound (g0^{-p+1} - d/c)^{-1/(p-1)} e^{-ct}.

    Defined only below the threshold; g0 = 0 gives the zero bound, d = 0 the
    plain exponential g0 e^{-ct}, and a g0 whose g0^{-p+1} overflows the same
    bound with g0 factored out.
    """
    threshold = gronwall_threshold(spec)
    saturating = spec.g0 > 0.0 and spec.d > 0.0
    power = _power(spec.g0, -spec.p + 1.0) if saturating else 0.0
    base = power - spec.d / spec.c if saturating else 1.0
    # within rounding of the threshold the base can reach zero while g0 < threshold
    if spec.g0 >= threshold or base <= 0.0:
        raise ThresholdError(f"g0={spec.g0!r} is not below the saturation threshold {threshold!r}")
    exponent = -1.0 / (spec.p - 1.0)
    if power == math.inf:  # g0^(1-p) overflowed: the same bound with g0 factored out
        coefficient = spec.g0 * (1.0 - (spec.g0 / threshold) ** (spec.p - 1.0)) ** exponent
    else:
        coefficient = base**exponent if saturating else spec.g0
    out = coefficient * np.exp(-spec.c * np.asarray(t, dtype=float))
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


#: how each clause's recorded op decides its pass flag
_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}


def clause_margin(clause: dict) -> float:
    """A report clause's distance to its boundary: positive where it passes, negative
    where it fails, 0 on the boundary (where ``<=`` and ``>=`` pass and ``<`` fails)."""
    if clause["op"] == ">=":
        return clause["lhs"] - clause["rhs"]
    return clause["rhs"] - clause["lhs"]


def _power(base: float, exponent: float) -> float:
    """base**exponent, +inf where it overflows a float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _entry(*factors: float) -> float:
    """The product of the factors, left to right; 0 when a factor is 0, even beside
    an infinite one (as grad_d = 0 is treated), so no entry is NaN."""
    return 0.0 if 0.0 in factors else math.prod(factors)


def _validate_common(ledger: ConstantsLedger, gamma: float) -> None:
    if gamma <= 0.0:
        raise ValueError("gamma must be positive (the decay results quantify over gamma > 0)")
    if ledger.d_min < 1.0:
        raise WrongRegimeError("decay conditions require the diffusion floor d_min >= 1")
    if ledger.dim not in (1, 2, 3):
        raise WrongRegimeError("decay conditions cover dimensions 1, 2, 3 only")


def _usable(name: str, constant: dict) -> dict:
    """A {"value", "provenance"} constant, checked: an FpkError naming it when the
    value is None, 0 (an underflowed ratio, below the true constant), negative or NaN."""
    value, provenance = constant["value"], constant["provenance"]
    if value is None:
        raise FpkError(f"no {provenance} {name} constant available (trajectory had u = 0)")
    if not value > 0.0:
        raise FpkError(f"the {provenance} {name} constant is {value!r}, not positive")
    return constant


def _report(theorem: str, ledger: ConstantsLedger, gamma, g0, sides, used: dict) -> dict:
    """The theorem's report.json entry: ``sides`` holds each clause's (lhs, rhs, op)
    in CLAUSES order, and ``used`` each constant it took, as it was given."""
    clauses = [
        {"name": name, "lhs": lhs, "rhs": rhs, "op": op, "pass": _OPS[op](lhs, rhs)}
        for name, (lhs, rhs, op) in zip(CLAUSES[theorem], sides, strict=True)
    ]
    return {
        "theorem": theorem, "gamma": gamma, "g0": g0, "ledger": asdict(ledger), "constants": used,
        "clauses": clauses, "overall": all(c["pass"] for c in clauses),
    }


def check_condition_T2(ledger: ConstantsLedger, gamma: float, g0: float, constants: dict) -> dict:
    """Homogeneous regime: rate clause plus initial-energy finiteness."""
    poincare = _usable("Poincare", constants["poincare"])
    _validate_common(ledger, gamma)
    if ledger.grad_d > _REGIME_ATOL or ledger.grad_pi > _REGIME_ATOL or ledger.pi_time > _REGIME_ATOL:
        raise WrongRegimeError("homogeneous check requires constant D and constant pi")
    sides = [
        (-2.0 * ledger.hess_phi_lower + 2.0 * ledger.d_min / poincare["value"], gamma, ">="),
        (g0, math.inf, "<"),
    ]
    return _report("T2", ledger, gamma, g0, sides, {"poincare": poincare})


def check_condition_T3(ledger: ConstantsLedger, gamma: float, g0: float, constants: dict) -> dict:
    """Spatial-D regime: diffusion floor, rate clause, saturation threshold."""
    poincare = _usable("Poincare", constants["poincare"])
    sobolev = _usable("Sobolev", constants["sobolev"])
    _validate_common(ledger, gamma)
    if ledger.grad_pi > _REGIME_ATOL or ledger.pi_time > _REGIME_ATOL:
        raise WrongRegimeError("this check requires a constant mobility")
    lf = ledger.log_f_bound
    gd = ledger.grad_d
    n = ledger.dim
    floor_lhs = max(
        _entry(3.0, lf, gd, _power(sobolev["value"], 1.5)),
        2.0 * lf * gd * ledger.grad_phi_sup,
        4.0 * (1.0 + n) * (lf + 1.0) ** 2 * gd**2,
    )
    sides = [
        (floor_lhs, ledger.d_min, "<="),
        (-2.0 * (ledger.hess_phi_lower + 1.0) + ledger.d_min / poincare["value"], gamma, ">="),
        (g0, gronwall_threshold(_comparison_spec("T3", gamma, g0)), "<"),
    ]
    return _report("T3", ledger, gamma, g0, sides, {"sobolev": sobolev, "poincare": poincare})


def check_condition_T4(ledger: ConstantsLedger, gamma: float, g0: float, constants: dict) -> dict:
    """Variable-mobility regime: the full six-clause report, whose ``sobolev``
    constant is the weighted one."""
    poincare = _usable("Poincare", constants["poincare"])
    sobolev = _usable("weighted Sobolev", constants["sobolev_weighted"])
    _validate_common(ledger, gamma)
    lf = ledger.log_f_bound
    gd = ledger.grad_d
    n = ledger.dim
    k32 = _power(sobolev["value"], 1.5)  # K^{3/2}
    floor_lhs = max(
        _entry(12.0, lf, ledger.pi_max, gd, k32),
        12.0 * lf * gd * ledger.grad_phi_sup,
        16.0 * (1.0 + n) * (lf + 1.0) ** 2 * gd**2,
    )
    # grad_d = 0, and K^{3/2} underflowing to 0, make an entry infinitely permissive
    grad_pi_cap = min(
        1.0 / (6.0 * k32) if k32 > 0.0 else math.inf,
        ledger.pi_min / (24.0 * (lf + 1.0) * gd) if gd > 0.0 else math.inf,
        ledger.pi_min / (4.0 * math.sqrt(2.0 * (math.sqrt(n) * gd + 1.0) * ledger.d_min)),
        ledger.pi_min,
    )
    comparison = _comparison_spec("T4", gamma, g0, ledger.pi_min)
    sides = [
        (floor_lhs, ledger.d_min, "<="),
        (ledger.pi_time, 1.0 / 6.0, "<="),
        (ledger.grad_pi, grad_pi_cap, "<="),
        (ledger.grad_pi, ledger.pi_min / (2.0 * sobolev["value"]), "<="),
        (-2.0 * (ledger.hess_phi_lower + 1.0) + ledger.d_min / poincare["value"], gamma * ledger.pi_max, ">="),
        (g0, gronwall_threshold(comparison), "<"),
    ]
    return _report("T4", ledger, gamma, g0, sides, {"sobolev": sobolev, "poincare": poincare})


def _comparison_spec(theorem: str, gamma: float, g0: float, pi_min: float | None = None) -> GronwallSpec:
    """The theorem's comparison ODE dg/dt = -gamma g + d g^3 started at g0."""
    if theorem == "T2":
        d = 0.0
    elif theorem == "T3":
        d = 1.0 / 6.0
    elif theorem == "T4":
        if pi_min is None or not pi_min > 0.0:
            raise ValueError("the variable-mobility comparison needs pi_min > 0")
        denominator = 12.0 * _power(pi_min, 3)
        d = 1.0 / denominator if denominator > 0.0 else math.inf  # pi_min**3 underflowed
    else:
        raise ValueError(f"unknown theorem {theorem!r}")
    return GronwallSpec(c=gamma, d=d, p=3.0, g0=g0)


def predicted_envelope(theorem: str, gamma: float, g0: float, pi_min: float | None = None) -> GronwallSpec:
    """The theorem's comparison ODE, whose envelope is t -> gronwall_bound(spec, t).

    T2's envelope starts at g0; T3 and T4 inflate it and need g0 below their
    threshold (ThresholdError otherwise).
    """
    spec = _comparison_spec(theorem, gamma, g0, pi_min)
    gronwall_bound(spec, 0.0)  # raises ThresholdError at or above the threshold
    return spec


def compare_to_envelope(series, spec: GronwallSpec) -> float:
    """Worst ratio dissipation(t) / gronwall_bound(spec, t); domination iff <= 1 + 1e-6.

    The bound is evaluated once, over all record times.  Records with zero
    dissipation contribute ratio 0 even when the envelope is identically zero
    (the stationary start).  A NaN ratio makes the result NaN, so a NaN
    dissipation never counts as dominated.
    """
    dissipation = series.column("dissipation")
    bound = gronwall_bound(spec, series.column("t"))
    with np.errstate(all="ignore"):  # quotients as float division gives them; those over a bound <= 0 are replaced
        ratios = np.where(dissipation == 0.0, 0.0, np.where(bound > 0.0, dissipation / bound, math.inf))
    return float(np.max(ratios, initial=0.0))


def condition_reports(regime, ledger, gamma, g0, constants) -> list[dict]:
    """The report.json entry of each theorem that covers ``regime``.

    ``constants`` maps "poincare", "sobolev" and "sobolev_weighted" to
    {"value", "provenance"}, and each checker reads the ones its theorem takes.
    A theorem whose constant is unusable (see _usable), or whose check raises
    an FpkError, gets {"theorem", "error"} in place of its report.
    """
    reports = []
    for theorem in regime_theorems(regime):
        check = globals()[f"check_condition_{theorem}"]  # looked up per call, so a wrapper is seen
        try:
            reports.append(check(ledger, gamma, g0, constants))
        except FpkError as exc:
            reports.append({"theorem": theorem, "error": str(exc)})
    return reports


def envelope_report(regime, ledger, gamma, series) -> dict:
    """The envelope of the regime's own theorem, started at the first record's
    dissipation, against the series; or the threshold that start violates."""
    theorem = regime_theorems(regime)[0]
    g0 = series.columns["dissipation"][0]
    block = {"theorem": theorem, "gamma": gamma, "g0": g0}
    try:
        spec = predicted_envelope(theorem, gamma, g0, pi_min=ledger.pi_min)
    except ThresholdError as exc:
        return {**block, "threshold_violated": True, "error": str(exc)}
    worst = compare_to_envelope(series, spec)
    return {
        **block,
        "threshold_violated": False,
        "coefficient": gronwall_bound(spec, 0.0),
        "rate": spec.c,
        "worst_ratio": worst,
        "dominates": worst <= 1.0 + 1e-6,
    }
