import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fpklab as F
from conftest import clauses_by_name, comparison_ode, constant, constants_map
from fpklab import cli, diagnostics as dg, theory as th
from fpklab.coefficients import REGIMES
from fpklab.errors import ThresholdError, WrongRegimeError


def make_ledger(**overrides):
    base = dict(
        dim=1,
        init_min=0.5,
        init_max=1.5,
        d_min=1.0,
        pi_min=1.0,
        pi_max=1.0,
        pi_time=0.0,
        grad_pi=0.0,
        grad_d=0.0,
        hess_phi_lower=0.0,
        phi_sup=0.5,
        grad_phi_sup=1.0,
        log_f0_sup=0.7,
        feq_shift=0.0,
        log_f_bound=2.0,
        d_max_bound=1.0,
    )
    base.update(overrides)
    return F.ConstantsLedger(**base)


class TestGronwallClosedForm:
    def test_threshold_examples(self):
        assert th.gronwall_threshold(th.GronwallSpec(1.0, 1 / 6, 3.0, 0.0)) == pytest.approx(math.sqrt(6))
        assert th.gronwall_threshold(th.GronwallSpec(0.37, 0.37, 2.5, 0.0)) == pytest.approx(1.0)
        assert th.gronwall_threshold(th.GronwallSpec(2.0, 1.0, 2.0, 0.0)) == pytest.approx(2.0)

    def test_bound_at_zero(self):
        spec = th.GronwallSpec(c=1.0, d=1 / 6, p=3.0, g0=1.0)
        assert th.gronwall_bound(spec, 0.0) == pytest.approx((1 - 1 / 6) ** -0.5, abs=1e-12)

    def test_small_start_asymptotics(self):
        spec = th.GronwallSpec(c=2.0, d=0.5, p=3.0, g0=1e-8)
        assert th.gronwall_bound(spec, 1.3) == pytest.approx(1e-8 * math.exp(-2.0 * 1.3), rel=1e-10)

    def test_at_threshold_rejected(self):
        spec = th.GronwallSpec(c=1.0, d=1 / 6, p=3.0, g0=math.sqrt(6))
        with pytest.raises(ThresholdError):
            th.gronwall_bound(spec, 1.0)

    def test_overflowing_power_keeps_g0_as_coefficient(self):
        # g0^-2 overflows a float; the factor (1 - 6 g0^2)^(-1/2) is 1 to the last bit
        g0 = 4e-157
        spec = th.GronwallSpec(c=1.0, d=1 / 6, p=3.0, g0=g0)
        assert th.gronwall_bound(spec, 0.0) == g0
        assert th.gronwall_bound(spec, 2.0) == pytest.approx(g0 * math.exp(-2.0), rel=1e-15)
        assert th.gronwall_bound(th.predicted_envelope("T3", 1.0, g0), 0.0) == g0
        assert th.gronwall_bound(th.predicted_envelope("T4", 1.0, g0, pi_min=1.0), 0.0) == g0

    def test_overflowing_power_near_a_tiny_threshold(self):
        # threshold sqrt(1e-307): g0 = 5e-155 has (d/c) g0^2 = 0.025, a factor far from 1
        spec = th.GronwallSpec(c=1.0, d=1e307, p=3.0, g0=5e-155)
        ratio_sq = (5e-155 * 1e154) ** 2 * (1e307 * 1e-308)
        expected = 5e-155 * (1 - ratio_sq) ** -0.5
        assert th.gronwall_bound(spec, 0.0) == pytest.approx(expected, rel=1e-12)
        # threshold sqrt(1e-310), and d/c overflows too
        with pytest.raises(ThresholdError):
            th.gronwall_bound(th.GronwallSpec(c=1e-10, d=1e300, p=3.0, g0=2e-155), 0.0)

    def test_no_saturation_reduces_to_pure_exponential(self):
        spec = th.GronwallSpec(c=1.5, d=0.0, p=3.0, g0=0.8)
        assert th.gronwall_threshold(spec) == math.inf
        assert th.gronwall_bound(spec, 2.0) == pytest.approx(0.8 * math.exp(-3.0), rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            th.GronwallSpec(c=0.0, d=0.1, p=3.0, g0=0.0)
        with pytest.raises(ValueError):
            th.GronwallSpec(c=1.0, d=0.1, p=1.0, g0=0.0)
        with pytest.raises(ValueError):
            th.GronwallSpec(c=1.0, d=0.1, p=3.0, g0=-0.1)
        with pytest.raises(ValueError, match="d must be nonnegative"):
            th.GronwallSpec(c=1.0, d=-0.1, p=3.0, g0=0.0)


class TestGronwallComparisonOde:
    def test_canonical_example_dominated(self):
        spec = th.GronwallSpec(c=1.0, d=1 / 6, p=3.0, g0=1.0)
        times, values = comparison_ode(spec, t_end=5.0, dt=1e-3)
        assert np.all(values <= th.gronwall_bound(spec, times) + 1e-9)

    def test_linear_case_bound_coincides(self):
        spec = th.GronwallSpec(c=1.0, d=0.0, p=3.0, g0=1.0)
        times, values = comparison_ode(spec, t_end=2.0, dt=1e-3)
        assert np.allclose(values, np.exp(-times), atol=1e-9)

    def test_above_threshold_growth_flagged(self):
        spec = th.GronwallSpec(c=1.0, d=1 / 6, p=3.0, g0=3.0)  # threshold sqrt(6) ~ 2.449
        assert -spec.c * spec.g0 + spec.d * spec.g0**spec.p > 0  # growth at g0
        times, values = comparison_ode(spec, t_end=5.0, dt=1e-3)
        assert values[-1] > values[0] or not math.isfinite(values[-1])
        with pytest.raises(ThresholdError):  # no bound above the threshold
            th.gronwall_bound(spec, times)


class TestConditionT2:
    def test_passes_with_empirical_first_mode_constant(self):
        led = make_ledger()
        report = th.check_condition_T2(led, gamma=1.0, g0=0.5, constants=constants_map(0.0254))
        clauses = clauses_by_name(report)
        assert clauses["rate"]["lhs"] == pytest.approx(2.0 / 0.0254, rel=1e-12)
        assert clauses["rate"]["pass"]
        assert clauses["initial_energy_finite"]["pass"]
        assert report["overall"]

    def test_fails_with_strong_nonconvexity(self):
        led = make_ledger(hess_phi_lower=10.0)
        report = th.check_condition_T2(led, gamma=1.0, g0=0.5, constants=constants_map(1.0))
        assert clauses_by_name(report)["rate"]["lhs"] == pytest.approx(-18.0)
        assert not report["overall"]

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            th.check_condition_T2(make_ledger(), 0.0, 0.5, constants_map(1.0))

    def test_wrong_regime(self):
        with pytest.raises(WrongRegimeError):
            th.check_condition_T2(make_ledger(grad_d=0.5), 1.0, 0.5, constants_map(1.0))
        with pytest.raises(WrongRegimeError):
            th.check_condition_T2(make_ledger(grad_pi=0.5), 1.0, 0.5, constants_map(1.0))
        with pytest.raises(WrongRegimeError, match="dimensions 1, 2, 3 only"):
            th.check_condition_T2(make_ledger(dim=4), 1.0, 0.5, constants_map(1.0))

    def test_diffusion_floor_below_one_rejected(self):
        with pytest.raises(WrongRegimeError):
            th.check_condition_T2(make_ledger(d_min=0.5), 1.0, 0.5, constants_map(1.0))


class TestConditionT3:
    def test_constant_diffusion_floor_clause_degenerates(self):
        led = make_ledger()
        report = th.check_condition_T3(led, gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
        floor = clauses_by_name(report)["diffusion_floor"]
        assert floor["lhs"] == 0.0
        assert floor["pass"]

    def test_floor_entries_maximum(self):
        led = make_ledger(log_f_bound=2.0, grad_d=1.0, grad_phi_sup=0.1)
        report = th.check_condition_T3(led, gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
        # entries: 3*2*1*1 = 6, 2*2*1*0.1 = 0.4, 4*(1+1)*(3)^2*1 = 72
        floor = clauses_by_name(report)["diffusion_floor"]
        assert floor["lhs"] == pytest.approx(72.0)
        assert not floor["pass"]

    def test_gronwall_threshold_clause(self):
        led = make_ledger()
        report = th.check_condition_T3(led, gamma=1.0, g0=3.0, constants=constants_map(0.01, 1.0))
        clause = clauses_by_name(report)["gronwall_threshold"]
        assert clause["rhs"] == pytest.approx(math.sqrt(6.0))
        assert not clause["pass"]

    def test_rate_clause_value(self):
        led = make_ledger(hess_phi_lower=1.0, d_min=2.0)
        report = th.check_condition_T3(led, gamma=1.0, g0=0.5, constants=constants_map(0.05, 1.0))
        assert clauses_by_name(report)["rate"]["lhs"] == pytest.approx(-4.0 + 40.0)

    def test_wrong_regime_variable_pi(self):
        with pytest.raises(WrongRegimeError):
            th.check_condition_T3(make_ledger(pi_time=0.1), 1.0, 0.5, constants_map(1.0, 1.0))


class TestConditionT4:
    def test_constant_coefficients_auto_pass_gradient_clauses(self):
        led = make_ledger()
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
        clauses = clauses_by_name(report)
        assert clauses["diffusion_floor"]["lhs"] == 0.0
        assert clauses["mobility_time"]["pass"]
        assert clauses["mobility_gradient"]["pass"]
        assert clauses["poincare_gate"]["pass"]

    def test_mobility_time_clause_fails_above_sixth(self):
        led = make_ledger(pi_time=0.2)
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
        clause = clauses_by_name(report)["mobility_time"]
        assert clause["rhs"] == pytest.approx(1 / 6)
        assert not clause["pass"]

    def test_gronwall_threshold_value(self):
        led = make_ledger()
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
        assert clauses_by_name(report)["gronwall_threshold"]["rhs"] == pytest.approx(math.sqrt(12.0))

    def test_grad_d_zero_makes_second_cap_entry_infinite(self):
        led = make_ledger(grad_pi=0.05, pi_min=0.5, pi_max=2.0)
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
        cap = clauses_by_name(report)["mobility_gradient"]["rhs"]
        # min over {1/6, inf, 0.5/(4 sqrt(2)), 0.5}
        assert cap == pytest.approx(min(1 / 6, 0.5 / (4 * math.sqrt(2.0)), 0.5))

    def test_rate_clause_scaled_by_pi_max(self):
        led = make_ledger(pi_max=3.0, d_min=2.0)
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.05, 1.0))
        clause = clauses_by_name(report)["rate"]
        assert clause["rhs"] == pytest.approx(3.0)
        assert clause["lhs"] == pytest.approx(-2.0 + 40.0)

    def test_monotone_in_d_min_except_gradient_cap(self):
        rng = np.random.default_rng(5)
        flippable = {"mobility_gradient"}
        for _ in range(50):
            led_small = make_ledger(
                d_min=float(rng.uniform(1.0, 4.0)),
                grad_d=float(rng.uniform(0.0, 1.0)),
                grad_pi=float(rng.uniform(0.0, 0.4)),
                pi_min=float(rng.uniform(0.5, 1.0)),
                pi_max=float(rng.uniform(1.0, 2.0)),
                pi_time=float(rng.uniform(0.0, 0.3)),
                hess_phi_lower=float(rng.uniform(0.0, 5.0)),
                log_f_bound=float(rng.uniform(0.5, 3.0)),
            )
            led_big = F.ConstantsLedger(**{**dataclasses.asdict(led_small), "d_min": led_small.d_min * 4.0})
            small = th.check_condition_T4(led_small, gamma=1.0, g0=0.5, constants=constants_map(0.05, 0.8))
            big = th.check_condition_T4(led_big, gamma=1.0, g0=0.5, constants=constants_map(0.05, 0.8))
            for c_small, c_big in zip(small["clauses"], big["clauses"]):
                if c_small["pass"] and not c_big["pass"]:
                    assert c_small["name"] in flippable


def test_diffusion_floor_keeps_the_written_products():
    """Each checker's diffusion floor is, bit for bit, its three products written out
    with * and ** in the theorem's factor order; no ** on this grid overflows."""
    values = (0.0, 1e-300, 0.3, 1.0, 2.5, 7.0, 1e100)
    for lf, gd, gphi, n, k, pi_max in itertools.product(values, values, values, (1, 2, 3), (1e-3, 3.7), (1.0, 1e10)):
        led = make_ledger(dim=n, log_f_bound=lf, grad_d=gd, grad_phi_sup=gphi, pi_max=pi_max)
        k32 = k**1.5
        t3 = max(3.0 * lf * gd * k32, 2.0 * lf * gd * gphi, 4.0 * (1.0 + n) * (lf + 1.0) ** 2 * gd**2)
        t4 = max(12.0 * lf * pi_max * gd * k32, 12.0 * lf * gd * gphi, 16.0 * (1.0 + n) * (lf + 1.0) ** 2 * gd**2)
        for check, expected in ((th.check_condition_T3, t3), (th.check_condition_T4, t4)):
            report = check(led, gamma=1.0, g0=0.5, constants=constants_map(0.05, k))
            assert clauses_by_name(report)["diffusion_floor"]["lhs"].hex() == expected.hex(), (check, led)


#: float-range edges a ledger bound or a constant is drawn from
_EDGES = (0.0, 5e-324, 1e-300, 1.0, 1e154, 1e300, 1.7e308)
_POSITIVE = st.sampled_from(_EDGES[1:])


@st.composite
def edge_ledgers(draw):
    """A ConstantsLedger whose every bound lies on a float-range edge: d_min >= 1, the
    density and mobility bounds positive and ordered, log_f_bound possibly +inf."""
    init_min, init_max = sorted((draw(_POSITIVE), draw(_POSITIVE)))
    pi_min, pi_max = sorted((draw(_POSITIVE), draw(_POSITIVE)))
    bounds = ("pi_time", "grad_pi", "grad_d", "hess_phi_lower", "phi_sup", "grad_phi_sup", "log_f0_sup",
              "feq_shift", "d_max_bound")
    return F.ConstantsLedger(
        dim=draw(st.sampled_from((1, 2, 3))), init_min=init_min, init_max=init_max, pi_min=pi_min, pi_max=pi_max,
        d_min=draw(st.sampled_from(_EDGES[3:])), log_f_bound=draw(st.sampled_from((*_EDGES, math.inf))),
        **{name: draw(st.sampled_from(_EDGES)) for name in bounds},
    )


class TestExtremeConstants:
    """Admissible but extreme inputs: an overflowing entry is +inf, a zero factor
    keeps its entry at 0, every ledger of edge floats gets each report, and the
    examples' clauses see no NaN."""

    @staticmethod
    def _no_nan(report):
        for c in report["clauses"]:
            assert not (math.isnan(c["lhs"]) or math.isnan(c["rhs"])), c

    @settings(max_examples=300, deadline=None)
    @given(regime=st.sampled_from(REGIMES), ledger=edge_ledgers(), gamma=_POSITIVE, g0=st.sampled_from(_EDGES),
           values=st.tuples(_POSITIVE, _POSITIVE, _POSITIVE))
    @example(regime="homogeneous", ledger=make_ledger(log_f_bound=1e300), gamma=1.0, g0=0.5, values=(0.05, 1.0, 1.0))
    def test_every_edge_ledger_gets_each_report(self, regime, ledger, gamma, g0, values):
        reports = th.condition_reports(regime, ledger, gamma, g0, constants_map(*values))
        assert [report["theorem"] for report in reports] == list(th.regime_theorems(regime))

    def test_overflowing_sobolev_power_fails_t3_floor(self):
        report = th.check_condition_T3(make_ledger(grad_d=0.5), gamma=1.0, g0=0.5, constants=constants_map(0.05, 1e300))
        floor = clauses_by_name(report)["diffusion_floor"]
        assert floor["lhs"] == math.inf
        assert not floor["pass"]
        self._no_nan(report)

    def test_overflowing_sobolev_power_with_constant_d(self):
        report = th.check_condition_T3(make_ledger(), gamma=1.0, g0=0.5, constants=constants_map(0.05, 1e300))
        assert clauses_by_name(report)["diffusion_floor"]["lhs"] == 0.0  # 3 lf 0 inf stays 0
        report = th.check_condition_T4(make_ledger(grad_pi=0.05), gamma=1.0, g0=0.5, constants=constants_map(0.05, 1e300))
        clauses = clauses_by_name(report)
        assert clauses["diffusion_floor"]["lhs"] == 0.0
        assert clauses["mobility_gradient"]["rhs"] == 0.0  # 1 / (6 inf)
        assert not clauses["mobility_gradient"]["pass"]
        self._no_nan(report)

    def test_overflowing_sobolev_power_fails_t4_floor(self):
        report = th.check_condition_T4(make_ledger(grad_d=0.5), gamma=1.0, g0=0.5, constants=constants_map(0.05, 1e300))
        floor = clauses_by_name(report)["diffusion_floor"]
        assert floor["lhs"] == math.inf
        assert not floor["pass"]
        self._no_nan(report)

    def test_underflowing_pi_min_cubed_leaves_no_threshold(self):
        led = make_ledger(pi_min=1e-150, pi_max=3e-150, grad_pi=6e-150)
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.05, 0.2))
        threshold = clauses_by_name(report)["gronwall_threshold"]
        assert threshold["rhs"] == 0.0
        assert not threshold["pass"]
        self._no_nan(report)
        with pytest.raises(ThresholdError):
            th.predicted_envelope("T4", gamma=1.0, g0=0.5, pi_min=1e-150)

    def test_overflowing_pi_min_cubed_leaves_no_saturation(self):
        led = make_ledger(pi_min=1e200, pi_max=1e200)
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.05, 0.2))
        assert clauses_by_name(report)["gronwall_threshold"]["rhs"] == math.inf
        assert th.gronwall_bound(th.predicted_envelope("T4", gamma=1.0, g0=0.5, pi_min=1e200), 0.0) == 0.5


def _series(*dissipations):
    """A series with the given dissipations at t = 0, 0.1, 0.2, ..."""
    n = len(dissipations)
    columns = {
        "t": [0.1 * i for i in range(n)], "mass": [1.0] * n, "free_energy": [-1.0] * n,
        "dissipation": list(dissipations), "f_min": [1.0] * n, "f_max": [1.0] * n, "log_f_sup": [0.0] * n,
        "u_sup": [0.0] * n, "envelope_margin": [math.nan] * n, "jensen_margin": [0.0] * n,
    }
    return dg.TimeSeries(columns=columns)


class TestConditionReports:
    @pytest.mark.parametrize("value", [0.0, math.nan, None], ids=["zero", "nan", "none"])
    def test_unusable_sobolev_constant_gives_error_entries(self, value):
        ledger = make_ledger()
        reports = th.condition_reports("homogeneous", ledger, 1.0, 0.5, constants_map(0.0254, value))
        assert reports[0] == th.check_condition_T2(ledger, 1.0, 0.5, constants_map(0.0254))
        assert reports[0]["overall"] is True
        assert [set(r) for r in reports[1:]] == [{"theorem", "error"}] * 2
        assert [r["theorem"] for r in reports[1:]] == ["T3", "T4"]
        assert "empirical Sobolev constant" in reports[1]["error"]
        assert "empirical weighted Sobolev constant" in reports[2]["error"]

    @pytest.mark.parametrize("value", [0.0, math.nan, None], ids=["zero", "nan", "none"])
    def test_unusable_poincare_constant_gives_error_entries(self, value):
        constants = {**constants_map(0.3, 0.3, provenance="certified"), "poincare": constant(value)}
        reports = th.condition_reports("homogeneous", make_ledger(), 1.0, 0.5, constants)
        assert [r["theorem"] for r in reports] == ["T2", "T3", "T4"]
        assert all("empirical Poincare constant" in r["error"] for r in reports)

    @pytest.mark.parametrize("value", [0.0, math.nan, None], ids=["zero", "nan", "none"])
    def test_unusable_constant_is_named_before_the_diffusion_floor(self, value):
        reports = th.condition_reports("homogeneous", make_ledger(d_min=0.5), 1.0, 0.5, constants_map(value, value))
        assert [r["theorem"] for r in reports] == ["T2", "T3", "T4"]
        assert all("empirical Poincare constant" in r["error"] for r in reports)

    def test_flat_start_below_the_diffusion_floor_names_the_constant(self):
        data = {
            "grid": {"dim": 1, "cells_per_axis": 16},
            "coefficients": {"D": "0.5", "phi": "0", "pi": "1", "f0": "1"},
            "solver": {"t_end": 0.002},
            "theory": {"gamma": 1.0},
        }
        report = cli.check_scenario_data(cli.build_scenario(data, fallback_name="flat"))
        assert report["constants_ledger"]["d_min"] == 0.5
        error = "no empirical Poincare constant available (trajectory had u = 0)"
        assert report["condition_reports"] == [{"theorem": t, "error": error} for t in ("T2", "T3", "T4")]

    def test_each_theorem_takes_its_constants(self):
        ledger = make_ledger(grad_d=0.1)
        constants = {**constants_map(0.02, 0.3, 0.2), "poincare": constant(0.02, "certified")}
        reports = th.condition_reports("inhomogeneous-D", ledger, 1.0, 0.5, constants)
        assert reports == [
            th.check_condition_T3(ledger, 1.0, 0.5, constants),
            th.check_condition_T4(ledger, 1.0, 0.5, constants),
        ]
        poincare = {"value": 0.02, "provenance": "certified"}
        assert [r["constants"] for r in reports] == [
            {"sobolev": {"value": 0.3, "provenance": "empirical"}, "poincare": poincare},
            {"sobolev": {"value": 0.2, "provenance": "empirical"}, "poincare": poincare},
        ]

    def test_checker_error_becomes_an_error_entry(self):
        reports = th.condition_reports("full", make_ledger(d_min=0.5), 1.0, 0.5, constants_map(0.1, 0.1))
        error = "decay conditions require the diffusion floor d_min >= 1"
        assert reports == [{"theorem": "T4", "error": error}]


class TestEnvelopeReport:
    def test_own_theorem_envelope_with_pi_min(self):
        series = _series(1.0, 0.9, 0.85)
        block = th.envelope_report("full", make_ledger(pi_min=0.5), 2.0, series)
        spec = th.predicted_envelope("T4", 2.0, 1.0, pi_min=0.5)
        worst = th.compare_to_envelope(series, spec)
        assert block == {
            "theorem": "T4", "gamma": 2.0, "g0": 1.0, "threshold_violated": False,
            "coefficient": th.gronwall_bound(spec, 0.0), "rate": 2.0, "worst_ratio": worst, "dominates": False,
        }
        assert worst > 1.0  # 0.85 at t = 0.2 is above (3/2)^(1/2) e^{-0.4} = 0.82

    def test_threshold_violation(self):
        block = th.envelope_report("inhomogeneous-D", make_ledger(), 0.01, _series(10.0, 5.0))
        assert block["theorem"] == "T3" and block["threshold_violated"] is True
        assert "saturation threshold" in block["error"]


class TestPredictedEnvelope:
    def test_homogeneous_coefficient_is_initial_value(self):
        spec = th.predicted_envelope("T2", gamma=2.0, g0=0.5)
        assert th.gronwall_bound(spec, 0.0) == 0.5
        assert spec.c == 2.0
        assert th.gronwall_bound(spec, 1.0) == pytest.approx(0.5 * math.exp(-2.0))

    def test_saturating_coefficients(self):
        assert th.gronwall_bound(th.predicted_envelope("T3", 1.0, 1.0), 0.0) == pytest.approx(
            (1 - 1 / 6) ** -0.5
        )
        assert th.gronwall_bound(th.predicted_envelope("T4", 1.0, 1.0, pi_min=1.0), 0.0) == pytest.approx(
            (1 - 1 / 12) ** -0.5
        )

    def test_coefficient_never_below_initial_value(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            gamma = float(rng.uniform(0.1, 5.0))
            threshold = math.sqrt(6.0 * gamma)
            g0 = float(rng.uniform(0.0, 0.99) * threshold)
            spec = th.predicted_envelope("T3", gamma, g0)
            assert th.gronwall_bound(spec, 0.0) >= g0

    def test_threshold_violations(self):
        with pytest.raises(ThresholdError):
            th.predicted_envelope("T3", gamma=0.01, g0=10.0)
        with pytest.raises(ThresholdError):
            th.predicted_envelope("T4", gamma=0.01, g0=10.0, pi_min=0.5)
        with pytest.raises(ValueError):
            th.predicted_envelope("T4", gamma=1.0, g0=0.1)  # pi_min missing
        with pytest.raises(ValueError, match="unknown theorem 'T5'"):
            th.predicted_envelope("T5", gamma=1.0, g0=0.1)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            th.predicted_envelope("T2", gamma=0.0, g0=1.0)


def test_envelopes_and_thresholds_are_the_closed_form_bound():
    # each theorem's comparison ODE dg/dt = -gamma g + d g^3, written out here
    checked = 0
    for gamma in np.geomspace(0.01, 100.0, 15).tolist():
        for pi_min in np.linspace(0.3, 2.0, 8).tolist():
            ledger = make_ledger(pi_min=pi_min, pi_max=max(1.0, pi_min))
            saturation = {"T2": 0.0, "T3": 1.0 / 6.0, "T4": 1.0 / (12.0 * pi_min**3)}
            for theorem, d in saturation.items():
                for frac in np.linspace(0.0, 0.99, 12).tolist():
                    g0 = frac * (math.sqrt(gamma / d) if d > 0.0 else 10.0)
                    spec = th.GronwallSpec(c=gamma, d=d, p=3.0, g0=g0)
                    assert th.predicted_envelope(theorem, gamma, g0, pi_min=pi_min) == spec
                    if theorem == "T2":
                        continue
                    check = th.check_condition_T3 if theorem == "T3" else th.check_condition_T4
                    report = check(ledger, gamma, g0, constants_map(0.01, 1.0))
                    assert clauses_by_name(report)["gronwall_threshold"]["rhs"] == th.gronwall_threshold(spec)
                    checked += 1
    assert checked == 15 * 8 * 2 * 12


class TestCompareToEnvelope:
    def test_stationary_series_gives_zero_ratio(self):
        # all-zero dissipation (the equilibrium start, in exact arithmetic)
        series = _series(*[0.0] * 6)
        env = th.predicted_envelope("T2", gamma=1.0, g0=0.0)
        assert th.compare_to_envelope(series, env) == 0.0

    def test_nan_dissipation_is_not_dominated(self, heat_run_64):
        series = heat_run_64["series"]
        dissipation = list(series.columns["dissipation"])
        dissipation[3] = math.nan
        env = th.predicted_envelope("T2", gamma=1e-3, g0=series.columns["dissipation"][0])
        worst = th.compare_to_envelope(dg.TimeSeries(columns={**series.columns, "dissipation": dissipation}), env)
        assert math.isnan(worst)
        assert not worst <= 1.0 + 1e-6

    def test_heat_trajectory_dominated(self, heat_run_64):
        series = heat_run_64["series"]
        fit = dg.decay_fit(series, (0.005, 0.025))
        env = th.predicted_envelope("T2", gamma=0.95 * fit["rate"], g0=series.columns["dissipation"][0])
        assert th.compare_to_envelope(series, env) <= 1.0 + 1e-6

    def test_overclaimed_rate_fails(self, heat_run_64):
        series = heat_run_64["series"]
        fit = dg.decay_fit(series, (0.005, 0.025))
        env = th.predicted_envelope("T2", gamma=1.5 * fit["rate"], g0=series.columns["dissipation"][0])
        assert th.compare_to_envelope(series, env) > 1.0 + 1e-6


class TestClauseBookkeeping:
    def test_pass_reproducible_from_stored_sides(self):
        led = make_ledger(pi_time=0.1, grad_pi=0.05, grad_d=0.2, pi_min=0.8, pi_max=1.4)
        report = th.check_condition_T4(led, gamma=1.0, g0=0.5, constants=constants_map(0.02, 0.9))
        for clause in report["clauses"]:
            if clause["op"] == "<=":
                assert clause["pass"] == (clause["lhs"] <= clause["rhs"])
            elif clause["op"] == ">=":
                assert clause["pass"] == (clause["lhs"] >= clause["rhs"])
            else:
                assert clause["pass"] == (clause["lhs"] < clause["rhs"])
        assert report["overall"] == all(c["pass"] for c in report["clauses"])

    def test_clause_names_match_checkers(self):
        led = make_ledger()
        reports = [
            th.check_condition_T2(led, 1.0, 0.5, constants_map(1.0)),
            th.check_condition_T3(led, 1.0, 0.5, constants_map(1.0, 1.0)),
            th.check_condition_T4(led, 1.0, 0.5, constants_map(1.0, 1.0)),
        ]
        names = {r["theorem"]: tuple(c["name"] for c in r["clauses"]) for r in reports}
        assert names == th.CLAUSES
        assert th.THEOREMS == tuple(th.CLAUSES)
