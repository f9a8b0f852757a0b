"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import fpklab as F
from conftest import SCENARIO_DIR, clauses_by_name, comparison_ode, constants_map, interpolation_check, load_scenario_dict, run_with_snapshots
from fpklab import cli, diagnostics as dg, theory as th
from fpklab.grid import dot

SCENARIO_NAMES = (
    "heat_1d",
    "stationary_1d",
    "inhom_d_1d",
    "variable_pi_1d",
    "mixed_2d",
    "torus_3d",
)


def emit(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def suite_runs():
    """All six shipped scenarios, run once; wall time recorded."""
    runs = {}
    start = time.perf_counter()
    for name in SCENARIO_NAMES:
        series, report, snapshots = run_with_snapshots(load_scenario_dict(name))
        runs[name] = {"series": series, "report": report, "snapshots": snapshots}
    runs["elapsed"] = time.perf_counter() - start
    return runs


def test_criterion_1_mass_conservation(suite_runs):
    worst = 0.0
    for name in SCENARIO_NAMES:
        series = suite_runs[name]["series"]
        worst = max(worst, float(np.abs(series.column("mass") - 1.0).max()))
    # the solver additionally enforces the same bound at every accepted step,
    # so a completed run certifies the unrecorded steps too
    elapsed = suite_runs["elapsed"]
    emit(
        1,
        "mass conservation",
        worst <= 1e-12 and elapsed <= 60.0,
        f"worst |mass-1| = {worst:.2e} over {len(SCENARIO_NAMES)} scenarios in {elapsed:.1f}s",
    )


def test_criterion_2_stationarity(suite_runs):
    run = suite_runs["stationary_1d"]
    grid = F.build_grid(1, 128)
    coeffs, _ = F.sample_coefficients(load_scenario_dict("stationary_1d")["coefficients"], grid)
    feq, _ = F.compute_equilibrium(coeffs)
    final = run["snapshots"][-1]
    assert final.t == pytest.approx(1.0)
    err = float(np.abs(final.f.values - feq.values).max())
    emit(2, "stationarity", err <= 1e-8, f"||f(1) - feq||_inf = {err:.2e} at N=128")


def _residual_max(spec_name: str, n: int) -> float:
    data = load_scenario_dict(
        spec_name,
        **{
            "grid.cells_per_axis": n,
            "solver.t_end": 0.01,
            "solver.cfl_safety": 0.4,
            "diagnostics.record_every": 4,
        },
    )
    series, _, _ = run_with_snapshots(data)
    return float(np.abs(dg.energy_law_residual(series)).max())


def test_criterion_3_energy_law_refinement():
    details = []
    ok = True
    for name in ("heat_1d", "inhom_d_1d"):
        r64 = _residual_max(name, 64)
        r128 = _residual_max(name, 128)
        factor = r64 / r128
        ok = ok and factor >= 3.0
        details.append(f"{name}: {r64:.2e} -> {r128:.2e} (factor {factor:.2f})")
    emit(3, "energy law dt ~ h^2 refinement", ok, "; ".join(details))


def test_criterion_4_homogeneous_decay(suite_runs):
    series = suite_runs["heat_1d"]["series"]
    report = suite_runs["heat_1d"]["report"]
    rate = report["decay_fit"]["rate"]
    target = 8 * math.pi**2
    rate_ok = abs(rate - target) / target <= 0.05
    g0 = series.columns["dissipation"][0]
    worst = 0.0
    for frac in (0.5, 0.75, 0.95):
        envelope = th.predicted_envelope("T2", gamma=frac * rate, g0=g0)
        worst = max(worst, th.compare_to_envelope(series, envelope))
    dominated = worst <= 1.0 + 1e-6
    emit(
        4,
        "homogeneous decay",
        rate_ok and dominated,
        f"fitted rate {rate:.3f} vs 8pi^2 = {target:.3f}; worst envelope ratio {worst:.6f}",
    )


def test_criterion_5_maximum_principle(suite_runs):
    worst = math.inf
    for name in SCENARIO_NAMES:
        series = suite_runs[name]["series"]
        worst = min(worst, float(series.column("envelope_margin").min()))
    emit(
        5,
        "maximum principle envelopes",
        worst >= -1e-8,
        f"worst containment margin {worst:.2e} (includes non-convex phi with variable D)",
    )


def test_criterion_6_second_derivative_identities():
    data = load_scenario_dict("inhom_d_1d", **{"solver.cfl_safety": 0.25})
    series, _, snapshots = run_with_snapshots(data)
    grid = F.build_grid(1, 128)
    coeffs, _ = F.sample_coefficients(data["coefficients"], grid)

    # full mode with constant mobility: the six mobility terms must vanish
    mid = snapshots[len(snapshots) // 2]
    full = dg.second_derivative_terms(mid.f, coeffs, mid.t, "full")
    names = list(full["terms"])
    tail_max = max(abs(full["terms"][k]) for k in names[7:])

    t = series.column("t")
    dis = series.column("dissipation")
    rel_errs = []
    for i in range(1, len(series) - 1):
        fd = -(dis[i + 1] - dis[i - 1]) / (t[i + 1] - t[i - 1])
        breakdown = dg.second_derivative_terms(
            snapshots[i].f, coeffs, snapshots[i].t, "inhomogeneous-D"
        )
        rel_errs.append(abs(breakdown["sum"] - fd) / abs(fd))
    worst_rel = max(rel_errs)
    emit(
        6,
        "second-derivative identities",
        tail_max <= 1e-10 and worst_rel <= 0.05,
        f"mobility terms <= {tail_max:.2e}; sum vs -dD_dis/dt rel err <= {worst_rel:.4f} at N=128",
    )


def test_criterion_7_gronwall_machinery():
    coeff = th.gronwall_bound(th.GronwallSpec(c=1.0, d=1 / 6, p=3.0, g0=1.0), 0.0)
    closed_form_ok = abs(coeff - (1 - 1 / 6) ** -0.5) <= 1e-10

    rng = np.random.default_rng(2024)
    worst_excess = -math.inf
    for _ in range(50):
        c = float(rng.uniform(0.2, 3.0))
        d = float(rng.uniform(0.05, 2.0))
        p = float(rng.uniform(1.2, 4.0))
        threshold = (c / d) ** (1.0 / (p - 1.0))
        g0 = float(rng.uniform(0.05, 0.95)) * threshold
        spec = th.GronwallSpec(c=c, d=d, p=p, g0=g0)
        times, values = comparison_ode(spec, t_end=4.0 / c, dt=1e-3 / c)
        worst_excess = max(worst_excess, float((values - th.gronwall_bound(spec, times)).max()))
    emit(
        7,
        "saturating decay bound",
        closed_form_ok and worst_excess <= 1e-9,
        f"coefficient {coeff:.10f}; worst ODE excess over bound {worst_excess:.2e} across 50 draws",
    )


def _ledger(**overrides):
    base = dict(
        dim=1, init_min=0.5, init_max=1.5, d_min=1.0, pi_min=1.0, pi_max=1.0,
        pi_time=0.0, grad_pi=0.0, grad_d=0.0, hess_phi_lower=0.0, phi_sup=0.5,
        grad_phi_sup=1.0, log_f0_sup=0.7, feq_shift=0.0, log_f_bound=2.0,
        d_max_bound=1.0,
    )
    base.update(overrides)
    return F.ConstantsLedger(**base)


def test_criterion_8_condition_truth_table():
    # (checker, kwargs, clause name, expected lhs, expected rhs, expected pass)
    inf = math.inf
    cases = [
        # homogeneous-rate clause
        (th.check_condition_T2, dict(ledger=_ledger(), gamma=1.0, g0=0.5, constants=constants_map(0.0254)),
         "rate", 2 / 0.0254, 1.0, True),
        (th.check_condition_T2, dict(ledger=_ledger(hess_phi_lower=10.0), gamma=1.0, g0=0.5, constants=constants_map(1.0)),
         "rate", -18.0, 1.0, False),
        (th.check_condition_T2, dict(ledger=_ledger(), gamma=1.0, g0=0.5, constants=constants_map(1.0)),
         "initial_energy_finite", 0.5, inf, True),
        # spatial-D diffusion floor
        (th.check_condition_T3, dict(ledger=_ledger(), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "diffusion_floor", 0.0, 1.0, True),
        (th.check_condition_T3,
         dict(ledger=_ledger(log_f_bound=2.0, grad_d=1.0, grad_phi_sup=0.1), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "diffusion_floor", 72.0, 1.0, False),
        (th.check_condition_T3,
         dict(ledger=_ledger(log_f_bound=2.0, grad_d=1.0, grad_phi_sup=0.1, d_min=72.0), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "diffusion_floor", 72.0, 72.0, True),
        (th.check_condition_T3, dict(ledger=_ledger(), gamma=1.0, g0=3.0, constants=constants_map(0.01, 1.0)),
         "gronwall_threshold", 3.0, math.sqrt(6.0), False),
        (th.check_condition_T3, dict(ledger=_ledger(hess_phi_lower=1.0, d_min=2.0), gamma=1.0, g0=0.5, constants=constants_map(0.05, 1.0)),
         "rate", 36.0, 1.0, True),
        # variable-mobility clauses
        (th.check_condition_T4, dict(ledger=_ledger(), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "diffusion_floor", 0.0, 1.0, True),
        (th.check_condition_T4, dict(ledger=_ledger(pi_time=0.2), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "mobility_time", 0.2, 1 / 6, False),
        (th.check_condition_T4, dict(ledger=_ledger(pi_time=0.1), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "mobility_time", 0.1, 1 / 6, True),
        (th.check_condition_T4,
         dict(ledger=_ledger(grad_pi=0.05, pi_min=0.5, pi_max=2.0), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "mobility_gradient", 0.05, min(1 / 6, 0.5 / (4 * math.sqrt(2.0)), 0.5), True),
        (th.check_condition_T4,
         dict(ledger=_ledger(grad_pi=0.2, pi_min=0.5, pi_max=2.0), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "mobility_gradient", 0.2, min(1 / 6, 0.5 / (4 * math.sqrt(2.0)), 0.5), False),
        (th.check_condition_T4,
         dict(ledger=_ledger(grad_pi=0.3, pi_min=0.5), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0)),
         "poincare_gate", 0.3, 0.25, False),
        (th.check_condition_T4, dict(ledger=_ledger(pi_max=3.0, d_min=2.0), gamma=1.0, g0=0.5, constants=constants_map(0.05, 1.0)),
         "rate", 38.0, 3.0, True),
        (th.check_condition_T4, dict(ledger=_ledger(pi_min=1.0), gamma=1.0, g0=4.0, constants=constants_map(0.01, 1.0)),
         "gronwall_threshold", 4.0, math.sqrt(12.0), False),
    ]
    checked = 0
    for checker, kwargs, clause_name, lhs, rhs, expect_pass in cases:
        report = checker(**kwargs)
        clause = clauses_by_name(report)[clause_name]
        assert clause["lhs"] == pytest.approx(lhs, rel=1e-12), (checker.__name__, clause_name)
        assert clause["rhs"] == pytest.approx(rhs, rel=1e-12), (checker.__name__, clause_name)
        assert clause["pass"] is expect_pass, (checker.__name__, clause_name)
        checked += 1
    # grad_d = 0 degeneracy: every gradient-driven clause auto-passes
    degen = th.check_condition_T4(_ledger(), gamma=1.0, g0=0.5, constants=constants_map(0.01, 1.0))
    for name in ("diffusion_floor", "mobility_gradient", "poincare_gate"):
        assert clauses_by_name(degen)[name]["pass"]
    emit(8, "condition truth table", checked >= 12, f"{checked} hand-built ledger cases reproduced")


SHIFT_ORACLE = -0.23591435850717948


def test_criterion_9_equilibrium_shift():
    grid = F.build_grid(1, 256)
    coeffs, _ = F.sample_coefficients(
        {"D": "1", "phi": "cos(2*pi*x1)", "pi": "1", "f0": "1"}, grid
    )
    _, shift = F.compute_equilibrium(coeffs, tol=1e-12)
    shift_ok = abs(shift - SHIFT_ORACLE) <= 1e-8

    rng = np.random.default_rng(42)
    bound_ok = True
    for _ in range(20):
        a, b = rng.uniform(-1.2, 1.2, size=2)
        k = int(rng.integers(1, 4))
        phi = f"({a})*cos(2*pi*{k}*x1) + ({b})*sin(2*pi*x1)"
        coeffs_r, _ = F.sample_coefficients(
            {"D": "1.5+0.5*cos(2*pi*x1)", "phi": phi, "pi": "1", "f0": "1"}, F.build_grid(1, 128)
        )
        _, s = F.compute_equilibrium(coeffs_r)
        phi_sup = float(np.abs(coeffs_r.phi.values).max())
        bound_ok = bound_ok and abs(s) <= phi_sup + 1e-12
    emit(
        9,
        "equilibrium shift",
        shift_ok and bound_ok,
        f"|shift - oracle| = {abs(shift - SHIFT_ORACLE):.2e}; |shift| <= sup|phi| on 20 random potentials",
    )


def test_criterion_10_diffusion_sweep_monotonicity(tmp_path):
    spec = cli.parse_sweep(SCENARIO_DIR / "sweep_d_scale.json")
    path = cli.run_sweep(spec, tmp_path / "sweep", force=True, jobs=2)
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    rate_idx = header.index("measured_rate")
    rates = [float(r.split(",")[rate_idx]) for r in rows[1:]]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    emit(
        10,
        "diffusion-floor sweep",
        monotone,
        "fitted rates " + " -> ".join(f"{r:.1f}" for r in rates),
    )


def test_criterion_11_determinism(tmp_path):
    data = load_scenario_dict("torus_3d")
    scenario = cli.build_scenario(data, fallback_name="torus_3d")
    cli.run_scenario(scenario, tmp_path / "a", force=True)
    cli.run_scenario(scenario, tmp_path / "b", force=True)
    first = (tmp_path / "a" / "series.csv").read_bytes()
    second = (tmp_path / "b" / "series.csv").read_bytes()
    emit(11, "determinism", first == second, f"{len(first)} bytes, byte-identical rerun")


# Cross-scenario invariants (not numbered criteria, but required structurally).


def test_suite_free_energy_monotone(suite_runs):
    for name in SCENARIO_NAMES:
        fe = suite_runs[name]["series"].column("free_energy")
        assert np.diff(fe).max() <= 1e-10, name


def test_suite_jensen_margins(suite_runs):
    for name in SCENARIO_NAMES:
        assert suite_runs[name]["series"].column("jensen_margin").min() >= -1e-12, name


def test_suite_dissipation_nonnegative(suite_runs):
    for name in SCENARIO_NAMES:
        assert suite_runs[name]["series"].column("dissipation").min() >= -1e-12, name


def test_suite_log_density_bound(suite_runs):
    # every shipped scenario has a diffusion floor >= 1, so the closed-form
    # uniform bound on |log f| must hold along the whole trajectory
    for name in SCENARIO_NAMES:
        run = suite_runs[name]
        bound = run["report"]["constants_ledger"]["log_f_bound"]
        assert run["report"]["constants_ledger"]["d_min"] >= 1.0, name
        sup = float(run["series"].column("log_f_sup").max())
        assert sup <= bound + 1e-8, (name, sup, bound)


def test_suite_weighted_interpolation_margins(suite_runs):
    data = load_scenario_dict("variable_pi_1d")
    grid = F.build_grid(1, data["grid"]["cells_per_axis"])
    coeffs, _ = F.sample_coefficients(data["coefficients"], grid)
    for state in suite_runs["variable_pi_1d"]["snapshots"][::10]:
        u = F.compute_velocity(state.f, coeffs, state.t)
        k = dg.empirical_sobolev(state.f, u, weighted=True)
        assert interpolation_check(state.f, u, k, "pi-variable") >= -1e-12


def test_suite_single_pass_diagnostics(suite_runs):
    # every record field is bitwise its public definition in 1-D, 2-D and 3-D,
    # the recorder's ratios give the report's maxima bit for bit, and exactly
    # the records picked by target time carry a term breakdown, bitwise
    # second_derivative_terms of their state
    assert suite_runs["variable_pi_1d"]["report"]["regime"] == "full"
    for name in ("variable_pi_1d", "mixed_2d", "torus_3d"):
        run = suite_runs[name]
        data = load_scenario_dict(name)
        grid = F.build_grid(data["grid"]["dim"], data["grid"]["cells_per_axis"])
        coeffs, f0 = F.sample_coefficients(data["coefficients"], grid)
        envelope = dg.max_principle_envelope(f0, F.compute_equilibrium(coeffs)[0], coeffs)
        assert len(run["snapshots"]) == len(run["series"]), name
        maxima = {}
        columns = run["series"].columns
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        for state, record in zip(run["snapshots"], records):
            f = state.f
            u = F.compute_velocity(f, coeffs, state.t)
            ratios = {
                "poincare": dg.empirical_poincare(f, u),
                "sobolev": dg.empirical_sobolev(f, u),
                "sobolev_weighted": dg.empirical_sobolev(f, u, weighted=True),
            }
            public = dict(
                t=state.t,
                mass=F.integrate(f),
                free_energy=dg.free_energy(f, coeffs),
                dissipation=dg.dissipation(f, coeffs, state.t),
                f_min=f.min(),
                f_max=f.max(),
                log_f_sup=float(np.abs(np.log(f.values)).max()),
                u_sup=float(np.sqrt(dot(u, u)).max()),
                envelope_margin=dg.envelope_margin(f, envelope),
                jensen_margin=dg.jensen_check(f.grid, u),
                **ratios,
            )
            assert {key: value for key, value in record.items() if key != "terms"} == public, (name, state.t)
            if record["terms"] is not None:
                terms = dg.second_derivative_terms(f, coeffs, state.t, coeffs.regime)
                assert record["terms"] == terms, (name, state.t)
            for key, value in ratios.items():
                maxima[key] = max(maxima.get(key, value), value)
        assert run["report"]["empirical_constants"] == maxima, name

        t_end = data["solver"]["t_end"]
        times = run["series"].column("t")
        targets = [j * t_end / (dg.TERM_SAMPLES - 1) for j in range(dg.TERM_SAMPLES)]
        picked = sorted({int(np.argmax(times >= target)) for target in targets})
        carrying = [i for i, terms in enumerate(columns["terms"]) if terms is not None]
        assert carrying == picked and picked[0] == 0 and picked[-1] == len(times) - 1, name
        samples = [tuple(sample.values()) for sample in run["report"]["term_breakdown_samples"]]
        records = [records[i] for i in picked]
        assert samples == [(r["t"], r["terms"]["mode"], r["terms"]["terms"], r["terms"]["sum"]) for r in records], name
