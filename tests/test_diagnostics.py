import math

import numpy as np
import pytest

import fpklab as F
from conftest import capturing, interpolation_check, load_scenario_dict, plain_term_breakdown, traced_peak_arrays
from fpklab import cli, diagnostics as dg, grid as grid_module
from fpklab.coefficients import REGIMES
from fpklab.errors import (
    NonFiniteFieldError,
    NonPositiveDensityError,
    ShapeError,
    TooShortSeriesError,
    UndefinedRatioError,
    WrongRegimeError,
)
from fpklab.grid import ScalarField, dot, integrate


def sample(spec, dim=1, n=64):
    grid = F.build_grid(dim, n)
    coeffs, f0 = F.sample_coefficients(spec, grid)
    return grid, coeffs, f0


UNIT = {"D": "1", "phi": "0", "pi": "1", "f0": "1"}


class NumpyShapeSpy:
    """numpy, keeping in ``shapes`` the shape of each array its creation functions return."""

    CREATORS = ("empty", "zeros", "stack", "einsum", "concatenate")

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.CREATORS:
            return attr

        def creating(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.shapes.append(out.shape)
            return out

        return creating


def synthetic_series(ts, dissipations, free_energies=None):
    n = len(ts)
    columns = {
        "t": [float(t) for t in ts],
        "mass": [1.0] * n,
        "free_energy": [float(fe) for fe in free_energies or np.zeros(n)],
        "dissipation": [float(d) for d in dissipations],
        "f_min": [1.0] * n,
        "f_max": [1.0] * n,
        "log_f_sup": [0.0] * n,
        "u_sup": [0.0] * n,
        "envelope_margin": [math.nan] * n,
        "jensen_margin": [0.0] * n,
    }
    return dg.TimeSeries(columns=columns)


class TestFreeEnergy:
    def test_uniform_density(self):
        grid, coeffs, f0 = sample(UNIT)
        assert dg.free_energy(f0, coeffs) == pytest.approx(-1.0)

    def test_equilibrium_value_equals_shift_minus_diffusion_mass(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=256)
        feq, shift = F.compute_equilibrium(coeffs)
        assert dg.free_energy(feq, coeffs) == pytest.approx(shift - 1.0, abs=1e-8)

    def test_constant_potential_offset_shifts_linearly(self):
        grid, coeffs, f0 = sample({**UNIT, "f0": "1 + 0.3*sin(2*pi*x1)", "phi": "0.2*cos(2*pi*x1)"})
        _, coeffs_shifted, _ = sample(
            {**UNIT, "f0": "1 + 0.3*sin(2*pi*x1)", "phi": "0.2*cos(2*pi*x1) + 0.7"}
        )
        delta = dg.free_energy(f0, coeffs_shifted) - dg.free_energy(f0, coeffs)
        assert delta == pytest.approx(0.7, abs=1e-12)

    def test_nonpositive_rejected(self):
        grid, coeffs, _ = sample(UNIT)
        bad = ScalarField(grid, np.linspace(-1, 1, grid.cells_per_axis))
        with pytest.raises(NonPositiveDensityError):
            dg.free_energy(bad, coeffs)


class TestDissipation:
    def test_zero_at_equilibrium(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=128)
        feq, _ = F.compute_equilibrium(coeffs)
        assert dg.dissipation(feq, coeffs, 0.0) <= 1e-12

    def test_unit_mobility_equals_plain_velocity_norm(self):
        grid, coeffs, f0 = sample({**UNIT, "f0": "1 + 0.2*sin(2*pi*x1)"})
        u = F.compute_velocity(f0, coeffs, 0.0)
        plain = integrate(ScalarField(grid, np.sqrt(dot(u, u)) ** 2 * f0.values))
        assert dg.dissipation(f0, coeffs, 0.0) == pytest.approx(plain, rel=1e-14)

    def test_linearized_heat_value(self):
        grid, coeffs, f0 = sample({**UNIT, "f0": "1 + 0.01*sin(2*pi*x1)"}, n=128)
        target = 0.01**2 * (2 * np.pi) ** 2 / 2
        assert dg.dissipation(f0, coeffs, 0.0) == pytest.approx(target, rel=0.05)


class TestRecorderFailsClosed:
    def _record(self, values, spec=UNIT, dim=1):
        grid, coeffs, _ = sample(spec, dim=dim, n=8)
        f = ScalarField._trusted(grid, np.asarray(values, dtype=np.float64).reshape(grid.shape))
        return dg.make_recorder(coeffs)(F.SolverState(f=f, t=0.0, step_index=0))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_cell_raises(self, bad):
        with pytest.raises(NonPositiveDensityError):
            self._record([1.0] * 7 + [bad])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_velocity_raises(self, dim, bad):
        values = np.ones(8**dim)
        values[3] = bad  # log f, psi and the neighbors' u_k are NaN or infinite
        with pytest.raises(NonFiniteFieldError):
            self._record(values, dim=dim)

    def test_overflowing_speed_squared_raises(self):
        # every u_k is finite (about 1e200) but |u|^2 overflows to inf
        with np.errstate(over="ignore"), pytest.raises(NonFiniteFieldError):
            self._record(np.ones(8), spec={**UNIT, "phi": "1e200*sin(2*pi*x1)"})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gradient_squared_raises_without_a_warning(self):
        # |u|^2 is finite (about 7e306) but |grad u|^2 overflows to inf
        with pytest.raises(NonFiniteFieldError, match=r"\|grad u\|\^2"):
            self._record(np.ones(8), spec={**UNIT, "phi": "5e152*sin(2*pi*x1)"})


class TestEnergyLawResidual:
    def test_equilibrium_run_residuals_vanish(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=64)
        feq, _ = F.compute_equilibrium(coeffs)
        series = F.run(
            feq, coeffs, F.SolverConfig(t_end=0.004, record_every=5), dg.make_batch_recorder(coeffs)
        )
        assert np.abs(dg.energy_law_residual(series)).max() <= 1e-10

    def test_residual_shrinks_under_refinement(self):
        def residual(n):
            grid, coeffs, f0 = sample({**UNIT, "f0": "1 + 0.05*sin(2*pi*x1)"}, n=n)
            series = F.run(
                f0, coeffs, F.SolverConfig(t_end=0.01, cfl_safety=0.4, record_every=4),
                dg.make_batch_recorder(coeffs),
            )
            return np.abs(dg.energy_law_residual(series)).max()

        assert residual(64) / residual(128) >= 3.5

    def test_short_series_rejected(self):
        series = synthetic_series([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(TooShortSeriesError):
            dg.energy_law_residual(series)


class TestMaxPrincipleEnvelope:
    def test_degenerate_at_equilibrium(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "0.4*cos(2*pi*x1)", "D": "1.5+0.5*cos(2*pi*x1)"})
        feq, _ = F.compute_equilibrium(coeffs)
        lower, upper = dg.max_principle_envelope(feq, feq, coeffs)
        assert np.allclose(lower.values, feq.values, rtol=1e-12)
        assert np.allclose(upper.values, feq.values, rtol=1e-12)

    def test_constant_diffusion_reduces_to_density_ratio(self):
        grid, coeffs, f0 = sample({**UNIT, "phi": "0.4*cos(2*pi*x1)", "f0": "1+0.2*sin(2*pi*x1)"})
        feq, _ = F.compute_equilibrium(coeffs)
        lower, upper = dg.max_principle_envelope(f0, feq, coeffs)
        ratio = f0.values / feq.values
        assert np.allclose(lower.values, ratio.min() * feq.values, rtol=1e-12)
        assert np.allclose(upper.values, ratio.max() * feq.values, rtol=1e-12)

    def test_initial_density_contained(self):
        grid, coeffs, f0 = sample(
            {**UNIT, "D": "2+0.5*cos(2*pi*x1)", "phi": "cos(2*pi*x1)", "f0": "1+0.1*sin(2*pi*x1)"}
        )
        feq, _ = F.compute_equilibrium(coeffs)
        envelope = dg.max_principle_envelope(f0, feq, coeffs)
        assert dg.envelope_margin(f0, envelope) >= -1e-14

    def test_harnack_style_ratio_bounded(self):
        grid, coeffs, f0 = sample(
            {**UNIT, "D": "2+0.5*cos(2*pi*x1)", "phi": "cos(2*pi*x1)", "f0": "1+0.1*sin(2*pi*x1)"},
            n=128,
        )
        feq, _ = F.compute_equilibrium(coeffs)
        lower, upper = dg.max_principle_envelope(f0, feq, coeffs)
        led = F.build_constants_ledger(coeffs, f0, grid)
        assert upper.max() / lower.min() <= math.exp(2 * led.log_f_bound)


class TestJensen:
    def test_zero_field(self):
        grid = F.build_grid(2, 16)
        u = np.zeros((2, 16, 16))
        assert dg.jensen_check(grid, u) == 0.0

    def test_planar_shear_margin(self):
        # N = 30 puts cell centers exactly on cos(2 pi x) = 0, where the only
        # nonzero derivative vanishes and the margin degenerates to equality
        grid = F.build_grid(2, 30)
        x, _ = grid.coordinates()
        comps = np.stack([np.broadcast_to(np.sin(2 * np.pi * x), grid.shape).copy(),
                          np.zeros(grid.shape)])
        margin = dg.jensen_check(grid, comps)
        assert margin >= -1e-12
        assert margin <= 1e-12

    def test_random_smooth_fields(self):
        rng = np.random.default_rng(11)
        grid = F.build_grid(2, 16)
        x, y = grid.coordinates()
        for _ in range(100):
            a, b, c, d = rng.uniform(-1, 1, size=4)
            comps = np.stack(
                [
                    a * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
                    + b * np.cos(2 * np.pi * (x + y)),
                    c * np.sin(2 * np.pi * y) + d * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
                ]
            )
            u = np.broadcast_to(comps, (2,) + grid.shape).copy()
            assert dg.jensen_check(grid, u) >= -1e-12


class TestSecondDerivativeTerms:
    def test_equilibrium_kills_every_term(self):
        grid, coeffs, _ = sample(
            {"D": "1.5+0.25*cos(2*pi*x1)", "phi": "0.3*cos(2*pi*x1)", "pi": "1", "f0": "1"}, n=128
        )
        feq, _ = F.compute_equilibrium(coeffs)
        breakdown = dg.second_derivative_terms(feq, coeffs, 0.0, "inhomogeneous-D")
        for value in breakdown["terms"].values():
            assert abs(value) <= 1e-10

    def test_constant_pi_full_mode_matches_seven_term_mode(self):
        grid, coeffs, f0 = sample(
            {"D": "2+0.5*cos(2*pi*x1)", "phi": "cos(2*pi*x1)", "pi": "1", "f0": "1+0.1*sin(2*pi*x1)"}
        )
        seven = dg.second_derivative_terms(f0, coeffs, 0.0, "inhomogeneous-D")
        full = dg.second_derivative_terms(f0, coeffs, 0.0, "full")
        names = list(full["terms"])
        assert names[:7] == list(seven["terms"])
        for name in names[:7]:
            assert full["terms"][name] == pytest.approx(seven["terms"][name], abs=1e-10)
        for name in names[7:]:
            assert abs(full["terms"][name]) <= 1e-10

    def test_homogeneous_sum_structure(self):
        grid, coeffs, f0 = sample({**UNIT, "phi": "0.5*cos(2*pi*x1)", "f0": "1+0.1*sin(2*pi*x1)"})
        breakdown = dg.second_derivative_terms(f0, coeffs, 0.0, "homogeneous")
        assert set(breakdown["terms"]) == {"hessian_phi", "d_grad_u_sq"}
        assert breakdown["sum"] == pytest.approx(sum(breakdown["terms"].values()), abs=1e-12)

    def test_mode_mismatch_rejected(self):
        grid, coeffs, f0 = sample({**UNIT, "D": "2+0.5*cos(2*pi*x1)"})
        with pytest.raises(WrongRegimeError):
            dg.second_derivative_terms(f0, coeffs, 0.0, "homogeneous")
        _, coeffs_t, f0_t = sample({**UNIT, "pi": "1+0.1*sin(t)"})
        with pytest.raises(WrongRegimeError):
            dg.second_derivative_terms(f0_t, coeffs_t, 0.0, "inhomogeneous-D")

    def test_non_finite_velocity_raises(self):
        grid, coeffs, _ = sample({**UNIT, "D": "2+0.5*cos(2*pi*x1)"}, n=8)
        values = np.ones(8)
        values[3] = math.nan
        with pytest.raises(NonFiniteFieldError):
            dg.second_derivative_terms(ScalarField._trusted(grid, values), coeffs, 0.0, "full")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_recorder_carries_terms_only_given_a_config(self, monkeypatch, dim):
        spec = {
            "D": "2+0.5*cos(2*pi*x1)",
            "phi": f"0.3*cos(2*pi*x{dim})",
            "pi": "1.2+0.2*sin(2*pi*x1)*(1+t)",
            "f0": "1+0.1*sin(2*pi*x1)",
        }
        grid, coeffs, f0 = sample(spec, dim=dim, n=16)
        config = F.SolverConfig(t_end=0.004, record_every=1)
        plain = F.run(f0, coeffs, config, dg.make_batch_recorder(coeffs))
        assert all(terms is None for terms in plain.columns["terms"])

        spy = NumpyShapeSpy()
        monkeypatch.setattr(dg, "np", spy)
        monkeypatch.setattr(grid_module, "np", spy)
        snaps = []
        series = F.run(f0, coeffs, config, capturing(dg.make_batch_recorder(coeffs, config=config), snaps))
        # neither the recorder nor its calls build, so none holds, an (n, n, ...) array
        assert spy.shapes and max(map(len, spy.shapes)) <= dim + 1
        assert {k: v for k, v in series.columns.items() if k != "terms"} == {
            k: v for k, v in plain.columns.items() if k != "terms"
        }
        carrying = [(s, terms) for s, terms in zip(snaps, series.columns["terms"]) if terms is not None]
        assert len(carrying) == dg.TERM_SAMPLES
        for state, terms in carrying:
            assert terms == dg.second_derivative_terms(state.f, coeffs, state.t, "full")

    SPECS = {  # one per regime; pi_t is nonzero in the full one
        "homogeneous": {"D": "1.5", "pi": "1.2"},
        "inhomogeneous-D": {"D": "2+0.5*cos(2*pi*x1)*cos(2*pi*({s}))", "pi": "1.2"},
        "full": {"D": "2+0.5*cos(2*pi*x1)*cos(2*pi*({s}))", "pi": "1.2+0.2*(1.5+sin(2*pi*({s})))*(1+t)"},
    }

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_terms_bitwise_equal_to_plain_formulas(self, dim, regime):
        # every axis weighs differently in s, so no component vanishes or equals another
        # and a sum over three of them depends on its order
        s = "+".join(f"{k}*x{k}" for k in range(1, dim + 1))
        spec = {
            **self.SPECS[regime],
            "phi": "0.3*cos(2*pi*x1)+0.2*sin(2*pi*({s}))*cos(2*pi*x1)",
            "f0": "1+0.1*sin(2*pi*x1)+0.1*cos(2*pi*({s}))",
        }
        grid, coeffs, f0 = sample({k: v.format(s=s) for k, v in spec.items()}, dim=dim, n=12)
        assert coeffs.regime == regime
        assert regime != "full" or np.abs(coeffs.pi_t_values(0.3)).min() > 0.0
        for mode in REGIMES[REGIMES.index(regime):]:
            breakdown = dg.second_derivative_terms(f0, coeffs, 0.3, mode)
            plain = plain_term_breakdown(f0, coeffs, 0.3, mode)
            assert {k: v.hex() for k, v in breakdown["terms"].items()} == {k: v.hex() for k, v in plain.items()}
            assert breakdown["sum"] == math.fsum(plain.values())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_uniform_state_terms_bitwise_equal_to_plain_formulas(self, dim):
        # u is exactly -0.0: a sum started from its first product keeps that sign, one from 0 does not
        grid, coeffs, f0 = sample({"D": "1.5", "phi": "0.7", "pi": "2", "f0": "1"}, dim=dim, n=8)
        u = np.array(F.compute_velocity(f0, coeffs, 0.0))
        assert np.all(u == 0.0) and np.all(np.signbit(u))
        for mode in REGIMES:
            breakdown = dg.second_derivative_terms(f0, coeffs, 0.0, mode)
            plain = plain_term_breakdown(f0, coeffs, 0.0, mode)
            assert {k: v.hex() for k, v in breakdown["terms"].items()} == {k: v.hex() for k, v in plain.items()}

    def test_convex_case_certifies_nonnegative_sum(self, heat_run_64):
        # flat potential: the two-term sum is a weighted square, so >= -1e-10
        coeffs = heat_run_64["coeffs"]
        for state in heat_run_64["snapshots"][::10]:
            breakdown = dg.second_derivative_terms(state.f, coeffs, state.t, "homogeneous")
            assert breakdown["sum"] >= -1e-10

    @staticmethod
    def _identity_worst_error(spec, dim, n, t_end, mode, record_every):
        grid = F.build_grid(dim, n)
        coeffs, f0 = F.sample_coefficients(spec, grid)
        snaps = []
        series = F.run(
            f0, coeffs, F.SolverConfig(t_end=t_end, cfl_safety=0.4, record_every=record_every),
            capturing(dg.make_batch_recorder(coeffs), snaps),
        )
        t = series.column("t")
        dis = series.column("dissipation")
        worst = 0.0
        for i in range(1, len(series) - 1):
            fd = -(dis[i + 1] - dis[i - 1]) / (t[i + 1] - t[i - 1])
            breakdown = dg.second_derivative_terms(snaps[i].f, coeffs, snaps[i].t, mode)
            worst = max(worst, abs(breakdown["sum"] - fd) / abs(fd))
        return worst

    def test_identity_matches_dissipation_slope_2d(self):
        spec = {
            "D": "1.5+0.25*cos(2*pi*x1)*cos(2*pi*x2)",
            "phi": "0.4*cos(2*pi*x1)+0.2*sin(2*pi*x2)",
            "pi": "1",
            "f0": "1+0.2*sin(2*pi*x1)*sin(2*pi*x2)",
        }
        worst = self._identity_worst_error(spec, 2, 48, 0.002, "inhomogeneous-D", 4)
        assert worst <= 0.05

    def test_identity_matches_dissipation_slope_3d_full(self):
        spec = {
            "D": "1",
            "phi": "0.2*cos(2*pi*x3)",
            "pi": "2+0.5*sin(2*pi*x1)",
            "f0": "1+0.1*sin(2*pi*x1)+0.1*cos(2*pi*x2)",
        }
        worst = self._identity_worst_error(spec, 3, 24, 0.004, "full", 2)
        assert worst <= 0.05


_VELOCITY_CHECKS = {
    "jensen_check": lambda f, u: dg.jensen_check(f.grid, u),
    "empirical_poincare": dg.empirical_poincare,
    "empirical_sobolev": dg.empirical_sobolev,
    "interpolation_check": lambda f, u: interpolation_check(f, u, 1.0, "pi-constant"),
}


@pytest.mark.parametrize("check", _VELOCITY_CHECKS.values(), ids=_VELOCITY_CHECKS.keys())
@pytest.mark.parametrize(
    "shapes", [[(8, 8)], [(8, 8)] * 3, [(8, 8), (8, 7)]], ids=["one_component", "three_components", "wrong_shape"]
)
def test_velocity_must_have_one_grid_array_per_axis(check, shapes):
    grid = F.build_grid(2, 8)
    f = ScalarField(grid, np.ones(grid.shape))
    u = [np.sin(np.arange(np.prod(shape))).reshape(shape) for shape in shapes]
    with pytest.raises(ShapeError):
        check(f, u)


class TestEmpiricalRatios:
    def test_poincare_first_mode(self):
        grid = F.build_grid(1, 128)
        x = grid.axis_centers()
        f = ScalarField(grid, np.ones(128))
        u = np.sin(2 * np.pi * x)[None, :]
        ratio = dg.empirical_poincare(f, u)
        assert ratio == pytest.approx(1 / (4 * np.pi**2), rel=0.01)

    def test_poincare_undefined_for_zero_velocity(self):
        grid = F.build_grid(1, 16)
        f = ScalarField(grid, np.ones(16))
        u = np.zeros((1, 16))
        with pytest.raises(UndefinedRatioError):
            dg.empirical_poincare(f, u)

    def test_poincare_scale_invariant(self):
        grid = F.build_grid(1, 64)
        x = grid.axis_centers()
        f = ScalarField(grid, 1.0 + 0.2 * np.sin(2 * np.pi * x))
        u = np.cos(2 * np.pi * x)[None, :]
        u2 = 3.5 * np.cos(2 * np.pi * x)[None, :]
        assert dg.empirical_poincare(f, u) == pytest.approx(dg.empirical_poincare(f, u2), rel=1e-12)

    def test_sobolev_first_mode_oracle(self):
        # closed form: (int sin^6)^(1/6) / (2 pi sqrt(int cos^2)) = (5/16)^(1/6) / (2 pi / sqrt 2)
        grid = F.build_grid(1, 128)
        x = grid.axis_centers()
        f = ScalarField(grid, np.ones(128))
        u = np.sin(2 * np.pi * x)[None, :]
        oracle = (5 / 16) ** (1 / 6) / (2 * np.pi * math.sqrt(0.5))
        assert dg.empirical_sobolev(f, u) == pytest.approx(oracle, rel=0.01)

    def test_sobolev_scale_invariant_and_weighted(self):
        grid = F.build_grid(1, 64)
        x = grid.axis_centers()
        f = ScalarField(grid, np.ones(64))
        u = np.sin(2 * np.pi * x)[None, :]
        u2 = 2.0 * np.sin(2 * np.pi * x)[None, :]
        assert dg.empirical_sobolev(f, u) == pytest.approx(
            dg.empirical_sobolev(f, u2), rel=1e-12
        )
        plain = dg.empirical_sobolev(f, u)
        weighted = dg.empirical_sobolev(f, u, weighted=True)
        assert weighted < plain  # denominator strictly larger

    def test_sobolev_undefined_for_zero_velocity(self):
        grid = F.build_grid(1, 16)
        f = ScalarField(grid, np.ones(16))
        u = np.zeros((1, 16))
        with pytest.raises(UndefinedRatioError):
            dg.empirical_sobolev(f, u)


class TestInterpolationCheck:
    def test_zero_velocity_zero_margin(self):
        grid = F.build_grid(1, 16)
        f = ScalarField(grid, np.ones(16))
        u = np.zeros((1, 16))
        assert interpolation_check(f, u, 1.0, "pi-constant") == 0.0
        assert interpolation_check(f, u, 1.0, "pi-variable") == 0.0

    def test_margin_nonnegative_with_empirical_constant(self, heat_run_64):
        coeffs = heat_run_64["coeffs"]
        for state in heat_run_64["snapshots"][::7]:
            u = F.compute_velocity(state.f, coeffs, state.t)
            k_plain = dg.empirical_sobolev(state.f, u)
            k_weighted = dg.empirical_sobolev(state.f, u, weighted=True)
            assert interpolation_check(state.f, u, k_plain, "pi-constant") >= -1e-12
            assert interpolation_check(state.f, u, k_weighted, "pi-variable") >= -1e-12

    def test_scaling_is_recomputed_not_scaled(self):
        grid = F.build_grid(1, 64)
        x = grid.axis_centers()
        f = ScalarField(grid, np.ones(64))
        u = 0.1 * np.sin(2 * np.pi * x)[None, :]
        u2 = 0.2 * np.sin(2 * np.pi * x)[None, :]
        m1 = interpolation_check(f, u, 1.0, "pi-constant")
        m2 = interpolation_check(f, u2, 1.0, "pi-constant")
        assert m2 != pytest.approx(8.0 * m1, rel=1e-6)

    def test_invalid_inputs(self):
        grid = F.build_grid(1, 16)
        f = ScalarField(grid, np.ones(16))
        u = np.ones((1, 16))
        with pytest.raises(ValueError):
            interpolation_check(f, u, 0.0, "pi-constant")
        with pytest.raises(ValueError):
            interpolation_check(f, u, 1.0, "other")


class TestDecayFit:
    def test_exact_exponential_recovered(self):
        ts = np.linspace(0.0, 2.0, 21)
        series = synthetic_series(ts, 2.0 * np.exp(-3.0 * ts))
        fit = dg.decay_fit(series, (0.0, 2.0))
        assert fit["rate"] == pytest.approx(3.0, abs=1e-10)
        assert fit["log_intercept"] == pytest.approx(math.log(2.0), abs=1e-10)
        assert fit["residual_rms"] <= 1e-10
        assert fit["n_points"] == 21

    def test_window_with_too_few_points(self):
        ts = np.linspace(0.0, 2.0, 21)
        series = synthetic_series(ts, 2.0 * np.exp(-3.0 * ts))
        with pytest.raises(TooShortSeriesError):
            dg.decay_fit(series, (0.0, 0.05))

    def test_zero_dissipation_records_excluded(self):
        ts = np.linspace(0.0, 1.0, 11)
        dis = 2.0 * np.exp(-3.0 * ts)
        dis[3] = 0.0
        fit = dg.decay_fit(synthetic_series(ts, dis), (0.0, 1.0))
        assert fit["n_points"] == 10
        assert fit["rate"] == pytest.approx(3.0, abs=1e-9)

    def test_heat_rate(self, heat_run_64):
        fit = dg.decay_fit(heat_run_64["series"], (0.005, 0.025))
        assert fit["rate"] == pytest.approx(8 * np.pi**2, rel=0.05)


class TestCheckEnvelope:
    def test_initial_state_alone(self, heat_run_64):
        margin = dg.envelope_margin(heat_run_64["f0"], heat_run_64["envelope"])
        assert margin >= -1e-14

    def test_trajectory_containment(self, heat_run_64):
        states = [s.f for s in heat_run_64["snapshots"]]
        assert min(dg.envelope_margin(f, heat_run_64["envelope"]) for f in states) >= -1e-8

    def test_equilibrium_run_degenerate(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "0.5*cos(2*pi*x1)"})
        feq, _ = F.compute_equilibrium(coeffs)
        envelope = dg.max_principle_envelope(feq, feq, coeffs)
        assert abs(dg.envelope_margin(feq, envelope)) <= 1e-12


class TestTimeSeries:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            synthetic_series([0.0, 1.0, 1.0], [1.0, 0.5, 0.2])

    def test_short_column_rejected(self):
        with pytest.raises(ValueError):
            F.solver.TimeSeries(columns={"t": [0.0, 0.5, 1.0], "dissipation": [1.0, 0.5]})

    def test_record_invariants_along_run(self, heat_run_64):
        series = heat_run_64["series"]
        assert series.column("dissipation").min() >= -1e-12
        assert np.abs(series.column("mass") - 1.0).max() <= 1e-12


def records_of(columns) -> list[dict]:
    """Each record's {name: value}, from a recorder's or a series' lists."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def columns_of(records: list[dict]) -> dict:
    """The lists a recorder returns, from its records' {name: value}."""
    return {name: [record[name] for record in records] for name in records[0]}


def record_hex(record) -> tuple:
    """Every float field of a record as float.hex, and its term breakdown's (None if it has none)."""
    fields = tuple(float(value).hex() for name, value in record.items() if name != "terms")
    terms = record["terms"]
    if terms is not None:
        terms = (terms["mode"], {k: v.hex() for k, v in terms["terms"].items()}, terms["sum"].hex())
    return fields, terms


class TestBatchRecorder:
    """A stacked pass gives each state the fields and term breakdown the one-state recorder gives it."""

    SPECS = {  # one per regime; s weighs every axis differently, so no component vanishes or equals another
        "homogeneous": {"D": "1.5", "pi": "1.2"},
        "inhomogeneous-D": {"D": "2+0.5*cos(2*pi*x1)*cos(2*pi*({s}))", "pi": "1.2"},
        "full": {"D": "2+0.5*cos(2*pi*x1)*cos(2*pi*({s}))", "pi": "1.2+0.2*(1.5+sin(2*pi*({s})))*(1+t)"},
    }
    CELLS = {1: 16, 2: 16, 3: 8}  # full batches of 256, 16 and 8 states

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_field_bitwise_equal_to_the_one_state_recorder(self, dim, regime):
        s = "+".join(f"{k}*x{k}" for k in range(1, dim + 1))
        spec = {
            **self.SPECS[regime],
            "phi": "0.3*cos(2*pi*x1)+0.2*sin(2*pi*({s}))",
            "f0": "1+0.3*sin(2*pi*x1)+0.2*cos(2*pi*({s}))",
        }
        grid, coeffs, f0 = sample({k: v.format(s=s) for k, v in spec.items()}, dim=dim, n=self.CELLS[dim])
        assert coeffs.regime == regime
        full = max(1, F.solver.BATCH_CELLS // grid.cell_count)
        feq, _ = F.compute_equilibrium(coeffs)
        envelope = dg.max_principle_envelope(f0, feq, coeffs)
        states = []
        F.run(f0, coeffs, F.SolverConfig(t_end=1.0, max_steps=max(7, full) + 2, record_every=1),
              capturing(dg.make_batch_recorder(coeffs), states))
        pis = [coeffs.pi_values(state.t).copy() for state in states]
        # terms at the states first at or after 0, 3/8 and 3/4 of the last one's time, and at
        # that last one, which max_steps makes final before the other two targets
        config = F.SolverConfig(t_end=1.5 * states[-1].t, max_steps=len(states) - 1)
        one = dg.make_recorder(coeffs, envelope, config)
        expected = [record_hex(one(state)) for state in states]
        assert sum(terms is not None for _, terms in expected) == 4 and expected[-1][1] is not None
        for size in sorted({1, 2, 7, full}):
            batch = dg.make_batch_recorder(coeffs, envelope, config)
            records = []
            for start in range(0, len(states), size):
                records += records_of(batch(states[start:start + size], pis[start:start + size]))
            assert [record_hex(record) for record in records] == expected, size

    def test_variable_pi_run_same_with_either_recorder(self):
        scenario = cli.build_scenario(load_scenario_dict("variable_pi_1d"))
        grid, coeffs, f0, feq, _ = cli._setup(scenario)
        envelope = dg.max_principle_envelope(f0, feq, coeffs)
        batched = F.run(f0, coeffs, scenario.solver, dg.make_batch_recorder(coeffs, envelope, scenario.solver))
        one = dg.make_recorder(coeffs, envelope, scenario.solver)
        single = F.run(f0, coeffs, scenario.solver, lambda states, pis: columns_of([one(state) for state in states]))
        assert len(batched) > F.solver.BATCH_CELLS // grid.cell_count  # more than one batch
        assert [record_hex(r) for r in records_of(batched.columns)] == [record_hex(r) for r in records_of(single.columns)]
        assert batched.accepted_steps == single.accepted_steps

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_state_amid_a_batch_raises_the_one_state_error(self, bad):
        grid, coeffs, f0 = sample({**UNIT, "f0": "1+0.1*sin(2*pi*x1)"}, n=16)
        values = f0.values.copy()
        values[5] = bad
        broken = F.SolverState(f=ScalarField._trusted(grid, values), t=0.0, step_index=1)
        with pytest.raises(NonFiniteFieldError) as alone:
            dg.make_recorder(coeffs)(broken)
        states = [F.SolverState(f=f0, t=0.0, step_index=0), broken, F.SolverState(f=f0, t=0.0, step_index=2)]
        with pytest.raises(NonFiniteFieldError) as batched:
            dg.make_batch_recorder(coeffs)(states, [coeffs.pi_values(0.0)] * 3)
        assert str(batched.value) == str(alone.value)


class TestMemory:
    """Traced peaks of a 3-D run at 32^3 cells, in arrays of the grid's shape (256 KB).
    A term-sampled record took 38 and the run 61 while the breakdown held the full
    Jacobian and phi's Hessian."""

    TORUS_32 = {"grid.cells_per_axis": 32, "solver.t_end": 0.002}

    def test_recorder_call_peaks(self):
        scenario = load_scenario_dict("torus_3d", **self.TORUS_32)
        grid, coeffs, f0 = sample(scenario["coefficients"], dim=3, n=32)
        recorder = dg.make_recorder(coeffs, config=F.SolverConfig(t_end=0.01))
        record, peak = traced_peak_arrays(lambda: recorder(F.SolverState(f=f0, t=0.0, step_index=0)), grid)
        assert record["terms"] is not None and record["terms"]["mode"] == "full"
        assert peak <= 24
        record, peak = traced_peak_arrays(lambda: recorder(F.SolverState(f=f0, t=1e-4, step_index=1)), grid)
        assert record["terms"] is None
        assert peak <= 13

    def test_run_peak(self):
        scenario = cli.build_scenario(load_scenario_dict("torus_3d", **self.TORUS_32), fallback_name="torus_3d")
        (series, report), peak = traced_peak_arrays(lambda: cli.run_scenario_data(scenario), F.build_grid(3, 32))
        assert len(report["term_breakdown_samples"]) == dg.TERM_SAMPLES
        assert peak <= 38
