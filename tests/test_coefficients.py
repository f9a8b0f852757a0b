import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import fpklab as F
from conftest import plain_hessian, plain_pi_values, traced_peak_arrays
from fpklab.coefficients import _min_hessian_eigenvalue, log_density_bound
from fpklab.errors import ExpressionError, FpkError, NonFiniteFieldError, PositivityError
from fpklab.grid import gradient_arrays, integrate


def sample(spec, dim=1, n=64):
    grid = F.build_grid(dim, n)
    coeffs, f0 = F.sample_coefficients(spec, grid)
    return grid, coeffs, f0


UNIT = {"D": "1", "phi": "0", "pi": "1", "f0": "1"}


class TestSampling:
    def test_constant_fields(self):
        grid, coeffs, f0 = sample(UNIT)
        assert np.all(coeffs.D.values == 1.0)
        assert np.all(coeffs.phi.values == 0.0)
        assert np.all(f0.values == 1.0)
        assert np.all(coeffs.pi_values(0.0) == 1.0)

    def test_cosine_diffusion_minimum(self):
        # minimum of 2 + cos at x = 0.5 is 1; cell centers straddle it, so
        # the sampled minimum overshoots by (pi h)^2 / 2
        grid, coeffs, _ = sample({**UNIT, "D": "2+cos(2*pi*x1)"})
        assert coeffs.D.min() >= 1.0
        assert coeffs.D.min() == pytest.approx(1.0, abs=1.5e-3)

    def test_negative_mobility_rejected(self):
        with pytest.raises(PositivityError) as err:
            sample({**UNIT, "pi": "-1"})
        assert err.value.name == "pi"

    def test_nonpositive_density_names_cell(self):
        with pytest.raises(PositivityError) as err:
            sample({**UNIT, "f0": "x1 - 0.5"})
        assert err.value.name == "f0"
        assert isinstance(err.value.cell, tuple)

    def test_t_in_spatial_slot_rejected(self):
        with pytest.raises(ExpressionError):
            sample({**UNIT, "D": "1 + 0.1*sin(t)"})

    def test_variable_beyond_dim_rejected(self):
        with pytest.raises(ExpressionError):
            sample({**UNIT, "phi": "cos(2*pi*x2)"})

    def test_f0_renormalized(self):
        _, _, f0 = sample({**UNIT, "f0": "3 + sin(2*pi*x1)"})
        assert integrate(f0) == pytest.approx(1.0, abs=1e-14)

    def test_missing_coefficient(self):
        grid = F.build_grid(1, 16)
        with pytest.raises(ExpressionError):
            F.sample_coefficients({"D": "1", "phi": "0", "pi": "1"}, grid)

    def test_gradients_match_centered_stencil(self):
        grid, coeffs, _ = sample({**UNIT, "D": "2+cos(2*pi*x1)"}, n=128)
        x = grid.axis_centers()
        target = -2 * np.pi * np.sin(2 * np.pi * x)
        assert np.abs(coeffs.grad_D[0] - target).max() <= 0.02

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gradients_held_as_one_read_only_array_each(self, dim):
        # one stacked (n, N, ...) array each, not n separate arrays: how setup allocates
        # sets the heap the RK4 steps reuse, and 2n separate gradient arrays took a warm
        # 32^3 torus_3d run from about 7.4k minor page faults to about 59k
        grid, coeffs, _ = sample({**UNIT, "D": "2 + cos(2*pi*x1)", "phi": f"sin(2*pi*x{dim})"}, dim=dim, n=8)
        for grad, values in ((coeffs.grad_D, coeffs.D.values), (coeffs.grad_phi, coeffs.phi.values)):
            assert type(grad) is np.ndarray and grad.dtype == np.float64 and grad.shape == (dim, *grid.shape)
            assert grad.flags.c_contiguous and grad.flags.owndata and not grad.flags.writeable
            assert np.array_equal(grad, np.stack(gradient_arrays(values, grid.spacing)))

    @pytest.mark.parametrize("name", ["D", "phi", "pi"])
    def test_overflowing_gradient_names_coefficient_and_cell(self, name):
        # finite samples whose centered differences over 2h overflow; pi's is taken by the ledger
        grid = F.build_grid(1, 16)
        with pytest.raises(NonFiniteFieldError, match=rf"gradient of coefficient '{name}' overflows at cell \(\d+,\)"):
            coeffs, f0 = F.sample_coefficients({**UNIT, name: "0.8e308*(1.0001+sin(2*pi*x1))"}, grid)
            F.build_constants_ledger(coeffs, f0, grid)

    def test_time_dependent_pi(self):
        _, coeffs, _ = sample({**UNIT, "pi": "2 + sin(t)"})
        assert coeffs.pi_values(0.0)[0] == pytest.approx(2.0)
        assert coeffs.pi_values(math.pi / 2)[0] == pytest.approx(3.0)
        assert coeffs.pi_t_values(0.0)[0] == pytest.approx(1.0, abs=1e-8)
        assert coeffs.regime == "full"

    def test_static_pi_time_derivative_is_zero(self):
        _, coeffs, _ = sample({**UNIT, "pi": "1.5 + 0.5*cos(2*pi*x1)"})
        assert np.all(coeffs.pi_t_values(0.3) == 0.0)

    def test_sampling_monotonicity_under_refinement(self):
        spec = {**UNIT, "f0": "2 + cos(2*pi*x1) * sin(4*pi*x1)"}
        mins, maxs = [], []
        for n in (32, 64, 128):
            _, _, f0 = sample(spec, n=n)
            mins.append(f0.min())
            maxs.append(f0.max())
        for coarse, fine in zip(mins, mins[1:]):
            assert fine <= coarse + 1e-3
        for coarse, fine in zip(maxs, maxs[1:]):
            assert fine >= coarse - 1e-3


class TestMobilitySamples:
    @pytest.mark.parametrize(
        "pi", ["1.2 + 0.2*cos(2*pi*x1)*sin(2*pi*x2) + 0.1*sin(t)", "2 + min(t, x1)", "1 + x2^t", "3"]
    )
    def test_bitwise_equal_to_plain_sampling(self, pi):
        _, coeffs, _ = sample({**UNIT, "pi": pi}, dim=2, n=8)
        for t in (0.0, 0.3, 0.3, 1.7, 0.3):
            assert coeffs.pi_values(t).tobytes() == plain_pi_values(coeffs, t).tobytes()

    @pytest.mark.parametrize("pi", ["1.5 + 0.5*cos(2*pi*x1)", "2 + sin(t)*x1"])
    def test_read_only(self, pi):
        _, coeffs, _ = sample({**UNIT, "pi": pi})
        for t in (0.5, 0.5):
            with pytest.raises(ValueError):
                coeffs.pi_values(t)[0] = 1.0

    @pytest.mark.parametrize(
        "pi, t, error, message",
        [
            ("1 - t", 1.0, PositivityError, "pi must be strictly positive; got 0.0 at cell (0,)"),
            ("1 - t*x1", 2.0, PositivityError, "pi must be strictly positive; got -0.875 at cell (7,)"),
            ("2 + 0/(x1 - t)", 0.4375, ExpressionError, "coefficient 'pi' is not finite at cell (3,)"),
            ("2 + 1/(x1 - t)", 0.4375, ExpressionError, "coefficient 'pi' is not finite at cell (3,)"),
            ("20 - 1/(x1 - t)", 0.4375, ExpressionError, "coefficient 'pi' is not finite at cell (3,)"),
        ],
    )
    def test_bad_time_raises_and_caches_nothing(self, pi, t, error, message):
        _, coeffs, _ = sample({**UNIT, "pi": pi}, n=8)
        good = coeffs.pi_values(0.0)
        for _ in range(2):
            with pytest.raises(error) as err:
                coeffs.pi_values(t)
            assert str(err.value).startswith(message)
            assert coeffs.__dict__["_pi_last"][0] == 0.0
        with pytest.raises(error) as plain:
            plain_pi_values(coeffs, t)
        assert str(plain.value) == str(err.value)
        assert coeffs.pi_values(0.0) is good


SHIFT_ORACLE = -0.23591435850717948  # quad + brentq on exp(-(cos(2 pi x) - s))


class TestEquilibrium:
    def test_flat_potential(self):
        _, coeffs, _ = sample(UNIT)
        feq, shift = F.compute_equilibrium(coeffs)
        assert shift == 0.0
        assert np.all(feq.values == 1.0)

    @pytest.mark.parametrize("dim, n", [(2, 5), (3, 5), (3, 6)])
    def test_flat_potential_where_cell_volumes_do_not_sum_to_one(self, dim, n):
        _, coeffs, _ = sample(UNIT, dim=dim, n=n)
        feq, shift = F.compute_equilibrium(coeffs)
        assert shift == 0.0
        assert np.all(feq.values == 1.0)

    def test_cosine_shift_against_quadrature_oracle(self):
        _, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=256)
        _, shift = F.compute_equilibrium(coeffs, tol=1e-12)
        assert shift == pytest.approx(SHIFT_ORACLE, abs=1e-8)

    def test_oracle_value_reproducible(self):
        def mass(s):
            val, _ = quad(lambda x: np.exp(-(np.cos(2 * np.pi * x) - s)), 0.0, 1.0, limit=200)
            return val - 1.0

        assert brentq(mass, -1.0, 1.0, xtol=1e-14) == pytest.approx(SHIFT_ORACLE, abs=1e-12)

    def test_mass_residual_within_tol(self):
        _, coeffs, _ = sample({**UNIT, "phi": "0.7*sin(2*pi*x1)", "D": "1.5+0.5*cos(2*pi*x1)"})
        feq, _ = F.compute_equilibrium(coeffs, tol=1e-12)
        assert abs(integrate(feq) - 1.0) <= 1e-12

    def test_shift_bounded_by_potential_sup(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = rng.uniform(-1.0, 1.0, size=2)
            k = rng.integers(1, 4)
            phi = f"({a})*cos(2*pi*{k}*x1) + ({b})*sin(2*pi*x1)"
            grid, coeffs, _ = sample({**UNIT, "phi": phi}, n=128)
            _, shift = F.compute_equilibrium(coeffs)
            phi_sup = np.abs(coeffs.phi.values).max()
            assert abs(shift) <= phi_sup + 1e-12

    def test_two_sided_equilibrium_bounds(self):
        _, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)", "D": "1.25+0.25*cos(2*pi*x1)"})
        feq, _ = F.compute_equilibrium(coeffs)
        phi_sup = np.abs(coeffs.phi.values).max()
        d_min = coeffs.D.min()
        assert feq.min() >= math.exp(-2 * phi_sup / d_min) - 1e-12
        assert feq.max() <= math.exp(2 * phi_sup / d_min) + 1e-12

    def test_tol_must_be_positive(self):
        _, coeffs, _ = sample(UNIT)
        with pytest.raises(ValueError):
            F.compute_equilibrium(coeffs, tol=0.0)

    def test_equilibrium_beyond_float_range_is_an_error(self):
        # exp(1600) overflows inside the bisection; the unit-mass equilibrium has cells at 0
        _, coeffs, _ = sample({**UNIT, "phi": "800*cos(2*pi*x1)"}, n=16)
        with pytest.raises(FpkError, match=r"spans \[0.0, .*phi/D varies by more than the float range"):
            F.compute_equilibrium(coeffs)


class TestConstantsLedger:
    def test_unit_case(self):
        grid, coeffs, f0 = sample(UNIT)
        led = F.build_constants_ledger(coeffs, f0, grid)
        assert led.init_min == led.init_max == 1.0
        assert led.log_f0_sup == 0.0
        assert led.grad_d == 0.0
        assert led.pi_min == led.pi_max == 1.0
        assert led.pi_time == 0.0
        assert led.hess_phi_lower == 0.0
        assert led.d_max_bound == 1.0

    def test_hessian_floor_of_cosine(self):
        grid, coeffs, f0 = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=128)
        led = F.build_constants_ledger(coeffs, f0, grid)
        assert led.hess_phi_lower == pytest.approx(4 * np.pi**2, rel=0.02)

    @pytest.mark.parametrize("dim, n", [(2, 48), (3, 16)])
    def test_hessian_floor_bitwise_equal_to_one_eigvalsh_call(self, dim, n):
        # 2304 cells make 3 blocks, the last one partial; 4096 cells make 4
        phi = "0.3*cos(2*pi*x1)*sin(2*pi*x2) + 0.2*sin(2*pi*x{d})^3 + 0.1*cos(4*pi*(x1 + x{d}))"
        grid, coeffs, _ = sample({**UNIT, "phi": phi.format(d=dim)}, dim=dim, n=n)
        hess = plain_hessian(coeffs.phi.values, grid.spacing)
        one_call = np.linalg.eigvalsh(np.moveaxis(hess.reshape(dim, dim, -1), -1, 0))[:, 0].min()
        assert _min_hessian_eigenvalue(coeffs.phi).hex() == float(one_call).hex()

    def test_hessian_floor_holds_no_whole_hessian(self):
        # 9 Hessian arrays and eigvalsh's copy of them made 15 arrays at 32^3
        grid, coeffs, _ = sample({**UNIT, "phi": "0.2*cos(2*pi*x3)*sin(2*pi*x1)"}, dim=3, n=32)
        _, peak = traced_peak_arrays(lambda: _min_hessian_eigenvalue(coeffs.phi), grid)
        assert peak <= 11

    def test_convex_potential_clamps_to_zero(self):
        # strictly positive curvature everywhere: 2 + cos has Hessian >= ... not convex;
        # use a small-amplitude bump on top of strong convexity via min eigenvalue > 0
        grid, coeffs, f0 = sample({**UNIT, "phi": "0.1*cos(2*pi*x1)^2 + 4*(x1-0.5)^2"}, n=64)
        led = F.build_constants_ledger(coeffs, f0, grid)
        assert led.hess_phi_lower >= 0.0

    def test_log_bound_formula(self):
        assert log_density_bound(1, 0.0, 0.0, 0.5) == 2.0
        grid, coeffs, f0 = sample({**UNIT, "phi": "0.5"})
        led = F.build_constants_ledger(coeffs, f0, grid)
        assert led.phi_sup == 0.5
        assert led.log_f_bound == 2.0
        assert led.feq_shift == pytest.approx(0.5, abs=1e-12)

    def test_ledger_formula_fields_exact(self):
        grid, coeffs, f0 = sample(
            {"D": "2+0.5*cos(2*pi*x1)", "phi": "cos(2*pi*x1)", "pi": "1", "f0": "1+0.1*sin(2*pi*x1)"},
            n=64,
        )
        led = F.build_constants_ledger(coeffs, f0, grid)
        expected = (1 + math.sqrt(1) * led.grad_d) * (led.log_f0_sup + 2 * led.phi_sup) + 2 * led.phi_sup
        assert led.log_f_bound == expected
        assert led.d_max_bound == led.d_min + math.sqrt(1) * led.grad_d
        assert abs(led.feq_shift) <= led.phi_sup

    def test_time_probes_capture_pi_bounds(self):
        grid, coeffs, f0 = sample({**UNIT, "pi": "1 + 0.2*sin(t)"})
        led = F.build_constants_ledger(coeffs, f0, grid, t_probe_count=9, t_horizon=10.0)
        assert led.pi_time == pytest.approx(0.2, rel=1e-3)
        assert led.pi_max > 1.1
        assert led.pi_min < 0.9

    def test_probe_count_validated(self):
        grid, coeffs, f0 = sample(UNIT)
        with pytest.raises(ValueError):
            F.build_constants_ledger(coeffs, f0, grid, t_probe_count=0)

    def test_invalid_hand_built_ledger_rejected(self):
        fields = dict(
            dim=1, init_min=0.0, init_max=1.0, d_min=1.0, pi_min=1.0, pi_max=1.0,
            pi_time=0.0, grad_pi=0.0, grad_d=0.0, hess_phi_lower=0.0, phi_sup=0.0,
            grad_phi_sup=0.0, log_f0_sup=0.0, feq_shift=0.0, log_f_bound=0.0,
            d_max_bound=1.0,
        )
        with pytest.raises(ValueError, match="init_min <= init_max"):
            F.ConstantsLedger(**fields)
        with pytest.raises(ValueError, match="pi_min must not exceed pi_max"):
            F.ConstantsLedger(**{**fields, "init_min": 0.5, "pi_min": 2.0})
