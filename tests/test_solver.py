import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fpklab as F
from conftest import capturing, load_scenario_dict, plain_advance, plain_fluxes, plain_pi_values, plain_rhs_values
from fpklab import cli, diagnostics as dg, solver
from fpklab.errors import (
    FpkError,
    MassConservationError,
    NonFiniteFieldError,
    NonPositiveDensityError,
    PositivityError,
    StiffnessError,
)
from fpklab.coefficients import CoefficientSet
from fpklab.expressions import CoefficientExpr
from fpklab.grid import ScalarField, dot, face_divergence, integrate
from fpklab.solver import SolverConfig, SolverState


SRC = Path(__file__).resolve().parents[1] / "src"


def record_rows(series) -> np.ndarray:
    """Every float field of every record (all but ``terms``), one row per record."""
    return np.array([column for name, column in series.columns.items() if name != "terms"]).T


def sample(spec, dim=1, n=64):
    grid = F.build_grid(dim, n)
    coeffs, f0 = F.sample_coefficients(spec, grid)
    return grid, coeffs, f0


UNIT = {"D": "1", "phi": "0", "pi": "1", "f0": "1"}
HEAT = {"D": "1", "phi": "0", "pi": "1", "f0": "1 + 0.1*sin(2*pi*x1)"}
VARPI = {**HEAT, "D": "1.5+0.25*cos(2*pi*x1)", "pi": "1.2 + 0.2*cos(2*pi*x1) + 0.1*sin(t)"}


def count_pi_values(monkeypatch):
    """Record the time of every CoefficientSet.pi_values call."""
    calls = []
    original = CoefficientSet.pi_values

    def counted(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(CoefficientSet, "pi_values", counted)
    return calls


def count_stable_dt(monkeypatch):
    """Record the time of every solver.stable_dt call."""
    calls = []
    original = solver.stable_dt

    def counted(coeffs, t, cfl_safety):
        calls.append(t)
        return original(coeffs, t, cfl_safety)

    monkeypatch.setattr(solver, "stable_dt", counted)
    return calls


class TestComputeVelocity:
    def test_zero_at_equilibrium(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=128)
        feq, _ = F.compute_equilibrium(coeffs)
        u = F.compute_velocity(feq, coeffs, 0.0)
        assert np.sqrt(dot(u, u)).max() <= 1e-6

    def test_log_gradient_second_order(self):
        def error(n):
            grid, coeffs, f0 = sample(HEAT, n=n)
            u = F.compute_velocity(f0, coeffs, 0.0)
            x = grid.axis_centers()
            f = 1 + 0.1 * np.sin(2 * np.pi * x)
            exact = -0.1 * 2 * np.pi * np.cos(2 * np.pi * x) / f
            return np.abs(u[0] - exact).max()

        e64, e128 = error(64), error(128)
        assert e128 <= 5.0 * (1 / 128) ** 2
        assert e64 / e128 >= 3.0

    def test_doubling_mobility_halves_velocity_exactly(self):
        grid, coeffs1, f0 = sample({**HEAT, "phi": "0.3*cos(2*pi*x1)"})
        _, coeffs2, _ = sample({**HEAT, "phi": "0.3*cos(2*pi*x1)", "pi": "2"})
        u1 = F.compute_velocity(f0, coeffs1, 0.0)
        u2 = F.compute_velocity(f0, coeffs2, 0.0)
        assert np.array_equal(np.stack(u1), 2.0 * np.stack(u2))

    def test_nonpositive_density_rejected(self):
        grid, coeffs, _ = sample(UNIT)
        bad = ScalarField(grid, np.linspace(-0.5, 1.5, grid.cells_per_axis))
        with pytest.raises(NonPositiveDensityError):
            F.compute_velocity(bad, coeffs, 0.0)

    def test_nan_cell_raises_non_finite(self):
        # a NaN cell passes the positivity test, so the velocity's own check must catch it
        grid, coeffs, _ = sample(UNIT)
        values = np.ones(grid.shape)
        values[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            F.compute_velocity(ScalarField._trusted(grid, values), coeffs, 0.0)


class TestRhs:
    @pytest.mark.parametrize("bad", [0.0, -0.5])  # a field cannot hold -inf
    def test_nonpositive_density_rejected(self, bad):
        grid, coeffs, _ = sample(UNIT)
        values = np.ones(grid.shape)
        values[5] = bad
        with pytest.raises(NonPositiveDensityError, match="nonpositive cell"):
            F.rhs(ScalarField(grid, values), coeffs, 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, -math.inf])
    def test_kernel_gives_nan_around_a_nonpositive_stage_cell(self, bad):
        # stages are not checked: the cell and the two cells sharing its faces turn NaN
        grid, coeffs, f0 = sample(HEAT)
        stage = f0.values.copy()
        stage[5] = bad
        with np.errstate(divide="ignore", invalid="ignore"):
            out = solver._rhs_values(stage, coeffs, coeffs.pi_values(0.0))
        assert np.flatnonzero(np.isnan(out)).tolist() == [4, 5, 6]
        assert np.isfinite(np.delete(out, [4, 5, 6])).all()

    def test_vanishes_at_equilibrium(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)", "D": "2+0.5*cos(2*pi*x1)"}, n=128)
        feq, _ = F.compute_equilibrium(coeffs)
        assert np.abs(F.rhs(feq, coeffs, 0.0).values).max() <= 1e-10

    def test_conservation_to_roundoff(self):
        rng = np.random.default_rng(3)
        grid, coeffs, _ = sample({**UNIT, "D": "1.5+0.5*cos(2*pi*x1)", "phi": "sin(2*pi*x1)"})
        for _ in range(10):
            f = ScalarField(grid, 1.0 + 0.5 * rng.random(grid.shape))
            assert abs(integrate(F.rhs(f, coeffs, 0.0))) <= 1e-13

    def test_linearized_heat_matches_laplacian(self):
        grid, coeffs, _ = sample(UNIT, n=128)
        x = grid.axis_centers()
        f = ScalarField(grid, 1.0 + 0.01 * np.sin(2 * np.pi * x))
        r = F.rhs(f, coeffs, 0.0)
        h = grid.spacing
        lap = (np.roll(f.values, -1) - 2 * f.values + np.roll(f.values, 1)) / h**2
        scale = np.abs(lap).max()
        assert np.abs(r.values - lap).max() <= 0.01 * scale
        exact = -((2 * np.pi) ** 2) * 0.01 * np.sin(2 * np.pi * x)
        assert np.abs(r.values - exact).max() <= 0.01 * np.abs(exact).max()

    def test_is_face_divergence_of_harmonic_mean_fluxes(self):
        spec = {
            "D": "1.5+0.5*cos(2*pi*x1)",
            "phi": "sin(2*pi*x2)",
            "pi": "1 + 0.5*sin(2*pi*(x1 + t))",
            "f0": "1 + 0.3*cos(2*pi*x1)*sin(2*pi*x2)",
        }
        grid, coeffs, f0 = sample(spec, dim=2, n=16)
        t, h = 0.3, grid.spacing
        psi = coeffs.D.values * np.log(f0.values) + coeffs.phi.values
        m = f0.values / coeffs.pi_values(t)
        fluxes = []
        for k in range(grid.dim):
            m_b = np.roll(m, -1, axis=k)
            fluxes.append(2.0 * m * m_b / (m + m_b) * (np.roll(psi, -1, axis=k) - psi) / h)
        assert np.array_equal(F.rhs(f0, coeffs, t).values, face_divergence(grid, fluxes).values)


class TestStableDt:
    def test_formula_value(self):
        grid, coeffs, f0 = sample(UNIT)
        assert F.stable_dt(coeffs, 0.0, 0.5) == pytest.approx(6.103515625e-05, rel=1e-12)

    def test_doubling_diffusion_halves_dt(self):
        grid, coeffs, f0 = sample(UNIT)
        _, coeffs2, _ = sample({**UNIT, "D": "2"})
        assert F.stable_dt(coeffs2, 0.0, 0.5) == F.stable_dt(coeffs, 0.0, 0.5) / 2.0

    def test_safety_range_enforced(self):
        grid, coeffs, f0 = sample(UNIT)
        with pytest.raises(ValueError):
            F.stable_dt(coeffs, 0.0, 0.0)
        with pytest.raises(ValueError):
            F.stable_dt(coeffs, 0.0, 1.5)

    @pytest.mark.parametrize(
        "spec, safety, ratio, dt",
        [({**UNIT, "D": "1e-200", "pi": "1e200"}, 0.4, "0.0", "inf"), (UNIT, 5e-324, "1.0", "0.0")],
        ids=["d_over_pi_underflows", "step_underflows"],
    )
    def test_step_not_positive_and_finite_is_an_error(self, spec, safety, ratio, dt):
        grid, coeffs, f0 = sample(spec)
        with pytest.raises(FpkError) as err:
            F.stable_dt(coeffs, 0.0, safety)
        assert str(err.value) == (
            f"max D/pi is {ratio} at t = 0.0; with cfl_safety {safety!r} the stable time step"
            f" is {dt}, not positive and finite"
        )


class TestStep:
    def test_uniform_density_is_fixed_point(self):
        grid, coeffs, f0 = sample(UNIT)
        config = SolverConfig(t_end=1.0, integrator="explicit-euler")
        state = SolverState(f=f0, t=0.0, step_index=0)
        new = F.step(state, coeffs, 1e-4, config)
        assert np.array_equal(new.f.values, f0.values)
        assert new.t == pytest.approx(1e-4)
        assert new.step_index == 1

    def test_mass_preserved_along_steps(self):
        grid, coeffs, f0 = sample({**HEAT, "D": "1.5+0.5*cos(2*pi*x1)", "phi": "0.5*sin(2*pi*x1)"})
        config = SolverConfig(t_end=1.0)
        state = SolverState(f=f0, t=0.0, step_index=0)
        dt = F.stable_dt(coeffs, 0.0, 0.4)
        for _ in range(50):
            state = F.step(state, coeffs, dt, config)
            assert abs(integrate(state.f) - 1.0) <= 1e-12

    def test_heat_mode_decay_amplitude(self):
        grid, coeffs, f0 = sample(HEAT, n=64)
        config = SolverConfig(t_end=0.01, cfl_safety=0.4, record_every=1000)
        snaps = []
        F.run(f0, coeffs, config, capturing(dg.make_batch_recorder(coeffs), snaps))
        amp = np.abs(snaps[-1].f.values - 1.0).max()
        target = 0.1 * np.exp(-4 * np.pi**2 * 0.01)
        assert amp == pytest.approx(target, rel=0.02)

    def test_ten_rejections_raise_stiffness_error(self):
        grid, coeffs, f0 = sample(HEAT)
        config = SolverConfig(t_end=1.0, positivity_floor=2.0)  # unreachable floor
        state = SolverState(f=f0, t=0.0, step_index=0)
        with pytest.raises(StiffnessError) as err:
            F.step(state, coeffs, 1e-5, config)
        assert err.value.dump["positivity_floor"] == 2.0
        assert err.value.dump["last_dt"] == 1e-5 / 2**9

    # at these dt the RK4 stages go nonpositive; the halvings and the sha256 of
    # the new state are those the solver gave when a stage check raised instead
    @pytest.mark.parametrize(
        "integrator, multiple, halvings, digest",
        [
            ("rk4", 400, 3, "b4d03dde0f2840f4d6f9f0c2386bc53c0c38b1c19af539a415c05cada56cbaf8"),
            ("rk4", 4000, 6, "478f11c45570e2f925fbd7ae6c9e0c104b967761dfe0c85dfcc5070f406f7bb4"),
            ("explicit-euler", 400, 0, "873b3749be2c4cfc73e259f2b455e490e0b04bdb4ca0c862ad680d3dc1dc9b9e"),
            ("explicit-euler", 4000, 2, "0662db3e969c8aa4cb0f70baf07ce8ef5b52a3868fa5a804f17f21e5ac7eff57"),
        ],
    )
    def test_nonpositive_stages_rejected_by_the_floor_test(self, integrator, multiple, halvings, digest):
        grid, coeffs, f0 = sample({**HEAT, "f0": "1 + 0.9*sin(2*pi*x1)"})
        dt = multiple * F.stable_dt(coeffs, 0.0, 0.4)
        config = SolverConfig(t_end=1.0, integrator=integrator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = F.step(SolverState(f0, 0.0, 0), coeffs, dt, config)
        assert new.t == dt / 2**halvings
        assert hashlib.sha256(new.f.values.tobytes()).hexdigest() == digest

    def test_density_at_a_positive_floor_is_rejected(self, monkeypatch):
        grid, coeffs, f0 = sample(UNIT)
        at_floor = np.ones(grid.shape)
        at_floor[:2] = (0.5, 1.5)  # unit mass, minimum exactly the floor
        monkeypatch.setattr(solver, "_advance", lambda *args: at_floor.copy())
        config = SolverConfig(t_end=1.0, positivity_floor=0.5)
        with pytest.raises(StiffnessError) as err:
            F.step(SolverState(f0, 0.0, 0), coeffs, 1e-5, config)
        assert err.value.dump["min_new_value"] == 0.5

    @pytest.mark.parametrize("stage", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_stage_result_never_accepted(self, monkeypatch, bad, stage):
        grid, coeffs, f0 = sample(HEAT)
        original = solver._rhs_values
        calls = itertools.count()

        def corrupted(*args):  # the RK4 stage `stage` of every attempt gets a bad cell
            out = original(*args)
            if next(calls) % 4 == stage:
                out[5] = bad
            return out

        monkeypatch.setattr(solver, "_rhs_values", corrupted)
        with np.errstate(all="ignore"), pytest.raises(FpkError):
            F.step(SolverState(f0, 0.0, 0), coeffs, 1e-5, SolverConfig(t_end=1.0))

    def test_one_mobility_sample_per_rk4_step(self, monkeypatch):
        grid, coeffs, f0 = sample(VARPI)
        calls = count_pi_values(monkeypatch)
        state = SolverState(f=f0, t=0.0, step_index=0)
        for _ in range(3):
            start = state.t
            calls.clear()
            state = F.step(state, coeffs, 1e-5, SolverConfig(t_end=1.0))
            assert calls == [start]

    def test_one_mobility_sample_across_rejections(self, monkeypatch):
        grid, coeffs, f0 = sample(VARPI)
        calls = count_pi_values(monkeypatch)
        config = SolverConfig(t_end=1.0, positivity_floor=2.0)  # unreachable floor
        with pytest.raises(StiffnessError):
            F.step(SolverState(f=f0, t=0.0, step_index=0), coeffs, 1e-5, config)
        assert calls == [0.0]

    def test_new_state_is_read_only_c_contiguous_float64(self):
        grid, coeffs, f0 = sample(VARPI)
        new = F.step(SolverState(f0, 0.0, 0), coeffs, 1e-5, SolverConfig(t_end=1.0))
        values = new.f.values
        assert values.shape == grid.shape and values.dtype == np.float64
        assert values.flags.c_contiguous and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0

    def test_dt_must_be_positive(self):
        grid, coeffs, f0 = sample(UNIT)
        with pytest.raises(ValueError):
            F.step(SolverState(f0, 0.0, 0), coeffs, 0.0, SolverConfig(t_end=1.0))
        for bad in (math.nan, math.inf, -1e-5):
            with pytest.raises(ValueError, match="positive and finite"):
                F.step(SolverState(f0, 0.0, 0), coeffs, bad, SolverConfig(t_end=1.0))


def kernel_spec(dim, uses_t, f0_amplitude=0.3):
    """Coefficients varying along the first and the last axis, pi with or without t."""
    last = f"x{dim}"
    return {
        "D": "1.5+0.25*cos(2*pi*x1)",
        "phi": f"0.3*sin(2*pi*x1) + 0.2*cos(2*pi*{last})",
        "pi": "1.2 + 0.2*cos(2*pi*x1)" + (" + 0.1*sin(40*t)" if uses_t else ""),
        "f0": f"1 + {f0_amplitude}*sin(2*pi*x1)*cos(2*pi*{last})",
    }


KERNEL_GRIDS = [(1, 4), (1, 5), (1, 64), (1, 128), (2, 12), (3, 8)]


class TestWholeGridReductions:
    """Each per-step reduction covers every cell of a 2-D or 3-D grid: numpy's ufunc
    reduce defaults to axis 0, which would leave a row or plane, so each passes axis=None."""

    @staticmethod
    def off_row_zero(dim, n):
        """Two cells outside axis-0 row 0."""
        return (1,) + (n - 1,) * (dim - 1), (n - 1,) + (1,) * (dim - 1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_floor_cell_outside_row_zero_rejected(self, monkeypatch, dim):
        n = 4
        grid, coeffs, f0 = sample(UNIT, dim=dim, n=n)
        low, high = self.off_row_zero(dim, n)
        at_floor = np.ones(grid.shape)
        at_floor[low], at_floor[high] = 0.5, 1.5  # unit mass, minimum exactly the floor
        monkeypatch.setattr(solver, "_advance", lambda *args: at_floor.copy())
        with pytest.raises(StiffnessError) as err:
            F.step(SolverState(f0, 0.0, 0), coeffs, 1e-5, SolverConfig(t_end=1.0, positivity_floor=0.5))
        assert err.value.dump["min_new_value"] == 0.5

    @pytest.mark.parametrize("dim", [2, 3])
    def test_mobility_nonpositive_outside_row_zero_raises_the_cell_error(self, dim):
        _, coeffs, _ = sample({**UNIT, "pi": "1 - t*x1"}, dim=dim, n=4)  # x1 >= 1/2 at t = 2
        with pytest.raises(PositivityError) as err:
            coeffs.pi_values(2.0)
        with pytest.raises(PositivityError) as plain:
            plain_pi_values(coeffs, 2.0)
        assert str(err.value) == str(plain.value)
        assert err.value.cell[0] == 3  # the least sample, in the last row

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stable_dt_max_outside_row_zero(self, dim):
        grid, coeffs, _ = sample({**VARPI, "D": "1 + x1 + 0.1*x2"}, dim=dim, n=8)
        t = 0.3
        ratio = coeffs.D.values / coeffs.pi_values(t)
        assert np.unravel_index(int(np.argmax(ratio)), grid.shape)[0] != 0
        plain = 0.4 * grid.spacing**2 / (2.0 * dim * float(ratio.max()))
        assert F.stable_dt(coeffs, t, 0.4) == plain

    @pytest.mark.parametrize("dim", [2, 3])
    def test_integrate_is_the_whole_sum(self, dim):
        grid = F.build_grid(dim, 8)
        values = np.random.default_rng(dim).standard_normal(grid.shape)
        assert integrate(ScalarField(grid, values)).hex() == (grid.cell_volume * values.sum()).hex()


class TestInPlaceKernel:
    """The in-place RHS and step are bitwise the plain expressions, and only read their inputs."""

    @pytest.mark.parametrize("uses_t", [False, True])
    @pytest.mark.parametrize("dim, n", KERNEL_GRIDS)
    def test_rhs_bitwise_equal_to_plain_expressions(self, dim, n, uses_t):
        grid, coeffs, f0 = sample(kernel_spec(dim, uses_t), dim=dim, n=n)
        pi = coeffs.pi_values(0.3)
        assert solver._rhs_values(f0.values, coeffs, pi).tobytes() == plain_rhs_values(f0.values, coeffs, pi).tobytes()

    @pytest.mark.parametrize("integrator", solver.INTEGRATORS)
    @pytest.mark.parametrize("uses_t", [False, True])
    @pytest.mark.parametrize("dim, n", KERNEL_GRIDS)
    def test_steps_bitwise_equal_to_plain_expressions(self, monkeypatch, dim, n, uses_t, integrator):
        grid, coeffs, f0 = sample(kernel_spec(dim, uses_t), dim=dim, n=n)
        config = SolverConfig(t_end=1.0, integrator=integrator)
        dt = F.stable_dt(coeffs, 0.0, 0.4)

        def march():
            state, states = SolverState(f0, 0.0, 0), []
            for _ in range(20):
                state = F.step(state, coeffs, dt, config)
                states.append((state.t, state.f.values.tobytes()))
            return states

        kernel = march()
        monkeypatch.setattr(solver, "_advance", plain_advance)
        assert kernel == march()

    @pytest.mark.parametrize("dim, n", KERNEL_GRIDS)
    def test_nonpositive_stage_bitwise_equal_to_plain_expressions(self, dim, n):
        grid, coeffs, f0 = sample(kernel_spec(dim, False, f0_amplitude=0.9), dim=dim, n=n)
        pi = coeffs.pi_values(0.0)
        # stable_dt falls as h^2, so past 64 cells the same overshooting dt is more stable steps
        dt = 400 * max(1.0, n / 64) ** 2 * F.stable_dt(coeffs, 0.0, 0.4)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = solver._advance(f0.values, coeffs, pi, dt, "rk4")
            plain = plain_advance(f0.values, coeffs, pi, dt, "rk4")
        assert np.isnan(kernel).any()
        assert kernel.tobytes() == plain.tobytes()

    def test_one_axis_operands_are_read_only(self):
        for n in (4, 5, 64):
            scale, east, west_rows = solver._axis_operands(n)
            cells = np.arange(n)
            assert scale.shape == () and scale == n * n
            assert east(cells).tolist() == ((cells + 1) % n).tolist()
            assert west_rows.tolist() == ((cells - 1) % n).tolist()
            (east_rows,) = east.__reduce__()[1]  # the rows the east fetch indexes through
            for operand in (solver._TWO, scale, east_rows, west_rows):
                with pytest.raises(ValueError, match="read-only"):
                    operand[...] = 0

    def test_one_axis_operands_follow_the_grid(self):
        # calls alternating between grids and coefficient sets each match the plain RHS,
        # so an operand cached for one grid is never applied to another
        cases = []
        for n, d in [(64, "1.5+0.25*cos(2*pi*x1)"), (128, "0.5+0.25*sin(2*pi*x1)")]:
            grid, coeffs, f0 = sample({**kernel_spec(1, True), "D": d}, n=n)
            cases.append((f0.values, coeffs, coeffs.pi_values(0.3)))
        for f_values, coeffs, pi in cases * 3:
            assert solver._rhs_values(f_values, coeffs, pi).tobytes() == plain_rhs_values(f_values, coeffs, pi).tobytes()

    @pytest.mark.parametrize("integrator", solver.INTEGRATORS)
    @pytest.mark.parametrize("dim, n", KERNEL_GRIDS)
    def test_advance_only_reads_its_inputs(self, dim, n, integrator):
        grid, coeffs, f0 = sample(kernel_spec(dim, True), dim=dim, n=n)
        f_values, pi = f0.values.copy(), coeffs.pi_values(0.0).copy()  # writable
        inputs = (f_values, pi, coeffs.D.values, coeffs.phi.values)
        before = [a.tobytes() for a in inputs]
        out = solver._advance(f_values, coeffs, pi, F.stable_dt(coeffs, 0.0, 0.4), integrator)
        assert [a.tobytes() for a in inputs] == before
        assert not any(np.shares_memory(out, a) for a in inputs)


class CountingArray(np.ndarray):
    """An ndarray that logs each ufunc applied to it and each indexing of it in ``log``."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountingArray.log.append(ufunc.__name__)

        def plain(arrays):
            return tuple(a.view(np.ndarray) if isinstance(a, CountingArray) else a for a in arrays)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs).view(CountingArray)

    def __getitem__(self, index):
        CountingArray.log.append("index")
        return super().__getitem__(index)


@pytest.mark.parametrize("dim, calls, divisions", [(1, 15, 2), (3, None, 4)])
def test_rhs_numpy_calls_and_divisions(monkeypatch, dim, calls, divisions):
    # the solver docstring's counts: the one-axis body is 15 whole-array calls, and a call
    # divides for f/pi and each axis's harmonic mean only, the 1/h^2 being one product
    grid, coeffs, f0 = sample(kernel_spec(dim, True), dim=dim, n=8)
    monkeypatch.setattr(CountingArray, "log", [])
    solver._rhs_values(f0.values.view(CountingArray), coeffs, coeffs.pi_values(0.3))
    assert calls is None or len(CountingArray.log) == calls, CountingArray.log
    assert CountingArray.log.count("divide") == divisions, CountingArray.log


@pytest.mark.parametrize("dim, n", [(1, 8), (2, 6), (3, 4)])
def test_rhs_forms_each_axis_flux_through_face_flux(monkeypatch, dim, n):
    # one harmonic-mean face flux: every right-hand side calls solver._face_flux once per
    # axis, k-th call for axis k, and each returns that axis's plain flux
    grid, coeffs, f0 = sample(kernel_spec(dim, True), dim=dim, n=n)
    pi = coeffs.pi_values(0.3)
    fluxes, face_flux = [], solver._face_flux

    def spy(*args):
        fluxes.append(face_flux(*args))
        return fluxes[-1]

    monkeypatch.setattr(solver, "_face_flux", spy)
    solver._rhs_values(f0.values, coeffs, pi)
    assert [flux.tobytes() for flux in fluxes] == [flux.tobytes() for flux in plain_fluxes(f0.values, coeffs, pi)]


def test_one_potential(monkeypatch):
    # psi = D log f + phi is formed in solver._potential alone: the right-hand side and
    # compute_velocity call it, and the recorder's velocity pass imports it
    assert dg._potential is solver._potential
    grid, coeffs, f0 = sample(kernel_spec(2, True), dim=2, n=6)
    calls, potential = [], solver._potential

    def spy(log_f, coeffs):
        calls.append(log_f.shape)
        return potential(log_f, coeffs)

    monkeypatch.setattr(solver, "_potential", spy)
    F.rhs(f0, coeffs, 0.3)
    F.compute_velocity(f0, coeffs, 0.3)
    assert calls == [grid.shape, grid.shape]


def two_division_rhs(f_values, coeffs, pi):
    """The right-hand side with 1/h applied twice: each flux divided by h, then the divergence by h."""
    h = coeffs.grid.spacing
    fluxes = [flux / h for flux in plain_fluxes(f_values, coeffs, pi)]
    acc = fluxes[0] - np.roll(fluxes[0], 1, 0)
    for k in range(1, len(fluxes)):
        acc += fluxes[k] - np.roll(fluxes[k], 1, k)
    acc /= h
    return acc


class TestSpacingFold:
    """The kernel scales the unscaled face divergence once by N^2 instead of dividing by h twice."""

    @pytest.mark.parametrize(
        "dim, n", [(1, n) for n in (4, 8, 16, 32, 64, 128)] + [(d, n) for d in (2, 3) for n in (4, 8, 16, 32)]
    )
    def test_bitwise_the_two_divisions_when_n_is_a_power_of_two(self, dim, n):
        # h = 2^-k, so dividing by h twice scales by the same power of two as multiplying by N^2
        grid, coeffs, f0 = sample(kernel_spec(dim, True), dim=dim, n=n)
        pi = coeffs.pi_values(0.3)
        assert solver._rhs_values(f0.values, coeffs, pi).tobytes() == two_division_rhs(f0.values, coeffs, pi).tobytes()

    @pytest.mark.parametrize("n", [5, 12, 48])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_within_a_few_ulps_of_the_two_divisions_otherwise(self, dim, n):
        # to first order the two-division form rounds F/h (with h itself rounded), the difference,
        # dim - 1 sums and the last /h, at most (dim + 4) u of S = sum_k (|F_k| + |F_k,west|) N^2;
        # the fold rounds the difference, the sums and the product, (dim + 1) u; u = eps / 2
        grid, coeffs, f0 = sample(kernel_spec(dim, True), dim=dim, n=n)
        pi = coeffs.pi_values(0.3)
        kernel = solver._rhs_values(f0.values, coeffs, pi)
        fluxes = plain_fluxes(f0.values, coeffs, pi)
        size = sum(np.abs(flux) + np.abs(np.roll(flux, 1, k)) for k, flux in enumerate(fluxes)) * n * n
        gap = np.abs(kernel - two_division_rhs(f0.values, coeffs, pi))
        assert gap.max() > 0.0
        assert np.all(gap <= (dim + 3) * np.finfo(float).eps * size)


class TestComplexStep:
    """The right-hand side carries a complex input through, so Im RHS(f + i eps v) / eps is its
    directional derivative: each shift and in-place buffer keeps the input's dtype."""

    @pytest.mark.parametrize("dim, n", [(1, 5), (1, 64), (2, 48), (3, 8)])
    def test_matches_central_differences(self, dim, n):
        grid, coeffs, f0 = sample(kernel_spec(dim, True), dim=dim, n=n)
        pi = coeffs.pi_values(0.3)
        v = np.random.default_rng(n).standard_normal(grid.shape)
        jvp = solver._rhs_values(f0.values + 1e-30j * v, coeffs, pi).imag / 1e-30
        step = 1e-6
        ahead, behind = (solver._rhs_values(f0.values + sign * step * v, coeffs, pi) for sign in (1, -1))
        central = (ahead - behind) / (2 * step)
        assert np.abs(jvp - central).max() <= 1e-9 * np.abs(jvp).max()


def test_run_does_not_import_diagnostics():
    # solver.run assembles its TimeSeries without the diagnostics module
    code = (
        "import sys\n"
        "import fpklab as F\n"
        "grid = F.build_grid(1, 16)\n"
        "coeffs, f0 = F.sample_coefficients({'D': '1', 'phi': '0', 'pi': '1', 'f0': '1'}, grid)\n"
        "recorder = lambda states, pis: {'t': [state.t for state in states]}\n"
        "series = F.run(f0, coeffs, F.SolverConfig(t_end=1e-3, record_every=2), recorder)\n"
        "assert series.accepted_steps > 0 and len(series) > 1\n"
        "assert 'fpklab.diagnostics' not in sys.modules, 'solver imported diagnostics'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestRun:
    def test_nonpositive_initial_cell_raises(self):
        grid, coeffs, f0 = sample(HEAT)
        values = f0.values.copy()
        values[3] = 0.0
        with pytest.raises(NonPositiveDensityError) as err:
            F.run(ScalarField._trusted(grid, values), coeffs, SolverConfig(t_end=1e-3), dg.make_batch_recorder(coeffs))
        assert str(err.value) == "initial density must be strictly positive"

    def test_zero_horizon_yields_initial_record_only(self):
        grid, coeffs, f0 = sample(HEAT)
        series = F.run(f0, coeffs, SolverConfig(t_end=0.0), dg.make_batch_recorder(coeffs))
        assert len(series) == 1
        assert series.columns["t"][0] == 0.0

    def test_equilibrium_start_keeps_energy_constant(self):
        grid, coeffs, _ = sample({**UNIT, "phi": "cos(2*pi*x1)"}, n=64)
        feq, _ = F.compute_equilibrium(coeffs)
        series = F.run(feq, coeffs, SolverConfig(t_end=0.005, record_every=10), dg.make_batch_recorder(coeffs))
        fe = series.column("free_energy")
        assert fe.max() - fe.min() <= 1e-10
        assert series.column("dissipation").max() <= 1e-12

    def test_free_energy_nonincreasing(self, heat_run_64):
        fe = heat_run_64["series"].column("free_energy")
        assert np.diff(fe).max() <= 1e-10

    def test_record_count_formula(self):
        grid, coeffs, f0 = sample(HEAT, n=32)
        config = SolverConfig(t_end=0.002, cfl_safety=0.4, record_every=7)
        series = F.run(f0, coeffs, config, dg.make_batch_recorder(coeffs))
        accepted = series.accepted_steps
        expected = 1 + accepted // 7 + (1 if accepted % 7 else 0)
        assert len(series) == expected

    def test_max_steps_caps_run(self):
        grid, coeffs, f0 = sample(HEAT, n=32)
        series = F.run(f0, coeffs, SolverConfig(t_end=10.0, max_steps=5), dg.make_batch_recorder(coeffs))
        assert series.accepted_steps == 5

    def test_requires_normalized_positive_start(self):
        grid, coeffs, f0 = sample(HEAT)
        doubled = ScalarField(grid, 2.0 * f0.values)
        with pytest.raises(FpkError):
            F.run(doubled, coeffs, SolverConfig(t_end=0.001), dg.make_batch_recorder(coeffs))

    def test_self_convergence_second_order(self):
        spec = {"D": "1", "phi": "0.5*cos(2*pi*x1)", "pi": "1", "f0": "1 + 0.1*sin(2*pi*x1)"}
        finals = {}
        for n in (32, 64, 128):
            grid, coeffs, f0 = sample(spec, n=n)
            snaps = []
            F.run(
                f0,
                coeffs,
                SolverConfig(t_end=0.01, cfl_safety=0.4, record_every=10**6),
                capturing(dg.make_batch_recorder(coeffs), snaps),
            )
            finals[n] = snaps[-1].f.values

        def restrict(fine):
            # average neighbor pairs: second-order restriction onto the coarse centers
            return 0.5 * (fine[0::2] + fine[1::2])

        e1 = np.abs(restrict(finals[64]) - finals[32]).max()
        e2 = np.abs(restrict(finals[128]) - finals[64]).max()
        assert np.log2(e1 / e2) >= 1.9


    def test_nan_mass_fails_closed(self, monkeypatch):
        grid, coeffs, f0 = sample(HEAT)
        monkeypatch.setattr(solver, "integrate", lambda field: math.nan)
        with pytest.raises(MassConservationError):
            F.step(SolverState(f0, 0.0, 0), coeffs, 1e-5, SolverConfig(t_end=1.0))
        with pytest.raises(FpkError, match="unit mass"):
            F.run(f0, coeffs, SolverConfig(t_end=1e-4), dg.make_batch_recorder(coeffs))


class TestRecordErrorOrder:
    """run holds recorded states until a batch is full, yet raises the first failure in trajectory order."""

    @staticmethod
    def _failing_steps(monkeypatch, grid, nan_at, raise_at):
        """solver.step, but the state of step ``nan_at`` has a NaN cell and step ``raise_at`` raises."""
        real_step, taken = solver.step, []

        def step(state, coeffs, dt, config):
            taken.append(state.step_index)
            if state.step_index + 1 == raise_at:
                raise StiffnessError("stepped past a failing record", {})
            new = real_step(state, coeffs, dt, config)
            if new.step_index == nan_at:
                values = new.f.values.copy()
                values[3] = math.nan
                new = SolverState(ScalarField._trusted(grid, values), new.t, new.step_index)
            return new

        monkeypatch.setattr(solver, "step", step)
        return taken

    def test_pending_record_error_raised_before_a_step_error(self, monkeypatch):
        grid, coeffs, f0 = sample(HEAT, n=64)
        assert solver.BATCH_CELLS // grid.cell_count > 3  # step 2's record is still held at step 3
        taken = self._failing_steps(monkeypatch, grid, nan_at=2, raise_at=3)
        with pytest.raises(NonFiniteFieldError, match="velocity has a NaN"):
            F.run(f0, coeffs, SolverConfig(t_end=1.0, record_every=1), dg.make_batch_recorder(coeffs))
        assert taken == [0, 1, 2]

    def test_step_error_raised_when_the_held_records_pass(self, monkeypatch):
        grid, coeffs, f0 = sample(HEAT, n=64)
        self._failing_steps(monkeypatch, grid, nan_at=None, raise_at=3)
        with pytest.raises(StiffnessError, match="stepped past"):
            F.run(f0, coeffs, SolverConfig(t_end=1.0, record_every=1), dg.make_batch_recorder(coeffs))

    def test_initial_record_fails_before_the_first_step(self, monkeypatch):
        # finite u (about 1e200) whose square overflows: the initial record raises at once
        grid, coeffs, f0 = sample({**HEAT, "phi": "1e200*sin(2*pi*x1)"}, n=64)
        taken = self._failing_steps(monkeypatch, grid, nan_at=None, raise_at=None)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteFieldError):
            F.run(f0, coeffs, SolverConfig(t_end=1.0, record_every=1), dg.make_batch_recorder(coeffs))
        assert taken == []


class TestStepSize:
    """stable_dt is sized once per run when pi does not use t, else once per step."""

    STATIC_PI = {**VARPI, "pi": "1.2 + 0.2*cos(2*pi*x1)"}

    @pytest.mark.parametrize("uses_t", [False, True])
    def test_calls_per_run(self, monkeypatch, uses_t):
        grid, coeffs, f0 = sample(VARPI if uses_t else self.STATIC_PI, n=32)
        calls = count_stable_dt(monkeypatch)
        series = F.run(f0, coeffs, SolverConfig(t_end=0.002), dg.make_batch_recorder(coeffs))
        steps = series.accepted_steps
        assert steps > 1
        assert len(calls) == (steps if uses_t else 1)

    def test_run_bitwise_equal_to_per_step_dt(self, monkeypatch):
        grid, coeffs, f0 = sample(self.STATIC_PI, n=32)
        config = SolverConfig(t_end=0.002, record_every=3)

        def run():
            snaps = []
            series = F.run(f0, coeffs, config, capturing(dg.make_batch_recorder(coeffs), snaps))
            return record_rows(series).tobytes(), [s.f.values.tobytes() for s in snaps], series.accepted_steps

        hoisted = run()
        calls = count_stable_dt(monkeypatch)
        # a mobility claiming to use t makes run size dt at every step
        monkeypatch.setattr(CoefficientExpr, "uses_t", property(lambda self: True))
        per_step = run()
        assert len(calls) == per_step[2] > 1
        assert hoisted == per_step


class TestMobilitySampling:
    """variable_pi_1d: one evaluation of pi's t-dependent part per distinct time."""

    def test_one_evaluation_per_distinct_time(self, monkeypatch):
        scenario = cli.build_scenario(load_scenario_dict("variable_pi_1d"))
        grid, coeffs, f0, _, _ = cli._setup(scenario)
        evaluated = []
        at = coeffs.pi_bound  # the binding made at sampling

        def counted(t):
            evaluated.append(t)
            return at(t)

        coeffs = dataclasses.replace(coeffs, pi_bound=counted)
        calls = count_pi_values(monkeypatch)
        F.run(f0, coeffs, scenario.solver, dg.make_batch_recorder(coeffs))
        assert evaluated == sorted(set(calls))
        assert len(calls) > 2 * len(evaluated)

    def test_pi_evaluated_only_through_its_binding(self, monkeypatch):
        scenario = cli.build_scenario(load_scenario_dict("variable_pi_1d"))
        sources = []
        evaluate = CoefficientExpr.evaluate

        def spied(self, env):
            sources.append(self.source)
            return evaluate(self, env)

        monkeypatch.setattr(CoefficientExpr, "evaluate", spied)
        grid, coeffs, f0, _, shift = cli._setup(scenario)
        cli.build_constants_ledger(coeffs, f0, grid, t_probe_count=cli.T_PROBE_COUNT, feq_shift=shift)
        F.run(f0, coeffs, scenario.solver, dg.make_batch_recorder(coeffs, config=scenario.solver))
        assert sources == [scenario.coefficients[name] for name in ("D", "phi", "f0")]

    def test_run_bitwise_equal_to_uncached_sampling(self, monkeypatch):
        scenario = cli.build_scenario(load_scenario_dict("variable_pi_1d"))

        series, report = cli.run_scenario_data(scenario)
        monkeypatch.setattr(CoefficientSet, "pi_values", plain_pi_values)
        plain_series, plain_report = cli.run_scenario_data(scenario)
        assert record_rows(series).tobytes() == record_rows(plain_series).tobytes()
        assert series.accepted_steps == plain_series.accepted_steps
        assert repr(report) == repr(plain_report)


class TestTemporalOrder:
    """step freezes pi at the step's start, so RK4 is first order in dt when pi uses t
    (the solver docstring's claim).  Errors are max-norm at t = 0.02 on 64 cells,
    against the same scheme at a small cfl.  Sampling pi at the stage times (ROADMAP
    item 6) makes RK4 fourth order for every pi and re-pins the t-dependent case."""

    T_END = 0.02

    def final_values(self, uses_t, cfl):
        pi = "1.2 + 0.2*cos(2*pi*x1)" + (" + 0.5*sin(40*t)" if uses_t else "")
        spec = {"D": "1.5+0.25*cos(2*pi*x1)", "phi": "0.3*sin(2*pi*x1)", "pi": pi, "f0": "1 + 0.3*sin(2*pi*x1)"}
        grid, coeffs, f0 = sample(spec)
        steps = math.ceil(self.T_END / F.stable_dt(coeffs, 0.0, cfl))  # equal steps ending at T_END
        state, config = SolverState(f0, 0.0, 0), SolverConfig(t_end=self.T_END)
        for _ in range(steps):
            state = F.step(state, coeffs, self.T_END / steps, config)
        return state.f.values

    def errors(self, uses_t, cfls, reference_cfl):
        reference = self.final_values(uses_t, reference_cfl)
        return [float(np.abs(self.final_values(uses_t, cfl) - reference).max()) for cfl in cfls]

    def test_time_free_mobility_error_is_round_off(self):
        (error,) = self.errors(False, [0.4], reference_cfl=0.05)  # fourth order: 0.05 is plenty
        assert error <= 1e-12

    def test_time_dependent_mobility_is_first_order(self):
        errors = self.errors(True, [0.4, 0.2, 0.1], reference_cfl=0.4 / 64)
        coarse, fine = errors[1:]
        assert 1.8 <= coarse / fine <= 2.2, (coarse, fine)
        assert [float(f"{error:.1e}") for error in errors] == [5.1e-5, 2.5e-5, 1.2e-5]  # the solver docstring's


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, cfl_safety=0.0)
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, integrator="imex")
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, max_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, positivity_floor=math.inf)
