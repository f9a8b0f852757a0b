from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpklab
from conftest import plain_hessian
from fpklab.errors import (
    FpkError,
    GridTooCoarseError,
    NonFiniteFieldError,
    ShapeError,
    UnsupportedDimensionError,
)
from fpklab.grid import (
    ScalarField,
    build_grid,
    centered_hessian,
    face_divergence,
    face_divergence_arrays,
    gradient_arrays,
    integrate,
    shift,
)


def field_from(grid, fn):
    coords = grid.coordinates()
    return ScalarField(grid, np.broadcast_to(fn(*coords), grid.shape).copy())


class TestBuildGrid:
    def test_1d(self):
        g = build_grid(1, 8)
        assert g.spacing == 0.125
        assert g.cell_count == 8
        assert g.shape == (8,)

    def test_2d_cell_count(self):
        assert build_grid(2, 4).cell_count == 16

    def test_dim_4_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            build_grid(4, 8)

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarseError):
            build_grid(1, 3)

    def test_more_cells_than_numpy_can_index(self):
        limit = np.iinfo(np.intp).max // 8  # float64 cells
        assert build_grid(1, limit).cell_count == limit  # a Grid holds no array
        with pytest.raises(FpkError, match="more cells than numpy can index"):
            build_grid(1, limit + 1)
        with pytest.raises(FpkError, match="a 3-D grid of 10000000 cells per axis"):
            build_grid(3, 10**7)

    def test_cell_centers(self):
        g = build_grid(1, 4)
        assert np.allclose(g.axis_centers(), [0.125, 0.375, 0.625, 0.875])


class TestFieldValidation:
    def test_shape_mismatch(self):
        g = build_grid(2, 4)
        with pytest.raises(ShapeError):
            ScalarField(g, np.zeros(16))

    def test_nan_rejected(self):
        g = build_grid(1, 4)
        with pytest.raises(NonFiniteFieldError):
            ScalarField(g, np.array([1.0, np.nan, 1.0, 1.0]))

    def test_values_read_only(self):
        g = build_grid(1, 4)
        f = ScalarField(g, np.ones(4))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestIntegrate:
    def test_unit_field(self):
        g = build_grid(1, 16)
        assert integrate(ScalarField(g, np.ones(16))) == 1.0

    def test_cosine_cancels(self):
        g = build_grid(1, 64)
        f = field_from(g, lambda x: np.cos(2 * np.pi * x))
        assert abs(integrate(f)) <= 1e-12

    def test_sin_squared(self):
        g = build_grid(1, 64)
        f = field_from(g, lambda x: np.sin(2 * np.pi * x) ** 2)
        assert abs(integrate(f) - 0.5) <= 1e-10

    def test_2d_product(self):
        g = build_grid(2, 32)
        f = field_from(g, lambda x, y: np.sin(2 * np.pi * x) ** 2 * np.ones_like(y))
        assert abs(integrate(f) - 0.5) <= 1e-10

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        g = build_grid(1, 32)
        rng = np.random.default_rng(seed)
        fa = rng.standard_normal(32)
        fb = rng.standard_normal(32)
        lhs = integrate(ScalarField(g, a * fa + b * fb))
        rhs = a * integrate(ScalarField(g, fa)) + b * integrate(ScalarField(g, fb))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestCenteredGradient:
    def test_constant_is_zero(self):
        g = build_grid(2, 8)
        grad = np.stack(gradient_arrays(np.full(g.shape, 3.7), g.spacing))
        assert np.all(grad == 0.0)

    def sin_error(self, n):
        g = build_grid(1, n)
        x = g.axis_centers()
        grad = np.stack(gradient_arrays(field_from(g, lambda x: np.sin(2 * np.pi * x)).values, g.spacing))
        return np.abs(grad[0] - 2 * np.pi * np.cos(2 * np.pi * x)).max()

    def test_sin_second_order(self):
        # truncation constant is (2 pi)^3 / 6 ~ 41.3 for this mode
        e128 = self.sin_error(128)
        assert e128 <= 45.0 * (1 / 128) ** 2
        order = np.log2(self.sin_error(64) / e128)
        assert abs(order - 2.0) <= 0.1

    def test_sawtooth_seam(self):
        # non-periodic data: wrap arithmetic produces the documented seam value
        n = 8
        g = build_grid(1, n)
        grad = np.stack(gradient_arrays(np.arange(n) / n, g.spacing))
        assert grad[0][0] == pytest.approx(-(n - 2) / 2)
        assert grad[0][-1] == pytest.approx(-(n - 2) / 2)
        assert np.allclose(grad[0][1:-1], 1.0)


class TestCenteredHessian:
    def test_1d_cosine(self):
        g = build_grid(1, 128)
        x = g.axis_centers()
        hess = centered_hessian(field_from(g, lambda x: np.cos(2 * np.pi * x)))
        target = -4 * np.pi**2 * np.cos(2 * np.pi * x)
        assert np.abs(hess[0, 0] - target).max() <= 0.02 * 4 * np.pi**2

    def test_2d_cross_symmetric(self):
        g = build_grid(2, 32)
        f = field_from(g, lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
        hess = centered_hessian(f)
        assert np.array_equal(hess[0, 1], hess[1, 0])
        x, y = g.coordinates()
        target = -4 * np.pi**2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        assert np.abs(hess[0, 1] - target).max() <= 0.05 * 4 * np.pi**2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise_equal_to_plain_stencil(self, dim):
        g = build_grid(dim, 12)
        f = field_from(g, lambda *xs: np.exp(np.sin(2 * np.pi * sum((k + 1) * x for k, x in enumerate(xs)))))
        assert centered_hessian(f).tobytes() == plain_hessian(f.values, g.spacing).tobytes()


class TestFaceDivergence:
    def test_zero_flux(self):
        g = build_grid(2, 8)
        div = face_divergence(g, [np.zeros(g.shape), np.zeros(g.shape)])
        assert np.all(div.values == 0.0)

    def test_uniform_flux_telescopes(self):
        g = build_grid(2, 8)
        div = face_divergence(g, [np.full(g.shape, 2.5), np.full(g.shape, -1.25)])
        assert np.all(div.values == 0.0)

    def test_discrete_laplacian_of_sine(self):
        n = 128
        g = build_grid(1, n)
        faces = (np.arange(n) + 1.0) / n  # +face of cell i sits at (i+1) h
        flux = 2 * np.pi * np.cos(2 * np.pi * faces)
        div = face_divergence(g, [flux])
        x = g.axis_centers()
        target = -((2 * np.pi) ** 2) * np.sin(2 * np.pi * x)
        assert np.abs(div.values - target).max() <= 200.0 * (1 / n) ** 2

    def test_shape_error(self):
        g = build_grid(2, 8)
        with pytest.raises(ShapeError):
            face_divergence(g, [np.zeros(g.shape)])
        with pytest.raises(ShapeError):
            face_divergence(g, [np.zeros(g.shape), np.zeros((8, 9))])

    @pytest.mark.parametrize("shape", [(8,), (5, 7), (4, 5, 6)])
    def test_kernel_bitwise_equal_to_roll_reference(self, shape):
        rng = np.random.default_rng(1)
        fluxes = [rng.standard_normal(shape) for _ in shape]
        reference = sum(flux - np.roll(flux, 1, axis=k) for k, flux in enumerate(fluxes))
        assert np.array_equal(face_divergence_arrays(fluxes), reference)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_leaves_the_flux_arrays_unchanged(self, dim):
        g = build_grid(dim, 6)
        rng = np.random.default_rng(2)
        fluxes = [rng.standard_normal(g.shape) for _ in range(dim)]  # writable
        before = [flux.tobytes() for flux in fluxes]
        div = face_divergence(g, fluxes)
        assert [flux.tobytes() for flux in fluxes] == before
        assert not any(np.shares_memory(div.values, flux) for flux in fluxes)

    @given(seed=st.integers(0, 2**16), dim=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_total_mass_is_zero(self, seed, dim):
        n = 8
        g = build_grid(dim, n)
        rng = np.random.default_rng(seed)
        fluxes = [rng.standard_normal(g.shape) for _ in range(dim)]
        total = integrate(face_divergence(g, fluxes))
        scale = max(abs(f).max() for f in fluxes)
        assert abs(total) <= 1e-13 * max(1.0, scale)


def _shift_inputs(dim, n, dtype=np.float64):
    """A plain array holding a -0.0 and a NaN, a read-only one, a Fortran-ordered one and a
    strided (non-contiguous) view, all dim-D with n per axis and of ``dtype``."""
    rng = np.random.default_rng(dim * 100 + n)

    def draw(shape):
        values = rng.standard_normal(shape)
        return values + 1j * rng.standard_normal(shape) if dtype == np.complex128 else values

    plain = draw((n,) * dim)
    plain.flat[:2] = -0.0, np.nan
    read_only = plain.copy()
    read_only.setflags(write=False)
    fortran = np.asfortranarray(draw((n,) * dim))
    strided = draw((2 * n,) * dim)[(slice(None, None, 2),) * dim]
    assert not strided.flags.c_contiguous and (dim == 1 or not fortran.flags.c_contiguous)
    return {"plain": plain, "read_only": read_only, "fortran": fortran, "strided": strided}


class TestShift:
    @pytest.mark.parametrize("shape", [(8,), (5, 7), (4, 5, 6)])
    def test_matches_roll_on_every_axis(self, shape):
        v = np.random.default_rng(0).standard_normal(shape)
        for axis in range(len(shape)):
            for offset in (1, -1):
                assert np.array_equal(shift(v, offset, axis), np.roll(v, -offset, axis=axis))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [4, 5, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fresh_writable_roll_of_the_input_dtype(self, dim, n, dtype):
        # the solver writes into its shifted copies, so each must be its own array, and a C
        # array for C input; a complex input stays complex, so the right-hand side is complex-safe
        for kind, v in _shift_inputs(dim, n, dtype).items():
            for axis in range(dim):
                for offset in (1, -1):
                    out = shift(v, offset, axis)
                    case = (kind, axis, offset)
                    assert out.dtype == dtype, case
                    assert out.tobytes() == np.roll(v, -offset, axis=axis).tobytes(), case
                    assert out.flags.writeable and not np.shares_memory(out, v), case
                    assert out.flags.c_contiguous or kind == "fortran", case

    def test_package_wraps_only_through_shift(self):
        src = Path(fpklab.__file__).parent
        assert [p.name for p in sorted(src.glob("*.py")) if "np.roll" in p.read_text()] == []
