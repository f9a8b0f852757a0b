from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpklab
from fpklab.errors import (
    GridTooCoarseError,
    NonFiniteFieldError,
    ShapeError,
    UnsupportedDimensionError,
)
from fpklab.grid import (
    ScalarField,
    VectorField,
    build_grid,
    centered_gradient,
    centered_hessian,
    face_divergence,
    face_divergence_arrays,
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

    def test_vector_shape(self):
        g = build_grid(2, 4)
        with pytest.raises(ShapeError):
            VectorField(g, np.zeros((3, 4, 4)))


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
        grad = centered_gradient(ScalarField(g, np.full(g.shape, 3.7)))
        assert np.all(grad.components == 0.0)

    def sin_error(self, n):
        g = build_grid(1, n)
        x = g.axis_centers()
        grad = centered_gradient(field_from(g, lambda x: np.sin(2 * np.pi * x)))
        return np.abs(grad.components[0] - 2 * np.pi * np.cos(2 * np.pi * x)).max()

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
        grad = centered_gradient(ScalarField(g, np.arange(n) / n))
        assert grad.components[0][0] == pytest.approx(-(n - 2) / 2)
        assert grad.components[0][-1] == pytest.approx(-(n - 2) / 2)
        assert np.allclose(grad.components[0][1:-1], 1.0)


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
        h = 0.125
        reference = sum(flux - np.roll(flux, 1, axis=k) for k, flux in enumerate(fluxes)) / h
        assert np.array_equal(face_divergence_arrays(fluxes, h), reference)

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


class TestShift:
    @pytest.mark.parametrize("shape", [(8,), (5, 7), (4, 5, 6)])
    def test_matches_roll_on_every_axis(self, shape):
        v = np.random.default_rng(0).standard_normal(shape)
        for axis in range(len(shape)):
            for offset in (1, -1):
                assert np.array_equal(shift(v, offset, axis), np.roll(v, -offset, axis=axis))

    def test_package_wraps_only_through_shift(self):
        src = Path(fpklab.__file__).parent
        assert [p.name for p in sorted(src.glob("*.py")) if "np.roll" in p.read_text()] == []
