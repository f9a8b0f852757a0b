"""Periodic tensor-product grids on the unit torus and their discrete calculus.

Cells are uniform with centers at (i + 1/2) h, h = 1/N, on [0,1)^n for
n = 1, 2, 3.  All index arithmetic wraps modulo N on every axis, so sampled
fields are exactly periodic; there are no ghost cells.  ``shift`` is the one
wrap: every stencil here and in the solver reads its neighbors through it.
Integration is the midpoint rule (spectrally accurate for smooth periodic
integrands), gradients are centered second-order differences, and the face
divergence telescopes to zero total mass on every periodic flux array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooCoarseError,
    NonFiniteFieldError,
    ShapeError,
    UnsupportedDimensionError,
)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [0,1)^dim with periodic wrap."""

    dim: int
    cells_per_axis: int

    @property
    def spacing(self) -> float:
        return 1.0 / self.cells_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def cell_count(self) -> int:
        return self.cells_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates (i + 1/2) h along one axis."""
        return (np.arange(self.cells_per_axis) + 0.5) * self.spacing

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, broadcastable to ``shape``.

        The k-th array has the axis-k centers along axis k and singleton
        extents elsewhere, so arithmetic over several of them broadcasts to
        the full grid shape without materializing dense meshes.
        """
        centers = self.axis_centers()
        out = []
        for k in range(self.dim):
            form = [1] * self.dim
            form[k] = self.cells_per_axis
            out.append(centers.reshape(form))
        return tuple(out)


def build_grid(dim: int, cells_per_axis: int) -> Grid:
    """Validated grid constructor."""
    if dim not in (1, 2, 3):
        raise UnsupportedDimensionError(f"dim must be 1, 2, or 3; got {dim}")
    if cells_per_axis < 4:
        raise GridTooCoarseError(f"cells_per_axis must be >= 4; got {cells_per_axis}")
    return Grid(dim=int(dim), cells_per_axis=int(cells_per_axis))


def _as_field_array(grid: Grid, values, expected_shape: tuple[int, ...]) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.shape != expected_shape:
        raise ShapeError(f"expected array of shape {expected_shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteFieldError("field contains NaN or infinite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """One real value per cell.  Immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_field_array(self.grid, self.values, self.grid.shape))

    @classmethod
    def _trusted(cls, grid: Grid, values: np.ndarray) -> "ScalarField":
        """Field over a fresh C-contiguous float64 array of ``grid.shape``
        whose finiteness the caller has checked: no copy and no check, only
        the array is set read-only."""
        values.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        return field

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class VectorField:
    """dim real components per cell, stored as (dim, N, ..., N)."""

    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        expected = (self.grid.dim,) + self.grid.shape
        object.__setattr__(self, "components", _as_field_array(self.grid, self.components, expected))

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean norm."""
        return np.sqrt(np.sum(self.components**2, axis=0))


def integrate(field: ScalarField) -> float:
    """Midpoint-rule integral h^n * sum(values)."""
    return field.grid.cell_volume * float(field.values.sum())


def shift(values: np.ndarray, offset: int, axis: int) -> np.ndarray:
    """Periodic shift: entry i along ``axis`` holds values[i + offset], wrapping."""
    lead = (slice(None),) * axis
    return np.concatenate(
        (values[lead + (slice(offset, None),)], values[lead + (slice(None, offset),)]), axis=axis
    )


def gradient_arrays(values: np.ndarray, spacing: float) -> list[np.ndarray]:
    """Centered periodic differences (v[i+1] - v[i-1]) / (2h) per axis."""
    two_h = 2.0 * spacing
    return [(shift(values, 1, k) - shift(values, -1, k)) / two_h for k in range(values.ndim)]


def centered_gradient(field: ScalarField) -> VectorField:
    """Second-order centered gradient with periodic wrap."""
    comps = gradient_arrays(field.values, field.grid.spacing)
    return VectorField(field.grid, np.stack(comps))


def centered_hessian(field: ScalarField) -> np.ndarray:
    """Discrete Hessian, shape (dim, dim, N, ..., N).

    Diagonal entries use the compact 3-point second difference; off-diagonal
    entries apply the centered first difference twice (exactly symmetric
    because the shifts commute).
    """
    grid = field.grid
    v = field.values
    h = grid.spacing
    n = grid.dim
    out = np.empty((n, n) + grid.shape)
    firsts = gradient_arrays(v, h)
    for k in range(n):
        out[k, k] = (shift(v, 1, k) - 2.0 * v + shift(v, -1, k)) / h**2
        for l in range(k + 1, n):
            cross = (shift(firsts[k], 1, l) - shift(firsts[k], -1, l)) / (2.0 * h)
            out[k, l] = cross
            out[l, k] = cross
    return out


def face_divergence(grid: Grid, face_flux) -> ScalarField:
    """Conservative divergence of per-face fluxes.

    ``face_flux`` holds one array per axis, each of the grid's shape;
    entry i along axis k is the flux through the face between cells i and
    i+1 (wrapping).  The cell value is sum_k (flux_k[i] - flux_k[i-1]) / h,
    so the total over all cells telescopes to zero.
    """
    fluxes = [np.asarray(flux, dtype=np.float64) for flux in face_flux]
    if len(fluxes) != grid.dim:
        raise ShapeError(f"expected {grid.dim} face-flux arrays, got {len(fluxes)}")
    for k, arr in enumerate(fluxes):
        if arr.shape != grid.shape:
            raise ShapeError(f"face flux on axis {k} has shape {arr.shape}, expected {grid.shape}")
    return ScalarField(grid, face_divergence_arrays(fluxes, grid.spacing))


def face_divergence_arrays(fluxes: list[np.ndarray], spacing: float) -> np.ndarray:
    """sum_k (flux_k[i] - flux_k[i-1]) / h for one flux array per axis."""
    acc = fluxes[0] - shift(fluxes[0], -1, 0)
    for k in range(1, len(fluxes)):
        acc += fluxes[k] - shift(fluxes[k], -1, k)
    acc /= spacing
    return acc
