"""Periodic tensor-product grids on the unit torus and their discrete calculus.

Cells are uniform with centers at (i + 1/2) h, h = 1/N, on [0,1)^n for
n = 1, 2, 3.  All index arithmetic wraps modulo N on every axis, so sampled
fields are exactly periodic; there are no ghost cells.  ``shift`` is the one
wrap: every stencil here and in the solver reads its neighbors through it,
except the solver's 1-D right-hand side, which indexes cached wrapped rows.
Integration is the midpoint rule (spectrally accurate for smooth periodic
integrands), gradients are centered second-order differences, and the face
divergence telescopes to zero total mass on every periodic flux array.

A scalar field is a ScalarField; a vector field is any sequence of per-axis
arrays of the grid's shape (a list, or an (n, N, ..., N) array, whose rows
are its axes), and every pointwise dot product of two of them, |v|^2 too, is
``dot``.  ``per_axis`` is the one check that a public function's vector
argument has that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    FpkError,
    GridTooCoarseError,
    NonFiniteFieldError,
    ShapeError,
    UnsupportedDimensionError,
    quote_value,
)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [0,1)^dim with periodic wrap."""

    dim: int
    cells_per_axis: int

    @cached_property
    def spacing(self) -> float:
        return 1.0 / self.cells_per_axis

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @cached_property
    def cell_count(self) -> int:
        return self.cells_per_axis**self.dim

    @cached_property
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
        raise UnsupportedDimensionError(f"dim must be 1, 2, or 3; got {quote_value(dim)}")
    if cells_per_axis < 4:
        raise GridTooCoarseError(f"cells_per_axis must be >= 4; got {quote_value(cells_per_axis)}")
    if int(cells_per_axis) ** int(dim) > np.iinfo(np.intp).max // 8:  # the float64 cells numpy can index
        raise FpkError(
            f"a {dim}-D grid of {quote_value(cells_per_axis, 20)} cells per axis has more cells than numpy can index"
        )
    return Grid(dim=int(dim), cells_per_axis=int(cells_per_axis))


@dataclass(frozen=True)
class ScalarField:
    """One real value per cell.  Immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.shape != self.grid.shape:
            raise ShapeError(f"expected array of shape {self.grid.shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteFieldError("field contains NaN or infinite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

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


def integrate(field: ScalarField) -> float:
    """Midpoint-rule integral h^n * sum(values): the pairwise sum ``values.sum()`` takes,
    by a direct ``np.add.reduce`` over ``axis=None`` (its default axis 0 would sum a 3-D
    field to a plane)."""
    return field.grid.cell_volume * float(np.add.reduce(field.values, axis=None))


def shift(values: np.ndarray, offset: int, axis: int) -> np.ndarray:
    """Periodic shift: entry i along ``axis`` holds values[i + offset], wrapping,
    for 0 < |offset| < N, in a fresh writable array of the input's dtype,
    C-contiguous unless ``values`` is Fortran-ordered (the solver writes into it).

    The last axis of a C-contiguous array of two or more axes is one flat
    copy off by ``offset``, right but for the wrapped column, which is filled
    after (BENCH_31.json).  Any other axis, and every 1-D array, joins two
    slices: on a short 1-D array the join is the cheaper copy (BENCH_33.json)."""
    if axis == values.ndim - 1 and values.ndim >= 2 and values.flags.c_contiguous:
        out = np.empty(values.shape, values.dtype)
        flat, source = out.reshape(-1), values.reshape(-1)
        if offset > 0:
            flat[:-offset] = source[offset:]
            out[..., -offset:] = values[..., :offset]
        else:
            flat[-offset:] = source[:offset]
            out[..., :-offset] = values[..., offset:]
        return out
    lead = (slice(None),) * axis
    return np.concatenate(
        (values[lead + (slice(offset, None),)], values[lead + (slice(None, offset),)]), axis=axis
    )


def gradient_arrays(values: np.ndarray, spacing: float, lead: int = 0) -> list[np.ndarray]:
    """Centered periodic differences (v[i+1] - v[i-1]) / (2h) per axis after the first ``lead``."""
    two_h = 2.0 * spacing
    return [(shift(values, 1, k) - shift(values, -1, k)) / two_h for k in range(lead, values.ndim)]


def dot(a, b) -> np.ndarray:
    """sum_k a_k b_k from 0, one product at a time, bitwise np.sum(a * b, axis=0);
    ``a`` may be an iterator, so its components need not all exist at once."""
    acc = np.zeros(b[0].shape)
    for ak, bk in zip(a, b):
        acc += ak * bk
    return acc


def hessian_entry(values: np.ndarray, spacing: float, k: int, l: int) -> np.ndarray:
    """Entry (k, l) of the discrete Hessian: the compact 3-point second difference
    on the diagonal, else the centered first difference along min(k, l), then
    along max(k, l), so entries (k, l) and (l, k) are the same bits."""
    if k == l:
        return (shift(values, 1, k) - 2.0 * values + shift(values, -1, k)) / spacing**2
    for axis in sorted((k, l)):
        values = (shift(values, 1, axis) - shift(values, -1, axis)) / (2.0 * spacing)
    return values


def centered_hessian(field: ScalarField) -> np.ndarray:
    """Discrete Hessian of hessian_entry's entries, shape (dim, dim, N, ..., N).

    No run calls it: the ledger and the term breakdown take hessian_entry one
    entry at a time.  Tests and perfbench/micro.py use it."""
    n = field.grid.dim
    out = np.empty((n, n) + field.grid.shape)
    for k in range(n):
        for l in range(k, n):
            out[k, l] = out[l, k] = hessian_entry(field.values, field.grid.spacing, k, l)
    return out


def face_divergence(grid: Grid, face_flux) -> ScalarField:
    """Conservative divergence of per-face fluxes.

    ``face_flux`` holds one array per axis, each of the grid's shape;
    entry i along axis k is the flux through the face between cells i and
    i+1 (wrapping).  The cell value is sum_k (flux_k[i] - flux_k[i-1]) / h,
    so the total over all cells telescopes to zero.
    """
    acc = face_divergence_arrays(per_axis(grid, face_flux, "face flux"))
    acc /= grid.spacing
    return ScalarField(grid, acc)


def per_axis(grid: Grid, arrays, what: str) -> list[np.ndarray]:
    """``arrays`` as one float array of the grid's shape per axis, the form of every
    vector field; another count or shape is a ShapeError naming ``what``."""
    out = [np.asarray(arr, dtype=np.float64) for arr in arrays]
    if len(out) != grid.dim:
        raise ShapeError(f"expected {grid.dim} {what} arrays, got {len(out)}")
    for k, arr in enumerate(out):
        if arr.shape != grid.shape:
            raise ShapeError(f"{what} on axis {k} has shape {arr.shape}, expected {grid.shape}")
    return out


def face_divergence_arrays(fluxes: list[np.ndarray]) -> np.ndarray:
    """sum_k (flux_k[i] - flux_k[i-1]) for one flux array per axis, unscaled:
    the caller applies 1/h (``face_divergence``) or folds it into its own scale.

    Each axis's difference is written into its own shifted copy (the flux
    arrays are only read), and the running sum moves into the next axis's
    copy, so the result is the last array allocated here.  The arrays the
    caller frees after the call then leave reusable holes below the result,
    not free space at the top of the heap, which the C allocator returns to
    the system and the next call faults back in page by page (summing into
    the first axis's copy instead multiplied a 32^3 RK4 step's page faults:
    CHANGES.md, "In-place RK4 arithmetic").
    """
    diffs = []
    for k, flux in enumerate(fluxes):
        diff = shift(flux, -1, k)
        np.subtract(flux, diff, out=diff)
        diffs.append(diff)
    for partial, diff in zip(diffs, diffs[1:]):
        diff += partial
    return diffs[-1]
