"""Property tests of the solver's structural invariants on random smooth coefficients.

Each example draws trigonometric D, phi, pi and f0 on a small periodic grid
(1-D up to 24 cells, 2-D up to 12^2, 3-D up to 6^3), with D, pi and f0
bounded away from zero, and checks the invariants the scheme guarantees for
every such input: unit mass to 1e-12 and a positive density at every
record, a vanishing right-hand side on the sampled equilibrium, and a free
energy that never increases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpklab as F
from fpklab import diagnostics as dg

_amplitude = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


@st.composite
def coefficients(draw, dim=1):
    """Sources for D, phi, pi, f0: a constant plus one or two Fourier modes each.

    The cosine mode runs along a drawn axis and the sine mode along the last
    one, so in 2-D and 3-D the fields vary along more than one axis.
    """
    k = draw(st.integers(min_value=1, max_value=3))

    def mode(level, wave):
        a, b = draw(_amplitude), draw(_amplitude)
        axis = draw(st.integers(min_value=1, max_value=dim))
        return f"{level!r} + ({a!r})*cos(2*pi*{wave}*x{axis}) + ({b!r})*sin(2*pi*x{dim})"

    d_level = draw(st.floats(min_value=1.0, max_value=2.0))
    pi_level = draw(st.floats(min_value=1.0, max_value=2.0))
    pi_time = draw(st.sampled_from(["", f" + ({draw(_amplitude) / 2!r})*sin(3*t)"]))
    return {
        "D": mode(d_level, k),
        "phi": mode(0.0, k),
        "pi": mode(pi_level, 1) + pi_time,
        "f0": mode(1.0, k),
    }


def check_invariants(specs, dim, n):
    grid = F.build_grid(dim, n)
    coeffs, f0 = F.sample_coefficients(specs, grid)
    feq, _ = F.compute_equilibrium(coeffs)
    assert np.abs(F.rhs(feq, coeffs, 0.0).values).max() <= 1e-10

    config = F.SolverConfig(t_end=0.02, record_every=3)
    series = F.run(f0, coeffs, config, dg.make_batch_recorder(coeffs))
    mass = series.column("mass")
    assert np.all(np.abs(mass - 1.0) <= 1e-12)
    assert np.all(series.column("f_min") > 0.0)
    assert np.all(np.diff(series.column("free_energy")) <= 1e-10)


@settings(max_examples=20, deadline=None)
@given(specs=coefficients(), n=st.integers(min_value=8, max_value=24))
def test_random_smooth_coefficients_keep_the_invariants(specs, n):
    check_invariants(specs, 1, n)


@pytest.mark.parametrize("dim, max_cells", [(2, 12), (3, 6)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_invariants_hold_in_two_and_three_dimensions(dim, max_cells, data):
    specs = data.draw(coefficients(dim))
    n = data.draw(st.integers(min_value=4, max_value=max_cells))
    check_invariants(specs, dim, n)
