"""Property tests of the solver's structural invariants on random smooth coefficients.

Each example draws trigonometric D, phi, pi and f0 on a small periodic 1-D
grid, with D, pi and f0 bounded away from zero, and checks the invariants
the scheme guarantees for every such input: unit mass to 1e-12 and a
positive density at every record, a vanishing right-hand side on the
sampled equilibrium, and a free energy that never increases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import fpklab as F
from fpklab import diagnostics as dg

_amplitude = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


@st.composite
def coefficients(draw):
    """Sources for D, phi, pi, f0: a constant plus one or two Fourier modes each."""
    k = draw(st.integers(min_value=1, max_value=3))

    def mode(level, wave):
        a, b = draw(_amplitude), draw(_amplitude)
        return f"{level!r} + ({a!r})*cos(2*pi*{wave}*x1) + ({b!r})*sin(2*pi*x1)"

    d_level = draw(st.floats(min_value=1.0, max_value=2.0))
    pi_level = draw(st.floats(min_value=1.0, max_value=2.0))
    pi_time = draw(st.sampled_from(["", f" + ({draw(_amplitude) / 2!r})*sin(3*t)"]))
    return {
        "D": mode(d_level, k),
        "phi": mode(0.0, k),
        "pi": mode(pi_level, 1) + pi_time,
        "f0": mode(1.0, k),
    }


@settings(max_examples=20, deadline=None)
@given(specs=coefficients(), n=st.integers(min_value=8, max_value=24))
def test_random_smooth_coefficients_keep_the_invariants(specs, n):
    grid = F.build_grid(1, n)
    coeffs, f0 = F.sample_coefficients(specs, grid)
    feq, _ = F.compute_equilibrium(coeffs)
    assert np.abs(F.rhs(feq, coeffs, 0.0).values).max() <= 1e-10

    config = F.SolverConfig(t_end=0.02, record_every=3)
    series = F.run(f0, coeffs, config, dg.make_recorder(coeffs))
    mass = series.column("mass")
    assert np.all(np.abs(mass - 1.0) <= 1e-12)
    assert np.all(series.column("f_min") > 0.0)
    assert np.all(np.diff(series.column("free_energy")) <= 1e-10)
