"""Spectral densities, marginals and quadrature grids."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.network import FrequencyGrid, make_grid
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum

W0 = 5.0
DP = 0.2
DM = 1.0


@pytest.fixture
def spectrum():
    return GaussianJointSpectrum(omega0=W0, d_omega_plus=DP, d_omega_minus=DM)


def pair_axes(spectrum, half_sigmas=6.0, n=257):
    grid = make_grid(spectrum.omega0, half_sigmas * spectrum.local_spread, n)
    return grid


def test_joint_density_peak_value(spectrum):
    # closed-form peak: product of the two Gaussian prefactors
    expected = 1.0 / (2.0 * math.pi * DP * DM)
    assert spectrum.joint_density(W0, W0) == pytest.approx(expected, rel=1e-14)


def test_joint_density_scalar_returns_float(spectrum):
    out = spectrum.joint_density(W0 + 0.3, W0 - 0.2)
    assert isinstance(out, float)


def textbook_density(spectrum, omega, omega_prime):
    """The joint density as one whole-array expression, for bit-for-bit parity."""
    w = np.asarray(omega, dtype=float)
    wp = np.asarray(omega_prime, dtype=float)
    s = w + wp - 2.0 * spectrum.omega0
    d = w - wp
    dp, dm = spectrum.d_omega_plus, spectrum.d_omega_minus
    root = float(np.sqrt(2.0 * np.pi))
    return (
        np.exp(-(s * s) / (8.0 * dp * dp))
        / (root * dp)
        * np.exp(-(d * d) / (2.0 * dm * dm))
        / (root * dm)
    )


def _parity_arguments(case, rng):
    nodes = W0 + rng.uniform(-3.0, 3.0, 641)  # 641 rows: blocks of 25, the last one short
    return {
        "outer": (nodes[:, None], nodes[None, :]),
        "outer_transposed": (nodes[None, :], nodes[:, None]),
        "pairs_1d": (W0 + rng.uniform(-3.0, 3.0, 40_000), W0 + rng.uniform(-3.0, 3.0, 40_000)),
        "first_axis_one": (nodes[None, :], nodes[None, ::-1]),
        "first_axis_one_both": (nodes[None, :1], nodes[None, :]),
        "broadcast_3d": (nodes[:40, None, None], W0 + rng.uniform(-3.0, 3.0, (1, 30, 40))),
        "broadcast_3d_short_first": (W0 + rng.uniform(-3.0, 3.0, (30, 40)), nodes[:50, None, None]),
        "wide_rows_3d": (nodes[:7, None, None], W0 + rng.uniform(-3.0, 3.0, (1, 50, 400))),
        "python_scalars": (W0 + 0.3, W0 - 0.2),
        "numpy_scalars": (np.float64(W0 + 0.3), np.float64(W0 - 0.2)),
        "zero_d_arrays": (np.array(W0 + 0.3), np.array(W0 - 0.2)),
    }[case]


@pytest.mark.parametrize("case", ["outer", "outer_transposed", "pairs_1d", "first_axis_one",
                                  "first_axis_one_both", "broadcast_3d",
                                  "broadcast_3d_short_first", "wide_rows_3d",
                                  "python_scalars", "numpy_scalars", "zero_d_arrays"])
def test_block_tabulation_matches_the_textbook_expression_bit_for_bit(spectrum, case):
    omega, omega_prime = _parity_arguments(case, np.random.default_rng(11))
    want = textbook_density(spectrum, omega, omega_prime)
    for got, expected in ((spectrum.joint_density(omega, omega_prime), want),
                          (spectrum.joint_amplitude(omega, omega_prime), np.sqrt(want))):
        if want.ndim == 0:
            assert type(got) is float
        else:
            assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_joint_amplitude_table_peaks_near_its_own_size(spectrum):
    nodes = pair_axes(spectrum, n=1025).nodes
    spectrum.joint_amplitude(nodes[:8, None], nodes[None, :])
    tracemalloc.start()
    try:
        table = spectrum.joint_amplitude(nodes[:, None], nodes[None, :])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, (peak, table.nbytes)


def test_joint_density_normalized(spectrum):
    grid = pair_axes(spectrum)
    w, nodes = grid.weights, grid.nodes
    dens = spectrum.joint_density(nodes[:, None], nodes[None, :])
    total = float(np.einsum("i,j,ij->", w, w, dens))
    assert total == pytest.approx(1.0, abs=1e-8)


@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_joint_density_exchange_symmetry(a, b):
    s = GaussianJointSpectrum(omega0=W0, d_omega_plus=DP, d_omega_minus=DM)
    x, y = W0 + a, W0 + b
    assert s.joint_density(x, y) == s.joint_density(y, x)


def test_joint_amplitude_squares_to_density(spectrum):
    rng = np.random.default_rng(7)
    w = W0 + rng.uniform(-2, 2, size=20)
    wp = W0 + rng.uniform(-2, 2, size=20)
    amp = spectrum.joint_amplitude(w, wp)
    np.testing.assert_allclose(amp**2, spectrum.joint_density(w, wp), rtol=1e-13)
    assert np.all(amp >= 0.0)


def test_joint_amplitude_difference_ratio(spectrum):
    """One pair-width along the antidiagonal costs a factor e in amplitude."""
    ratio = spectrum.joint_amplitude(W0 + DM, W0 - DM) / spectrum.joint_amplitude(W0, W0)
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_difference_distribution_is_centered_normal(spectrum):
    assert spectrum.difference_distribution(0.0) == pytest.approx(
        1.0 / (math.sqrt(2.0 * math.pi) * DM), rel=1e-14
    )
    nu = np.linspace(-4.0, 4.0, 9)
    np.testing.assert_array_equal(
        spectrum.difference_distribution(nu), spectrum.difference_distribution(-nu)
    )
    grid = make_grid(0.0, 6.0 * DM, 257)
    total = grid.integrate(spectrum.difference_distribution(grid.nodes))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_difference_distribution_matches_marginalization(spectrum):
    """Integrating the joint density over the mean frequency leaves the
    difference density."""
    prime = make_grid(W0, 8.0 * spectrum.local_spread, 513)
    for nu in (0.0, 0.4, -1.1, 2.5):
        dens = spectrum.joint_density(prime.nodes + 0.5 * nu, prime.nodes - 0.5 * nu)
        marginal = prime.integrate(dens)
        assert marginal == pytest.approx(
            spectrum.difference_distribution(nu), rel=1e-8
        )


def test_local_spread_limits():
    base = dict(omega0=W0, d_omega_minus=DM)
    tight = GaussianJointSpectrum(d_omega_plus=1e-9, **base)
    assert tight.local_spread == pytest.approx(DM / 2.0, rel=1e-12)
    half = GaussianJointSpectrum(d_omega_plus=DM / 2.0, **base)
    assert half.local_spread == pytest.approx(DM / math.sqrt(2.0), rel=1e-14)
    equal = GaussianJointSpectrum(d_omega_plus=DM, **base)
    assert equal.local_spread == pytest.approx(math.sqrt(5.0) / 2.0 * DM, rel=1e-14)


@given(
    dp=st.floats(0.01, 5.0),
    dm=st.floats(0.01, 5.0),
    bump=st.floats(0.001, 1.0),
)
def test_local_spread_monotone(dp, dm, bump):
    ref = GaussianJointSpectrum(omega0=W0, d_omega_plus=dp, d_omega_minus=dm)
    wider_p = GaussianJointSpectrum(omega0=W0, d_omega_plus=dp + bump, d_omega_minus=dm)
    wider_m = GaussianJointSpectrum(omega0=W0, d_omega_plus=dp, d_omega_minus=dm + bump)
    assert wider_p.local_spread > ref.local_spread
    assert wider_m.local_spread > ref.local_spread


@pytest.mark.parametrize("field", ["omega0", "d_omega_plus", "d_omega_minus"])
def test_spectrum_rejects_nonpositive(field):
    kwargs = dict(omega0=W0, d_omega_plus=DP, d_omega_minus=DM)
    kwargs[field] = 0.0
    with pytest.raises(ValueError, match=field):
        GaussianJointSpectrum(**kwargs)


# ----- coherent pulse -----


def test_coherent_density_normalized():
    pulse = CoherentSpectrum(omega0=W0, d_omega=0.5, total_intensity=2.0)
    grid = make_grid(W0, 4.0, 513)
    assert grid.integrate(pulse.frequency_density(grid.nodes)) == pytest.approx(
        1.0, abs=1e-10
    )
    # squared amplitude integrates to the photon intensity
    assert grid.integrate(np.abs(pulse.amplitude(grid.nodes)) ** 2) == pytest.approx(
        2.0, rel=1e-10
    )


def test_coherent_default_intensity_is_one():
    pulse = CoherentSpectrum(omega0=W0, d_omega=0.5)
    assert pulse.total_intensity == 1.0


def test_coherent_rejects_bad_values():
    with pytest.raises(ValueError):
        CoherentSpectrum(omega0=W0, d_omega=-1.0)
    with pytest.raises(ValueError):
        CoherentSpectrum(omega0=W0, d_omega=0.5, total_intensity=0.0)


# ----- quadrature grids -----


def test_make_grid_weights_sum_to_span():
    grid = make_grid(3.0, 2.5, 129)
    assert float(np.sum(grid.weights)) == pytest.approx(5.0, abs=1e-10)
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)


def test_make_grid_unit_gaussian():
    sigma = 0.7
    grid = make_grid(0.0, 8.0 * sigma, 256)
    dens = np.exp(-grid.nodes**2 / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    assert grid.integrate(dens) == pytest.approx(1.0, abs=1e-10)
    assert grid.integrate(np.zeros(grid.size)) == 0.0


def test_make_grid_rejects_tiny():
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        make_grid(0.0, 0.0, 64)


def test_frequency_grid_validates():
    nodes = np.array([0.0, 1.0, 0.5] + list(range(2, 15)))
    weights = np.ones(16)
    with pytest.raises(ValueError):
        FrequencyGrid(nodes=nodes, weights=weights)
    with pytest.raises(ValueError):
        FrequencyGrid(nodes=np.arange(16.0), weights=-np.ones(16))
    with pytest.raises(ValueError, match="^nodes and weights must be 1-D arrays of equal length$"):
        FrequencyGrid(nodes=np.arange(16.0), weights=np.ones(15))
    with pytest.raises(ValueError, match="^grid needs at least 16 nodes, got 15$"):
        FrequencyGrid(nodes=np.arange(15.0), weights=np.ones(15))
    for bad_nodes, bad_weights in ((np.r_[np.arange(15.0), np.inf], np.ones(16)),
                                   (np.arange(16.0), np.r_[np.ones(15), np.nan])):
        with pytest.raises(ValueError, match="^grid nodes and weights must be finite$"):
            FrequencyGrid(nodes=bad_nodes, weights=bad_weights)


def test_grid_integrates_a_table_row_by_row():
    grid = make_grid(0.0, 2.0, 64)
    table = np.vstack([np.ones(grid.size), np.exp(-grid.nodes**2)])
    got = grid.integrate(table)
    assert isinstance(got, np.ndarray) and got.shape == (2,)
    np.testing.assert_allclose(got, [grid.integrate(row) for row in table], rtol=1e-14)


@settings(max_examples=25)
@given(
    center=st.floats(-10.0, 10.0),
    half=st.floats(0.5, 20.0),
)
def test_grid_integrates_constants_exactly(center, half):
    grid = make_grid(center, half, 64)
    assert grid.integrate(np.ones(grid.size)) == pytest.approx(2.0 * half, rel=1e-12)
