"""Quadrature oracles against the closed forms.

The oracles integrate the transfer matrix directly, so agreement here
validates both the closed forms and the network conventions at once.
"""

import math
import tracemalloc

import numpy as np
import pytest

from homlab.network import (
    AchromaticPhase,
    BalancedBS,
    OpticalNetwork,
    RelativeDelay,
    ScalarLoss,
    hom_network,
    mhom_network,
    transfer_at,
)
from homlab.rates import (
    LossParams,
    bp_rate_oracle,
    bp_rate_oracle_batch,
    box_average_surface,
    cl_s_rate,
    cp_rate_oracle,
    cp_rate_oracle_batch,
    hom_bp_analytic,
    hom_cp_analytic,
    mhom_bp_analytic,
    mhom_cp_analytic,
    mhom_cp_loss_coarse,
    pair_grid,
    pulse_grid,
)
from homlab.spectra import CoherentSpectrum, FrequencyGrid, GaussianJointSpectrum

SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
PULSE = CoherentSpectrum(omega0=5.0, d_omega=0.5, total_intensity=1.0)


def tabulated_pair(spectrum, grid):
    return spectrum.joint_amplitude(grid.nodes[:, None], grid.nodes[None, :])


def test_bp_oracle_standard_dip_and_reference_point():
    grid = pair_grid(SPECTRUM, tau_max=1.0)
    psi = tabulated_pair(SPECTRUM, grid)
    assert bp_rate_oracle(psi, grid, hom_network(0.0)) == pytest.approx(0.0, abs=1e-8)
    want = 0.5 * (1.0 - math.exp(-2.0))
    assert bp_rate_oracle(psi, grid, hom_network(1.0)) == pytest.approx(want, abs=1e-6)


def test_bp_oracle_tracks_standard_closed_form():
    grid = pair_grid(SPECTRUM, tau_max=3.0)
    psi = tabulated_pair(SPECTRUM, grid)
    for tau in (-2.6, -0.9, 0.25, 1.4, 3.0):
        got = bp_rate_oracle(psi, grid, hom_network(tau))
        assert got == pytest.approx(hom_bp_analytic(tau, SPECTRUM), abs=1e-6 * 0.5)


def test_bp_oracle_two_delay_zero():
    grid = pair_grid(SPECTRUM, tau_max=0.5)
    psi = tabulated_pair(SPECTRUM, grid)
    got = bp_rate_oracle(psi, grid, mhom_network(0.0, 0.0, math.pi / 2.0))
    assert got == pytest.approx(0.0, abs=1e-8)


def test_bp_oracle_tracks_two_delay_closed_form():
    grid = pair_grid(SPECTRUM, tau_max=3.0)
    psi = tabulated_pair(SPECTRUM, grid)
    taus = np.linspace(-3.0, 3.0, 4)
    for theta in (0.0, math.pi / 2.0):
        for t1 in taus:
            for t2 in taus:
                got = bp_rate_oracle(psi, grid, mhom_network(t1, t2, theta))
                want = mhom_bp_analytic(t1, t2, theta, SPECTRUM)
                assert got == pytest.approx(want, abs=1e-5 * 0.5)


def test_bp_oracle_input_loss_scales_exactly():
    """Flat input attenuation multiplies the coincidence rate by the product
    of the two squared magnitudes; coincidences need one photon per path."""
    grid = pair_grid(SPECTRUM, tau_max=1.5)
    psi = tabulated_pair(SPECTRUM, grid)
    xi1, xi2 = 0.8, 0.55 * np.exp(0.9j)
    for t1, t2, theta in ((0.6, -0.4, 0.3), (1.5, 0.9, math.pi / 2.0)):
        clean_net = mhom_network(t1, t2, theta)
        lossy_net = OpticalNetwork(elements=(ScalarLoss(xi1, xi2),) + clean_net.elements)
        clean = bp_rate_oracle(psi, grid, clean_net)
        lossy = bp_rate_oracle(psi, grid, lossy_net)
        assert lossy == pytest.approx(abs(xi1 * xi2) ** 2 * clean, rel=1e-12)


def test_bp_oracle_validates_input():
    grid = pair_grid(SPECTRUM, tau_max=1.0)
    psi = tabulated_pair(SPECTRUM, grid)
    with pytest.raises(ValueError, match="grid"):
        bp_rate_oracle(psi[:-1, :-1], grid, hom_network(0.0))
    with pytest.raises(ValueError, match="normalized"):
        bp_rate_oracle(2.0 * psi, grid, hom_network(0.0))


def test_one_delay_reduction_consistency():
    """The standard-chain pair rate collapses to a single integral over the
    frequency-difference density; 1-D and 2-D quadratures must agree."""
    from homlab.spectra import make_grid

    grid2 = pair_grid(SPECTRUM, tau_max=2.2)
    psi = tabulated_pair(SPECTRUM, grid2)
    grid1 = make_grid(0.0, 6.0 * SPECTRUM.d_omega_minus, 257)
    for tau in (0.3, 1.0, 2.2):
        two_d = bp_rate_oracle(psi, grid2, hom_network(tau))
        dens = SPECTRUM.difference_distribution(grid1.nodes)
        one_d = grid1.integrate(dens * np.sin(grid1.nodes * tau) ** 2)
        assert two_d == pytest.approx(one_d, abs=1e-6)


# ----- reference implementations -----
#
# Test-local copies of the element-matrix chain product and of the
# outer-product quadratures the oracles used to run. The row-update chain
# and the matrix-vector pair oracle must reproduce them to round-off.


def _reference_element_matrix(el, om):
    one = np.ones(om.shape, dtype=complex)
    zero = np.zeros(om.shape, dtype=complex)
    if isinstance(el, BalancedBS):
        return np.array([[one, one], [one, -one]]) * (1.0 / np.sqrt(2.0))
    if isinstance(el, RelativeDelay):
        ph = np.exp(-1j * om * el.tau)
        return np.array([[ph, zero], [zero, np.conj(ph)]])
    if isinstance(el, AchromaticPhase):
        return np.array([[one, zero], [zero, np.exp(1j * el.theta) * one]])
    return np.array([[el.amp1 * one, zero], [zero, el.amp2 * one]])


def _reference_transfer_at(network, omega):
    om = np.asarray(omega, dtype=float)
    one = np.ones(om.shape, dtype=complex)
    zero = np.zeros(om.shape, dtype=complex)
    out = np.array([[one, zero], [zero, one]])
    for el in network.elements:
        out = np.einsum("ij...,jk...->ik...", _reference_element_matrix(el, om), out)
    return out


def _reference_bp_rate_oracle(amplitude, grid, network):
    psi = np.asarray(amplitude, dtype=complex)
    w = grid.weights
    s = _reference_transfer_at(network, grid.nodes)
    coinc = psi * np.outer(s[0, 0], s[1, 1]) + psi.T * np.outer(s[0, 1], s[1, 0])
    return float(np.einsum("i,j,ij->", w, w, np.abs(coinc) ** 2).real)


def _reference_cp_rate_oracle(alpha, grid, network):
    a = np.asarray(alpha, dtype=complex)
    s = _reference_transfer_at(network, grid.nodes)
    n1 = float(grid.integrate(np.abs((s[0, 0] + s[0, 1]) * a) ** 2))
    n2 = float(grid.integrate(np.abs((s[1, 0] + s[1, 1]) * a) ** 2))
    return n1 * n2


COMPLEX_LOSS = LossParams(xi1=0.8, xi2=0.55 * np.exp(0.9j), chi1=0.9 * np.exp(-0.4j), chi2=0.7)


def _reference_chains():
    """Standard, two-delay, complex-lossy two-delay, and a hand-built chain
    with the phase first, two splitters in a row and a loss last."""
    return [
        hom_network(1.3),
        hom_network(-0.45),
        mhom_network(0.7, -1.1, 0.9),
        mhom_network(-1.6, 0.35, math.pi / 2.0),
        mhom_network(0.7, -1.1, 0.9, loss=COMPLEX_LOSS),
        mhom_network(1.2, 0.8, -2.1, loss=COMPLEX_LOSS),
        OpticalNetwork((AchromaticPhase(1.1), BalancedBS(), BalancedBS(),
                        RelativeDelay(0.6), ScalarLoss(0.9j, 0.6 * np.exp(-2.0j)))),
    ]


def _pair_table(kind, grid):
    """Gaussian pair table: real symmetric, or reshaped into a real or complex
    asymmetric table renormalized on the grid."""
    x, y = grid.nodes[:, None], grid.nodes[None, :]
    psi = SPECTRUM.joint_amplitude(x, y)
    if kind == "real_symmetric":
        return psi
    psi = psi * (1.0 + 0.4 * np.tanh(x - y + 0.3))
    if kind == "complex_asymmetric":
        psi = psi * np.exp(1j * (0.7 * x - 0.2 * y + 0.15 * (x - 5.0) * (y - 5.0)))
    w = grid.weights
    return psi / math.sqrt(float(np.einsum("i,j,ij->", w, w, np.abs(psi) ** 2)))


TABLE_KINDS = ("real_symmetric", "real_asymmetric", "complex_asymmetric")


def _chirped_pulse(chirp, grid):
    alpha = PULSE.amplitude(grid.nodes)
    if chirp:
        alpha = alpha * np.exp(1j * chirp * (grid.nodes - PULSE.omega0) ** 2)
    return alpha


@pytest.mark.parametrize("nodes", [257, 641])
def test_transfer_matches_reference_chain_product(nodes):
    grid = pair_grid(SPECTRUM, n=nodes)
    for net in _reference_chains():
        got = transfer_at(net, grid.nodes)
        want = _reference_transfer_at(net, grid.nodes)
        assert got.shape == want.shape == (2, 2, nodes)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("nodes", [257, 641])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_bp_oracle_matches_reference_quadrature(kind, nodes):
    grid = pair_grid(SPECTRUM, n=nodes)
    psi = _pair_table(kind, grid)
    assert np.iscomplexobj(psi) == (kind == "complex_asymmetric")
    before = psi.copy()
    for net in _reference_chains():
        got = bp_rate_oracle(psi, grid, net)
        want = _reference_bp_rate_oracle(psi, grid, net)
        assert abs(got - want) <= 1e-13, (kind, net)
    np.testing.assert_array_equal(psi, before)


@pytest.mark.parametrize("nodes", [257, 641])
@pytest.mark.parametrize("chirp", [0.0, 0.8])
def test_cp_oracle_matches_reference_quadrature(chirp, nodes):
    grid = pulse_grid(PULSE, n=nodes)
    alpha = _chirped_pulse(chirp, grid)
    before = alpha.copy()
    for net in _reference_chains():
        got = cp_rate_oracle(alpha, grid, net)
        want = _reference_cp_rate_oracle(alpha, grid, net)
        assert abs(got - want) <= 1e-13, net
    np.testing.assert_array_equal(alpha, before)


# the table is read in row blocks: 17 nodes fit in one, 449 end on a
# partial block and 1025 take many
@pytest.mark.parametrize("nodes", [17, 257, 449, 641, 1025])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_bp_oracle_batch_matches_reference_quadrature(kind, nodes):
    grid = pair_grid(SPECTRUM, n=nodes)
    psi = _pair_table(kind, grid)
    before = psi.copy()
    chains = _reference_chains()
    got = bp_rate_oracle_batch(psi, grid, chains)
    assert got.shape == (len(chains),)
    for value, net in zip(got, chains):
        want = _reference_bp_rate_oracle(psi, grid, net)
        assert abs(value - want) <= 1e-13, (kind, net)
        assert abs(bp_rate_oracle_batch(psi, grid, [net])[0] - want) <= 1e-13, (kind, net)
    np.testing.assert_array_equal(psi, before)


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_bp_oracle_reads_any_table_layout(kind):
    grid = pair_grid(SPECTRUM, n=449)
    psi = _pair_table(kind, grid)
    chains = _reference_chains()
    want = bp_rate_oracle_batch(psi, grid, chains)
    padded = np.zeros((2 * grid.size, 3 * grid.size), dtype=psi.dtype)
    padded[1::2, ::3] = psi
    for table in (np.asfortranarray(psi), padded[1::2, ::3]):
        before = table.copy()
        got = bp_rate_oracle_batch(table, grid, chains)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(table, before)


@pytest.mark.parametrize("kind", ["real_symmetric", "complex_asymmetric"])
def test_bp_oracle_peak_memory_stays_below_the_table(kind):
    grid = pair_grid(SPECTRUM, n=1025)
    psi = _pair_table(kind, grid)
    net = mhom_network(0.7, -1.1, 0.9, loss=COMPLEX_LOSS)
    bp_rate_oracle(psi, grid, net)
    tracemalloc.start()
    try:
        bp_rate_oracle(psi, grid, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < psi.nbytes / 4, (peak, psi.nbytes)


@pytest.mark.parametrize("nodes", [257, 641])
@pytest.mark.parametrize("chirp", [0.0, 0.8])
def test_cp_oracle_batch_matches_reference_quadrature(chirp, nodes):
    grid = pulse_grid(PULSE, n=nodes)
    alpha = _chirped_pulse(chirp, grid)
    before = alpha.copy()
    chains = _reference_chains()
    got = cp_rate_oracle_batch(alpha, grid, chains)
    assert got.shape == (len(chains),)
    for value, net in zip(got, chains):
        assert abs(value - _reference_cp_rate_oracle(alpha, grid, net)) <= 1e-13, net
    np.testing.assert_array_equal(alpha, before)


def _nonuniform_grid(like):
    """Nodes packed towards the centre of ``like``'s span, with their trapezoid
    weights: unequal spacing and unequal positive weights."""
    center = 0.5 * (like.nodes[0] + like.nodes[-1])
    half_width = 0.5 * (like.nodes[-1] - like.nodes[0])
    t = np.linspace(-1.0, 1.0, like.size)
    nodes = center + half_width * np.sinh(2.0 * t) / np.sinh(2.0)
    gaps = np.diff(nodes)
    weights = 0.5 * (np.append(gaps, 0.0) + np.insert(gaps, 0, 0.0))
    grid = FrequencyGrid(nodes, weights)
    assert np.ptp(gaps) > 0.5 * gaps.min() and np.ptp(weights[1:-1]) > 0.5 * weights.min()
    return grid


@pytest.mark.parametrize("nodes", [257, 449])
@pytest.mark.parametrize("chirp", [0.0, 0.8])
def test_cp_oracle_matches_reference_on_nonuniform_grid(chirp, nodes):
    """The pulse oracle pre-weights the pushed field by sqrt(w); neither the
    node spacing nor a real amplitude may be assumed."""
    grid = _nonuniform_grid(pulse_grid(PULSE, n=nodes))
    alpha = _chirped_pulse(chirp, grid)
    assert np.iscomplexobj(alpha) == bool(chirp)
    chains = _reference_chains()
    batch = cp_rate_oracle_batch(alpha, grid, chains)
    for value, net in zip(batch, chains):
        want = _reference_cp_rate_oracle(alpha, grid, net)
        assert abs(cp_rate_oracle(alpha, grid, net) - want) <= 1e-13, net
        assert abs(value - want) <= 1e-13, net


@pytest.mark.parametrize("nodes", [257, 449])
@pytest.mark.parametrize("kind", ["real_asymmetric", "complex_asymmetric"])
def test_bp_oracle_matches_reference_on_nonuniform_grid(kind, nodes):
    grid = _nonuniform_grid(pair_grid(SPECTRUM, n=nodes))
    psi = _pair_table(kind, grid)
    chains = _reference_chains()
    batch = bp_rate_oracle_batch(psi, grid, chains)
    for value, net in zip(batch, chains):
        want = _reference_bp_rate_oracle(psi, grid, net)
        assert abs(bp_rate_oracle(psi, grid, net) - want) <= 1e-13, (kind, net)
        assert abs(value - want) <= 1e-13, (kind, net)


def test_scalar_oracles_are_the_batch_of_one():
    pgrid = pair_grid(SPECTRUM, n=257)
    psi = _pair_table("complex_asymmetric", pgrid)
    cgrid = pulse_grid(PULSE, n=257)
    alpha = _chirped_pulse(0.8, cgrid)
    for net in _reference_chains():
        assert bp_rate_oracle(psi, pgrid, net) == bp_rate_oracle_batch(psi, pgrid, [net])[0]
        assert cp_rate_oracle(alpha, cgrid, net) == cp_rate_oracle_batch(alpha, cgrid, [net])[0]


@pytest.mark.parametrize("source", ["bp", "cp"])
def test_oracle_batch_refuses_empty_and_foreign_entries(source):
    if source == "bp":
        grid = pair_grid(SPECTRUM, n=257)
        table, batch = tabulated_pair(SPECTRUM, grid), bp_rate_oracle_batch
    else:
        grid = pulse_grid(PULSE, n=257)
        table, batch = PULSE.amplitude(grid.nodes), cp_rate_oracle_batch
    with pytest.raises(ValueError, match="at least one chain"):
        batch(table, grid, [])
    with pytest.raises(ValueError, match="at least one chain"):
        batch(table, grid, iter(()))
    for bad in (hom_network(0.2).elements, None, BalancedBS()):
        with pytest.raises(TypeError, match=r"^networks\[1\] must be an OpticalNetwork"):
            batch(table, grid, [hom_network(0.1), bad, hom_network(0.3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_bp_oracle_batch_rejects_nonfinite_entries(kind, bad):
    grid = pair_grid(SPECTRUM, n=257)
    psi = _pair_table(kind, grid).copy()
    psi[3, 5] = bad
    before = psi.copy()
    with pytest.raises(ValueError, match="normalized"):
        bp_rate_oracle_batch(psi, grid, _reference_chains())
    np.testing.assert_array_equal(psi, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cp_oracle_batch_rejects_nonfinite_amplitudes(bad):
    grid = pulse_grid(PULSE, n=257)
    alpha = PULSE.amplitude(grid.nodes)
    alpha[7] = bad
    with pytest.raises(ValueError, match="finite"):
        cp_rate_oracle_batch(alpha, grid, _reference_chains())
    with pytest.raises(ValueError, match="grid"):
        cp_rate_oracle_batch(alpha[:-1], grid, _reference_chains())


@pytest.mark.parametrize("kind", ["real_asymmetric", "complex_asymmetric"])
def test_bp_oracle_validates_reshaped_tables(kind):
    grid = pair_grid(SPECTRUM, n=257)
    psi = _pair_table(kind, grid)
    with pytest.raises(ValueError, match="grid"):
        bp_rate_oracle(psi[:-1, :-1], grid, hom_network(0.0))
    with pytest.raises(ValueError, match="grid"):
        bp_rate_oracle(psi[:, :-1], grid, hom_network(0.0))
    with pytest.raises(ValueError, match="normalized"):
        bp_rate_oracle(2.0 * psi, grid, hom_network(0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["real_asymmetric", "complex_asymmetric"])
def test_bp_oracle_rejects_nonfinite_entries(kind, bad):
    grid = pair_grid(SPECTRUM, n=257)
    psi = _pair_table(kind, grid).copy()
    psi[3, 5] = bad
    with pytest.raises(ValueError, match="normalized"):
        bp_rate_oracle(psi, grid, hom_network(0.0))


# ----- coherent pulses -----


def test_cp_oracle_standard_zero_and_quadrature_point():
    grid = pulse_grid(PULSE, tau_max=1.0)
    alpha = PULSE.amplitude(grid.nodes)
    assert cp_rate_oracle(alpha, grid, hom_network(0.0)) == pytest.approx(0.0, abs=1e-8)
    tau = math.pi / (4.0 * PULSE.omega0)
    assert cp_rate_oracle(alpha, grid, hom_network(tau)) == pytest.approx(1.0, abs=1e-6)


def test_cp_oracle_two_delay_origin_for_any_phase():
    grid = pulse_grid(PULSE, tau_max=0.5)
    alpha = PULSE.amplitude(grid.nodes)
    for theta in (0.0, 1.1, math.pi / 2.0):
        got = cp_rate_oracle(alpha, grid, mhom_network(0.0, 0.0, theta))
        assert got == pytest.approx(1.0, abs=1e-8)


def test_cp_oracle_tracks_standard_closed_form():
    rng = np.random.default_rng(101)
    grid = pulse_grid(PULSE, tau_max=4.0)
    alpha = PULSE.amplitude(grid.nodes)
    for tau in rng.uniform(-4.0, 4.0, size=50):
        got = cp_rate_oracle(alpha, grid, hom_network(tau))
        want = hom_cp_analytic(tau, PULSE)
        assert got == pytest.approx(want, abs=1e-6 * max(want, 0.01))


def test_cp_oracle_tracks_two_delay_closed_form():
    rng = np.random.default_rng(202)
    grid = pulse_grid(PULSE, tau_max=4.0)
    alpha = PULSE.amplitude(grid.nodes)
    for _ in range(50):
        t1, t2 = rng.uniform(-4.0, 4.0, size=2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        got = cp_rate_oracle(alpha, grid, mhom_network(t1, t2, theta))
        want = mhom_cp_analytic(t1, t2, theta, PULSE)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-8)


def test_cp_oracle_validates_input():
    grid = pulse_grid(PULSE, tau_max=1.0)
    alpha = PULSE.amplitude(grid.nodes)
    with pytest.raises(ValueError, match="grid"):
        cp_rate_oracle(alpha[:-1], grid, hom_network(0.0))


# ----- classical mixtures -----


def test_cl_s_single_component_matches_pulse_closed_form():
    grid = pulse_grid(PULSE, tau_max=3.0)
    alpha = PULSE.amplitude(grid.nodes)
    rng = np.random.default_rng(303)
    for _ in range(20):
        t1, t2 = rng.uniform(-3.0, 3.0, size=2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        got = cl_s_rate([(1.0, alpha)], grid, t1, t2, theta)
        want = mhom_cp_analytic(t1, t2, theta, PULSE)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_cl_s_mixture_positive_at_origin():
    # grid sized for the widest component in the mixture
    grid = pulse_grid(CoherentSpectrum(5.0, 0.7, 1.0), tau_max=1.0)
    comps = [
        (0.5, PULSE.amplitude(grid.nodes)),
        (0.3, CoherentSpectrum(5.0, 0.4, 1.5).amplitude(grid.nodes)),
        (0.2, CoherentSpectrum(5.0, 0.7, 0.5).amplitude(grid.nodes)),
    ]
    got = cl_s_rate(comps, grid, 0.0, 0.0, math.pi / 2.0)
    want = 0.5 * 1.0**2 + 0.3 * 1.5**2 + 0.2 * 0.5**2
    assert got == pytest.approx(want, rel=1e-6)
    assert got > 0.0


def test_cl_s_nonnegative_everywhere():
    grid = pulse_grid(PULSE, tau_max=4.0)
    comps = [
        (0.6, PULSE.amplitude(grid.nodes)),
        (0.4, CoherentSpectrum(5.0, 0.9, 2.0).amplitude(grid.nodes)),
    ]
    rng = np.random.default_rng(404)
    for _ in range(30):
        t1, t2 = rng.uniform(-4.0, 4.0, size=2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        assert cl_s_rate(comps, grid, t1, t2, theta) >= 0.0


def test_cl_s_validates_weights():
    grid = pulse_grid(PULSE, tau_max=1.0)
    alpha = PULSE.amplitude(grid.nodes)
    with pytest.raises(ValueError, match="positive"):
        cl_s_rate([(-0.5, alpha), (1.5, alpha)], grid, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="sum"):
        cl_s_rate([(0.7, alpha)], grid, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="component"):
        cl_s_rate([], grid, 0.0, 0.0, 0.0)


# ----- argument checks -----

# a bool or a string is not a number; nan and the infinities are not finite
BAD_NUMBERS = [(True, TypeError), ("3", TypeError), (math.nan, ValueError),
               (math.inf, ValueError), (-math.inf, ValueError)]
GRIDS = {"pair": lambda **kw: pair_grid(SPECTRUM, **kw),
         "pulse": lambda **kw: pulse_grid(PULSE, **kw)}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", ["tau_max", "n"])
@pytest.mark.parametrize("bad, error", BAD_NUMBERS)
def test_grids_refuse_bad_tau_max_and_node_counts(grid, name, bad, error):
    with pytest.raises(error, match=rf"^{name} must be"):
        GRIDS[grid](**{name: bad})


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_grids_take_whole_node_counts_only(grid):
    make = GRIDS[grid]
    with pytest.raises(ValueError, match=r"^n must be a whole number of grid nodes, got 300\.7"):
        make(n=300.7)
    assert make(n=300.0).size == make(n=np.int64(300)).size == 300
    # a negative tau_max means its magnitude
    assert make(tau_max=-9.0).size == make(tau_max=9.0).size > 257


@pytest.mark.parametrize("name", ["tau1", "tau2", "theta"])
@pytest.mark.parametrize("bad, error", BAD_NUMBERS)
def test_cl_s_refuses_bad_delays_and_phase(name, bad, error):
    grid = pulse_grid(PULSE, tau_max=1.0)
    args = {"tau1": 0.3, "tau2": -0.2, "theta": 0.4, name: bad}
    with pytest.raises(error, match=rf"^{name} must be"):
        cl_s_rate([(1.0, PULSE.amplitude(grid.nodes))], grid, **args)


# ----- lossy pulse rate against a numerically averaged oracle -----


def test_cp_loss_coarse_matches_averaged_oracle():
    """Moderately lossy pulse chain: 2-D box average of the exact oracle
    reproduces the coarse lossy closed form within five percent of the
    plateau. Validates the sign pattern of the imbalance terms."""
    pulse = CoherentSpectrum(omega0=50.0, d_omega=0.5, total_intensity=1.0)
    loss = LossParams(xi1=1.0, xi2=0.85, chi1=0.95, chi2=0.8)
    theta = 0.7
    grid = pulse_grid(pulse, tau_max=3.0)
    alpha = pulse.amplitude(grid.nodes)

    def exact(t1, t2):
        t1, t2 = np.broadcast_arrays(np.asarray(t1, float), np.asarray(t2, float))
        points = list(zip(t1.ravel().tolist(), t2.ravel().tolist()))
        # blocks of 256 chains keep the pushed fields near 2 MB
        out = [cp_rate_oracle_batch(alpha, grid, [mhom_network(a, b, theta, loss=loss)
                                                  for a, b in points[i:i + 256]])
               for i in range(0, len(points), 256)]
        return np.concatenate(out).reshape(t1.shape)

    window = 0.4  # window * carrier = 20, window * spread = 0.2
    plateau = loss.a_cp_loss(1.0)
    for t1, t2 in ((0.0, 0.0), (1.0, 0.5), (2.0, 2.0)):
        got = box_average_surface(exact, t1, t2, window, n=96)
        want = float(mhom_cp_loss_coarse(t1, t2, pulse, loss))
        assert got == pytest.approx(want, abs=0.05 * plateau)
