"""Two-mode network elements, composition and the locked conventions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.network import (
    AchromaticPhase,
    BalancedBS,
    OpticalNetwork,
    RelativeDelay,
    ScalarLoss,
    box_average_curve,
    hom_network,
    mhom_network,
    make_grid,
    transfer_at,
)
from homlab.qps import QpsTarget, qps_invert, qps_scan, qps_scan_samples
from homlab.rates import RegimeError, window_nodes
from homlab.sensing import SensingScenario, scan_f
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum, validate_amplitude

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_balanced_bs_matrix_frozen():
    m = transfer_at(OpticalNetwork((BalancedBS(),)), 0.0)
    expected = INV_SQRT2 * np.array([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_array_equal(m, expected.astype(complex))


def test_zero_delay_is_identity():
    np.testing.assert_array_equal(transfer_at(OpticalNetwork((RelativeDelay(0.0),)), 1.3),
                                  np.eye(2, dtype=complex))


def test_quarter_phase_matrix():
    m = transfer_at(OpticalNetwork((AchromaticPhase(math.pi / 2.0),)), 2.0)
    np.testing.assert_allclose(m, np.diag([1.0, 1.0j]), atol=1e-12)


def test_relative_delay_split_convention():
    """Delay tau puts e^{-i w tau} on the first path and e^{+i w tau} on the
    second."""
    w, tau = 0.7, 1.9
    m = transfer_at(OpticalNetwork((RelativeDelay(tau),)), w)
    np.testing.assert_allclose(m[0, 0], np.exp(-1j * w * tau), rtol=1e-15)
    np.testing.assert_allclose(m[1, 1], np.exp(+1j * w * tau), rtol=1e-15)
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_standard_chain_entries_frozen():
    """Mixer-after-delay transfer at w*tau = pi/3, checked entry by entry."""
    w, tau = math.pi / 3.0, 1.0
    s = transfer_at(hom_network(tau), w)
    ep = np.exp(1j * math.pi / 3.0)
    em = np.exp(-1j * math.pi / 3.0)
    np.testing.assert_allclose(
        s,
        INV_SQRT2 * np.array([[em, ep], [em, -ep]]),
        rtol=0.0,
        atol=1e-15,
    )


def test_standard_chain_at_zero_delay_is_mixer():
    np.testing.assert_array_equal(transfer_at(hom_network(0.0), 4.2),
                                  transfer_at(OpticalNetwork((BalancedBS(),)), 4.2))


def test_modified_chain_identity_up_to_phase():
    """With both delays and the phase at zero the two mixers cancel."""
    s = transfer_at(mhom_network(0.0, 0.0, 0.0), 3.1)
    # quotient out the global phase using the first diagonal entry
    phase = s[0, 0] / abs(s[0, 0])
    np.testing.assert_allclose(s / phase, np.eye(2), atol=1e-12)


def _compact_modified_entries(tau1, tau2, theta, w):
    """Hand-derived closed transfer matrix of the two-stage chain."""
    half = w * tau2 + theta / 2.0
    c, s = np.cos(half), np.sin(half)
    left = np.exp(-1j * (w * tau1 - theta / 2.0))
    right = np.exp(1j * (w * tau1 + theta / 2.0))
    return np.array(
        [
            [c * left, -1j * s * right],
            [-1j * s * left, c * right],
        ]
    )


def test_modified_chain_matches_compact_form():
    """Convention lock: element-wise agreement with the compact closed form
    for 100 random parameter tuples."""
    rng = np.random.default_rng(20260825)
    for _ in range(100):
        tau1, tau2 = rng.uniform(-3, 3, size=2)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        w = rng.uniform(0.1, 12.0)
        got = transfer_at(mhom_network(tau1, tau2, theta), w)
        want = _compact_modified_entries(tau1, tau2, theta, w)
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=60)
@given(
    tau1=st.floats(-5.0, 5.0),
    tau2=st.floats(-5.0, 5.0),
    theta=st.floats(-7.0, 7.0),
    w=st.floats(0.0, 20.0),
)
def test_lossless_transfer_is_unitary(tau1, tau2, theta, w):
    s = transfer_at(mhom_network(tau1, tau2, theta), w)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-12)


def test_lossy_transfer_is_passive():
    from homlab.rates import LossParams

    loss = LossParams(xi1=0.8, xi2=0.5 * np.exp(0.3j), chi1=0.9, chi2=0.25)
    for w in (0.3, 2.0, 11.0):
        s = transfer_at(mhom_network(1.0, -0.7, 0.4, loss=loss), w)
        assert np.linalg.svd(s, compute_uv=False).max() <= 1.0 + 1e-12


def test_composition_is_associative():
    w = 1.7
    elements = [RelativeDelay(0.4), BalancedBS(), AchromaticPhase(0.9), RelativeDelay(-1.1)]
    chained = transfer_at(OpticalNetwork(elements=tuple(elements)), w)
    manual = np.eye(2, dtype=complex)
    for el in elements:
        manual = transfer_at(OpticalNetwork((el,)), w) @ manual
    np.testing.assert_allclose(chained, manual, rtol=1e-15)
    # splitting the chain in two and multiplying gives the same transfer
    left = transfer_at(OpticalNetwork(elements=tuple(elements[:2])), w)
    right = transfer_at(OpticalNetwork(elements=tuple(elements[2:])), w)
    np.testing.assert_allclose(right @ left, chained, atol=1e-14)


def test_transfer_broadcasts_over_frequency():
    net = mhom_network(0.8, -0.3, 0.5)
    ws = np.linspace(0.1, 9.0, 23)
    stacked = transfer_at(net, ws)
    assert stacked.shape == (2, 2, 23)
    for k, w in enumerate(ws):
        np.testing.assert_allclose(stacked[..., k], transfer_at(net, w), rtol=1e-15)


def test_scalar_loss_matrix():
    m = transfer_at(OpticalNetwork((ScalarLoss(0.5, 0.25j),)), 3.0)
    np.testing.assert_array_equal(m, np.diag([0.5 + 0.0j, 0.25j]))


def test_validate_amplitude():
    assert validate_amplitude(0.5, "a") == 0.5 + 0.0j
    assert validate_amplitude(1.0, "a") == 1.0 + 0.0j
    z = validate_amplitude(np.exp(0.7j), "a")
    assert abs(z) <= 1.0 + 1e-12
    with pytest.raises(ValueError, match="a"):
        validate_amplitude(1.2, "a")
    with pytest.raises(TypeError):
        validate_amplitude("bright", "a")
    with pytest.raises(TypeError):
        validate_amplitude(True, "a")
    for bad in (complex(math.nan, 0.0), complex(0.5, math.inf)):
        with pytest.raises(ValueError, match="^a must be finite$"):
            validate_amplitude(bad, "a")


def test_network_refuses_an_unsupported_element():
    with pytest.raises(TypeError, match="^unsupported network element str$"):
        OpticalNetwork((BalancedBS(), "mirror"))


def test_mhom_network_element_order_with_loss():
    from homlab.rates import LossParams

    loss = LossParams(xi1=0.9, xi2=0.8, chi1=0.7, chi2=0.6)
    net = mhom_network(1.0, 2.0, 0.3, loss=loss)
    kinds = [type(el).__name__ for el in net.elements]
    assert kinds == [
        "ScalarLoss",
        "RelativeDelay",
        "BalancedBS",
        "ScalarLoss",
        "RelativeDelay",
        "AchromaticPhase",
        "BalancedBS",
    ]


_PAIR = {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0}
_PULSE = {"omega0": 5.0, "d_omega": 0.5, "total_intensity": 1.0}
_TARGET = {"r": 4.0, "gamma": 0.3, "vartheta": 1.0}
_INVERT = {"r": 4.0, "s1": 0.0, "s2": 0.0}

# Every real scalar field of a record and every real scalar argument checked
# by ``finite_real``: its name and a call with it set to x (the others valid).
_REAL_INPUTS = [
    ("tau", lambda x: RelativeDelay(x)),
    ("theta", lambda x: AchromaticPhase(x)),
    ("dl2_0", lambda x: SensingScenario(dl1_0=1.0, dl2_0=x)),
    ("c", lambda x: SensingScenario(dl1_0=1.0, dl2_0=0.0, c=x)),
    ("span", lambda x: scan_f(SensingScenario(4.0, 0.5), GaussianJointSpectrum(**_PAIR),
                              n=51, span=x).axis.tolist()),
    *[(k, lambda x, k=k: GaussianJointSpectrum(**{**_PAIR, k: x})) for k in _PAIR],
    *[(k, lambda x, k=k: CoherentSpectrum(**{**_PULSE, k: x})) for k in _PULSE],
    *[(k, lambda x, k=k: QpsTarget(**{**_TARGET, k: x})) for k in _TARGET],
    ("center", lambda x: make_grid(x, 1.0, 16).nodes.tolist()),
    ("half_width", lambda x: make_grid(0.0, x, 16).nodes.tolist()),
    *[(k, lambda x, k=k: qps_invert(**{**_INVERT, k: x})) for k in _INVERT],
    ("c", lambda x: qps_scan_samples(QpsTarget(**_TARGET), GaussianJointSpectrum(**_PAIR), x)),
    ("c", lambda x: qps_scan(QpsTarget(**_TARGET), GaussianJointSpectrum(**_PAIR), c=x,
                             surface_n=2).recovered),
    # the window_nodes calls keep the regime for every value from 0.25 to 3
    ("window", lambda x: window_nodes(None, x, 100.0, 0.05)),
    ("carrier", lambda x: window_nodes(None, 80.0, x, 1e-3)),
    ("envelope", lambda x: window_nodes(None, 0.06, 400.0, x)),
    ("window", lambda x: box_average_curve(np.cos, 0.0, x, 2)),
]
# The entries whose value must also be positive.
_POSITIVE = {"c", "span", "omega0", "d_omega_plus", "d_omega_minus", "d_omega",
             "total_intensity", "r", "half_width", "window", "carrier", "envelope"}


@pytest.mark.parametrize("bad", [True, False, "0.3", None, 0.3 + 0j, [0.3], np.array(0.3)])
def test_real_fields_refuse_bools_and_non_real_values(bad):
    for name, call in _REAL_INPUTS:
        if name == "span" and bad is None:
            continue  # no span picks the default one
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            call(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, -10**400],
                         ids=["nan", "inf", "-inf", "int400", "-int400"])
def test_real_fields_refuse_non_finite_values(bad):
    for name, call in _REAL_INPUTS:
        if name == "envelope" and bad == math.inf:
            with pytest.raises(RegimeError, match="smear the envelope"):
                call(bad)  # an infinite envelope is a regime error, not a refusal
            continue
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(bad)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -1e308])
def test_positive_fields_refuse_values_that_are_not_positive(bad):
    inputs = [(name, call) for name, call in _REAL_INPUTS if name in _POSITIVE]
    assert len(inputs) == 17
    for name, call in inputs:
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive and finite, got {re.escape(repr(bad))}$"):
            call(bad)


@pytest.mark.parametrize("value", [3, np.int64(3), np.float64(0.25), 0.25, 1, np.int64(1)])
def test_real_fields_store_plain_floats(value):
    for name, call in _REAL_INPUTS:
        if name == "gamma" and value > math.pi / 2.0:
            continue  # outside the elevation range; the int 1 cases cover gamma
        out = call(value)
        if hasattr(out, name):  # a record stores the field
            stored = getattr(out, name)
            assert type(stored) is float and stored == float(value), name
        else:  # a function returns what it returns for the float
            assert out == call(float(value)), name
    with pytest.raises(ValueError, match="^tau must be finite"):
        RelativeDelay(math.inf)
