"""Positioning geometry and the end-to-end scan recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.qps import (
    QpsTarget,
    qps_forward,
    qps_invert,
    qps_scan,
    qps_scan_samples,
)
from homlab.rates import LossParams, bp_plateau
from homlab.spectra import GaussianJointSpectrum

SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
SQRT2 = math.sqrt(2.0)


def wrapped_distance(a, b):
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def test_target_validation_and_normalization():
    t = QpsTarget(r=2.0, gamma=0.3, vartheta=-0.5)
    assert 0.0 <= t.vartheta < 2.0 * math.pi
    assert t.vartheta == pytest.approx(2.0 * math.pi - 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        QpsTarget(r=0.0, gamma=0.3, vartheta=0.0)
    with pytest.raises(ValueError):
        QpsTarget(r=1.0, gamma=2.0, vartheta=0.0)
    with pytest.raises(ValueError):
        QpsTarget(r=1.0, gamma=-0.1, vartheta=0.0)


def test_target_position_components():
    t = QpsTarget(r=2.0, gamma=0.4, vartheta=1.1)
    x, y, z = t.position()
    assert x == pytest.approx(2.0 * math.cos(0.4) * math.sin(1.1), rel=1e-14)
    assert y == pytest.approx(2.0 * math.cos(0.4) * math.cos(1.1), rel=1e-14)
    assert z == pytest.approx(2.0 * math.sin(0.4), rel=1e-14)
    assert np.linalg.norm(t.position()) == pytest.approx(2.0, rel=1e-14)


def test_forward_zenith():
    d = qps_forward(QpsTarget(r=1.5, gamma=math.pi / 2.0, vartheta=0.7))
    for l in (d.l1, d.l2, d.l3, d.l4):
        assert l == pytest.approx(1.5 * SQRT2, rel=1e-12)
    assert abs(d.s1) <= 1e-12 and abs(d.s2) <= 1e-12


def test_forward_horizon_point():
    d = qps_forward(QpsTarget(r=2.0, gamma=0.0, vartheta=0.0))
    assert d.l1 == pytest.approx(4.0, rel=1e-14)
    assert d.l2 == pytest.approx(0.0, abs=1e-12)
    assert d.s1 == pytest.approx(2.0, rel=1e-14)
    assert d.l3 == pytest.approx(2.0 * SQRT2, rel=1e-14)
    assert d.l4 == pytest.approx(2.0 * SQRT2, rel=1e-14)
    assert d.s2 == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=80)
@given(
    r=st.floats(0.1, 10.0),
    gamma=st.floats(0.0, math.pi / 2.0),
    vartheta=st.floats(0.0, 2.0 * math.pi - 1e-9),
)
def test_baseline_length_identity(r, gamma, vartheta):
    d = qps_forward(QpsTarget(r=r, gamma=gamma, vartheta=vartheta))
    four_r2 = 4.0 * r * r
    assert d.l1**2 + d.l2**2 == pytest.approx(four_r2, rel=1e-12)
    assert d.l3**2 + d.l4**2 == pytest.approx(four_r2, rel=1e-12)
    for l in (d.l1, d.l2, d.l3, d.l4):
        assert -1e-12 <= l <= 2.0 * r * (1.0 + 1e-12)
    assert -1e-12 <= d.s1 <= r * (1.0 + 1e-12)
    assert -1e-12 <= d.s2 <= r * (1.0 + 1e-12)


def test_control_delay_monotone_in_direction_cosine():
    r = 1.0
    us = np.linspace(0.0, 1.0, 21)
    s1s = []
    for u in us:
        # gamma=0 target with vartheta chosen so cos(vartheta) = u
        t = QpsTarget(r=r, gamma=0.0, vartheta=math.acos(u))
        s1s.append(qps_forward(t).s1)
    assert all(b > a - 1e-13 for a, b in zip(s1s, s1s[1:]))
    assert s1s[0] == pytest.approx(0.0, abs=1e-12)
    assert s1s[-1] == pytest.approx(r, rel=1e-12)


def test_invert_round_trip_random_targets():
    rng = np.random.default_rng(606)
    for _ in range(100):
        t = QpsTarget(
            r=rng.uniform(0.2, 5.0),
            gamma=rng.uniform(0.02, math.pi / 2.0 - 0.02),
            vartheta=rng.uniform(0.0, 2.0 * math.pi),
        )
        d = qps_forward(t)
        sign_u = 1 if t.u >= 0.0 else -1
        sign_v = 1 if t.v >= 0.0 else -1
        inv = qps_invert(t.r, d.s1, d.s2, sign_u=sign_u, sign_v=sign_v)
        assert inv.target.gamma == pytest.approx(t.gamma, abs=1e-9)
        assert wrapped_distance(inv.target.vartheta, t.vartheta) <= 1e-9
        assert not inv.degenerate_azimuth


def test_invert_zenith_is_flagged():
    inv = qps_invert(2.0, 0.0, 0.0)
    assert inv.degenerate_azimuth
    assert inv.target.gamma == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert inv.target.vartheta == 0.0


def test_invert_horizon_points():
    east = qps_invert(1.0, 1.0, 0.0, sign_u=1)
    assert east.target.gamma == pytest.approx(0.0, abs=1e-9)
    assert east.target.vartheta == pytest.approx(0.0, abs=1e-9)
    west = qps_invert(1.0, 1.0, 0.0, sign_u=-1)
    assert west.target.vartheta == pytest.approx(math.pi, rel=1e-9)


def test_invert_validation():
    with pytest.raises(ValueError, match="s1"):
        qps_invert(1.0, -0.5, 0.0)
    with pytest.raises(ValueError, match="s2"):
        qps_invert(1.0, 0.0, 1.5)
    with pytest.raises(ValueError, match="inconsistent"):
        qps_invert(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="sign"):
        qps_invert(1.0, 0.5, 0.5, sign_u=2)
    for name in ("sign_u", "sign_v"):
        for sign in (True, 1.0, "1", None):
            with pytest.raises(TypeError, match=f"^{name} must be the int"):
                qps_invert(1.0, 0.5, 0.5, **{name: sign})
        with pytest.raises(ValueError, match=f"^{name} must be \\+1 or -1, got 0"):
            qps_invert(1.0, 0.5, 0.5, **{name: 0})
    assert qps_invert(1.0, 0.5, 0.5, np.int64(-1), np.int64(1)) == qps_invert(1.0, 0.5, 0.5, -1, 1)
    with pytest.raises(ValueError, match="^r must be positive and finite, got -1.0"):
        qps_invert(-1.0, 0.0, 0.0)


# ----- end-to-end scan -----


def abs_direction_cosine(r, s):
    w = 1.0 - (s / r) ** 2
    return math.sqrt(max(0.0, 1.0 - w * w))


def angular_allowance(target, path_err):
    """Largest angle shift produced by perturbing both control delays by
    up to the given path error, evaluated at the corner cases."""
    d = qps_forward(target)
    su = 1.0 if target.u >= 0.0 else -1.0
    sv = 1.0 if target.v >= 0.0 else -1.0
    worst_g, worst_t = 0.0, 0.0
    for da in (-path_err, 0.0, path_err):
        for db in (-path_err, 0.0, path_err):
            s1 = min(max(d.s1 + da, 0.0), target.r)
            s2 = min(max(d.s2 + db, 0.0), target.r)
            u = su * abs_direction_cosine(target.r, s1)
            v = sv * abs_direction_cosine(target.r, s2)
            norm = math.hypot(u, v)
            if norm > 1.0:
                u, v = u / norm, v / norm
            gamma = math.acos(min(math.hypot(u, v), 1.0))
            vartheta = math.atan2(v, u)
            worst_g = max(worst_g, abs(gamma - target.gamma))
            worst_t = max(worst_t, wrapped_distance(vartheta, target.vartheta))
    return worst_g, worst_t


def test_scan_recovers_random_targets():
    rng = np.random.default_rng(707)
    path_err = 0.1  # 0.1 * c / spectral width in these units
    for _ in range(5):
        target = QpsTarget(
            r=2.0,
            gamma=rng.uniform(0.1, 1.4),
            vartheta=rng.uniform(0.0, 2.0 * math.pi),
        )
        truth = qps_forward(target)
        out = qps_scan(target, SPECTRUM)
        assert abs(out.s1 - truth.s1) <= path_err
        assert abs(out.s2 - truth.s2) <= path_err
        allow_g, allow_t = angular_allowance(target, path_err)
        assert out.gamma_error <= allow_g + 1e-6
        assert out.vartheta_error <= allow_t + 1e-6


def test_scan_near_zenith():
    target = QpsTarget(r=2.0, gamma=math.pi / 2.0, vartheta=0.3)
    out = qps_scan(target, SPECTRUM)
    assert out.gamma_error <= 0.01
    assert out.position_error <= 0.01 * target.r


@pytest.mark.parametrize("r", [0.7, 2.0, 5.0])
def test_scan_reads_cosines_outside_the_disk_as_the_horizon(r):
    # scan error puts a horizon target's recovered direction cosines on
    # either side of the unit circle; outside it the elevation is exactly 0,
    # not acos(1 - 2**-53)
    outside = 0
    for k in range(12):
        target = QpsTarget(r=r, gamma=0.0, vartheta=2.0 * math.pi * k / 12.0)
        out = qps_scan(target, SPECTRUM, surface_n=2)
        if math.hypot(abs_direction_cosine(r, out.s1), abs_direction_cosine(r, out.s2)) >= 1.0:
            outside += 1
            assert out.recovered.gamma == 0.0, k
    assert outside >= 3


def test_scan_curve_and_surface_payloads():
    target = QpsTarget(r=2.0, gamma=0.8, vartheta=2.5)
    out = qps_scan(target, SPECTRUM, surface_n=41)
    assert out.curve.values.size >= 2001
    assert out.surface.values.shape == (41, 41)
    assert out.report.x_min_left < out.report.x_max < out.report.x_min_right
    assert out.sign_u in (-1, 1) and out.sign_v in (-1, 1)


def test_scan_with_internal_baseline_loss():
    """Half internal imbalance halves both scan visibilities but the
    features, and with them the recovery, survive."""
    from homlab.figures import chi2_for_eta_b

    target = QpsTarget(r=2.0, gamma=0.7, vartheta=0.9)
    truth = qps_forward(target)
    clean = qps_scan(target, SPECTRUM)
    lossy = qps_scan(target, SPECTRUM, loss=LossParams(chi2=chi2_for_eta_b(0.5)))
    assert lossy.report.v_max == pytest.approx(0.5 * clean.report.v_max, abs=0.02)
    assert lossy.report.v_min == pytest.approx(0.5 * clean.report.v_min, abs=0.02)
    assert abs(lossy.s1 - truth.s1) <= 0.1
    assert abs(lossy.s2 - truth.s2) <= 0.1


def test_scan_input_imbalance_only_rescales():
    """Strong input-path imbalance changes the overall rate scale but not
    the normalized curve, so the recovered position is untouched."""
    target = QpsTarget(r=2.0, gamma=0.5, vartheta=4.0)
    clean = qps_scan(target, SPECTRUM)
    lossy = qps_scan(target, SPECTRUM, loss=LossParams(xi1=1.0, xi2=0.2))
    np.testing.assert_allclose(
        lossy.curve.values / lossy.curve.plateau,
        clean.curve.values / clean.curve.plateau,
        rtol=1e-12,
    )
    assert lossy.recovered.gamma == pytest.approx(clean.recovered.gamma, abs=1e-9)
    assert wrapped_distance(lossy.recovered.vartheta, clean.recovered.vartheta) <= 1e-9


def test_scan_rejects_fully_dark_input_path():
    """At total input imbalance no photon pairs survive, so the scan cannot
    normalize its curve and the degenerate request is rejected."""
    loss = LossParams(xi2=0.0)
    assert loss.eta_a == 1.0
    assert bp_plateau(loss) == 0.0
    target = QpsTarget(r=2.0, gamma=0.5, vartheta=1.0)
    with pytest.raises(ValueError, match="plateau"):
        qps_scan(target, SPECTRUM, loss=loss)


def test_scan_validates_speed_of_light():
    target = QpsTarget(r=1.0, gamma=0.5, vartheta=0.5)
    with pytest.raises(ValueError, match="c must be positive"):
        qps_scan(target, SPECTRUM, c=0.0)
    for c, error in ((True, TypeError), ("1", TypeError), (math.nan, ValueError),
                     (math.inf, ValueError)):
        with pytest.raises(error, match="^c must be"):
            qps_scan(target, SPECTRUM, c=c)
        with pytest.raises(error, match="^c must be"):
            qps_scan_samples(target, SPECTRUM, c=c)


def test_scan_takes_whole_sample_counts_of_any_type():
    target = QpsTarget(r=1.0, gamma=0.5, vartheta=0.5)
    want = qps_scan(target, SPECTRUM, n=2001, surface_n=5)
    got = qps_scan(target, SPECTRUM, c=np.int64(1), n=2001.0, surface_n=np.int64(5))
    assert got.surface.values.shape == (5, 5)
    np.testing.assert_array_equal(got.curve.values, want.curve.values)
    np.testing.assert_array_equal(got.surface.values, want.surface.values)


def test_scan_samples_for_a_subnormal_c_are_infinite():
    target = QpsTarget(r=2.0, gamma=0.8, vartheta=2.2)
    assert qps_scan_samples(target, SPECTRUM, 5e-324) == math.inf
    assert qps_scan_samples(target, SPECTRUM, 1e-320) == math.inf
    assert qps_scan_samples(target, SPECTRUM, 1.0) == 2001.0
