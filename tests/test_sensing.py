"""Scan generation, feature extraction and offset recovery."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from homlab.rates import LossParams, RateCurve, RegimeWarning
from homlab.sensing import (
    ExtremaError,
    ExtremaReport,
    SensingScenario,
    find_extrema,
    invert_bp,
    invert_cp,
    run_sensing,
    scan_f,
)
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum

SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
PULSE = CoherentSpectrum(omega0=5.0, d_omega=1.0, total_intensity=1.0)


def test_scenario_delay_mapping():
    sc = SensingScenario(dl1_0=2.0, dl2_0=1.0, x1=0.5, c=1.0)
    assert sc.tau1 == pytest.approx(0.5, rel=1e-15)
    assert sc.tau2(0.25) == pytest.approx(0.25, rel=1e-15)
    fast = SensingScenario(dl1_0=2.0, dl2_0=1.0, c=2.0)
    assert fast.tau1 == pytest.approx(0.5, rel=1e-15)


def test_scenario_validation():
    with pytest.raises(ValueError):
        SensingScenario(dl1_0=1.0, dl2_0=0.0, c=0.0)
    with pytest.raises(ValueError):
        SensingScenario(dl1_0=float("nan"), dl2_0=0.0)


def test_bp_scan_has_three_features():
    sc = SensingScenario(dl1_0=4.4, dl2_0=-1.3)
    result = run_sensing(sc, SPECTRUM)
    r = result.report
    assert r.x_max == pytest.approx(-0.65, abs=1e-3)
    assert r.x_min_left == pytest.approx(-0.65 - 2.2, abs=1e-2)
    assert r.x_min_right == pytest.approx(-0.65 + 2.2, abs=1e-2)
    assert r.x_min_left < r.x_max < r.x_min_right
    assert r.width_min_left > 0 and r.width_max > 0


def test_bp_scan_recovers_offsets():
    sc = SensingScenario(dl1_0=4.4, dl2_0=-1.3)
    result = run_sensing(sc, SPECTRUM)
    assert result.dl1_recovered == pytest.approx(4.4, abs=0.1)
    assert result.dl2_recovered == pytest.approx(-1.3, abs=0.1)


def test_cp_scan_has_two_dips_and_recovers():
    sc = SensingScenario(dl1_0=3.0, dl2_0=0.8)
    result = run_sensing(sc, PULSE)
    r = result.report
    assert r.x_max is None
    assert r.x_min_left == pytest.approx(0.4 - 1.5, abs=1e-2)
    assert r.x_min_right == pytest.approx(0.4 + 1.5, abs=1e-2)
    assert result.dl1_recovered == pytest.approx(3.0, abs=0.1)
    assert result.dl2_recovered == pytest.approx(0.8, abs=0.1)


def test_visibility_table():
    """Feature excursions for the two sources, against their plateaus."""
    bp = run_sensing(SensingScenario(dl1_0=4.4, dl2_0=0.6), SPECTRUM).report
    cp = run_sensing(SensingScenario(dl1_0=4.4, dl2_0=0.6), PULSE).report
    assert bp.v_max == pytest.approx(0.5, abs=0.02)
    assert bp.v_min == pytest.approx(0.25, abs=0.02)
    assert cp.v_min == pytest.approx(0.125, abs=0.02)
    # strict ordering with clear gaps
    assert bp.v_max > bp.v_min + 0.1 > cp.v_min + 0.2


def test_scan_warns_when_first_stage_too_small():
    sc = SensingScenario(dl1_0=1.0, dl2_0=0.5)
    with pytest.warns(RegimeWarning, match="first-stage"):
        curve = scan_f(sc, SPECTRUM)
    assert curve.values.size == 2001


def test_cp_merged_dips_fail_extraction():
    sc = SensingScenario(dl1_0=0.2, dl2_0=0.0)
    with pytest.warns(RegimeWarning):
        with pytest.raises(ExtremaError, match="found 1"):
            run_sensing(sc, PULSE)


def test_degenerate_scan_is_flat_at_sample_resolution():
    """With a huge spectral width every feature is far below the sample
    spacing, so almost all samples sit on the plateau."""
    wide = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=500.0)
    sc = SensingScenario(dl1_0=3.0, dl2_0=1.0)
    curve = scan_f(sc, wide)
    deviation = np.abs(curve.values - curve.plateau) / curve.plateau
    assert np.quantile(deviation, 0.99) < 0.01


def test_scan_validates_inputs():
    sc = SensingScenario(dl1_0=4.0, dl2_0=0.0)
    with pytest.raises(ValueError, match="samples"):
        scan_f(sc, SPECTRUM, n=10)
    with pytest.raises(TypeError, match="^model must be a GaussianJointSpectrum"):
        scan_f(sc, "bp")
    for span, error in (("30", TypeError), (True, TypeError), (math.nan, ValueError),
                        (math.inf, ValueError)):
        with pytest.raises(error, match="^span must be"):
            scan_f(sc, SPECTRUM, span=span)
    with pytest.raises(ValueError, match="^span must be positive"):
        scan_f(sc, SPECTRUM, span=-3.0)
    whole = scan_f(sc, SPECTRUM, n=np.float64(101.0), span=np.int64(6))
    assert whole.axis.size == 101
    np.testing.assert_array_equal(whole.values, scan_f(sc, SPECTRUM, n=101, span=6.0).values)


# ----- feature extraction on synthetic curves -----


def synthetic_double_dip(x_left=-1.5, x_right=0.3, depth_left=0.3, depth_right=0.45):
    axis = np.linspace(-3.0, 3.0, 601)
    vals = np.ones_like(axis)
    vals -= depth_left * np.exp(-(((axis - x_left) / 0.25) ** 2))
    vals -= depth_right * np.exp(-(((axis - x_right) / 0.25) ** 2))
    return RateCurve(axis, vals, 1.0)


def test_find_extrema_on_synthetic_dips():
    step = 6.0 / 600
    report = find_extrema(synthetic_double_dip(), "dips")
    assert report.x_min_right == pytest.approx(0.3, abs=step / 10.0)
    assert report.x_min_left == pytest.approx(-1.5, abs=step / 10.0)
    assert report.v_min_right == pytest.approx(0.45, abs=1e-3)


def test_find_extrema_symmetric_dips():
    axis = np.linspace(-4.0, 4.0, 801)
    vals = 1.0 - 0.4 * (
        np.exp(-(((axis - 1.2) / 0.3) ** 2)) + np.exp(-(((axis + 1.2) / 0.3) ** 2))
    )
    report = find_extrema(RateCurve(axis, vals, 1.0), "dips")
    assert abs(report.x_min_left) == pytest.approx(abs(report.x_min_right), abs=1e-10)


def test_find_extrema_monotone_curve_fails_with_count():
    axis = np.linspace(0.0, 1.0, 101)
    curve = RateCurve(axis, 1.0 + axis, 1.0)
    with pytest.raises(ExtremaError, match="found 0"):
        find_extrema(curve, "dips")


# the 1e300 offset overflows the scan arithmetic on purpose
@pytest.mark.filterwarnings("ignore:first-stage delay too small",
                            "ignore:overflow encountered", "ignore:invalid value encountered")
def test_find_extrema_refuses_overflowing_positions():
    scenario = SensingScenario(dl1_0=1e300, dl2_0=-1.3)
    with pytest.raises(ExtremaError, match="^feature positions overflow at this scan step$"):
        run_sensing(scenario, CoherentSpectrum(5.0, 1.0), n=401)


def test_find_extrema_requires_central_peak():
    with pytest.raises(ExtremaError, match="central maximum"):
        find_extrema(synthetic_double_dip(), "peak_and_dips")
    with pytest.raises(ValueError, match="kind"):
        find_extrema(synthetic_double_dip(), "bumps")


def test_find_extrema_ignores_subprominence_wiggles():
    axis = np.linspace(-3.0, 3.0, 601)
    vals = np.ones_like(axis)
    vals -= 0.3 * np.exp(-(((axis - 1.0) / 0.25) ** 2))
    vals -= 0.3 * np.exp(-(((axis + 1.0) / 0.25) ** 2))
    vals -= 1e-4 * np.exp(-((axis / 0.1) ** 2))  # below the prominence cut
    report = find_extrema(RateCurve(axis, vals, 1.0), "dips")
    assert report.x_min_left == pytest.approx(-1.0, abs=1e-3)
    assert report.x_min_right == pytest.approx(1.0, abs=1e-3)


def test_find_extrema_power_of_two_rescaling_is_bitwise():
    base = synthetic_double_dip()
    scaled = RateCurve(base.axis, base.values * 4.0, base.plateau * 4.0)
    a, b = find_extrema(base, "dips"), find_extrema(scaled, "dips")
    assert a.x_min_left == b.x_min_left
    assert a.x_min_right == b.x_min_right
    assert a.v_min_left == b.v_min_left
    assert a.v_min_right == b.v_min_right


def test_find_extrema_general_rescaling_is_stable():
    base = synthetic_double_dip()
    scaled = RateCurve(base.axis, base.values * 1.7, base.plateau * 1.7)
    a, b = find_extrema(base, "dips"), find_extrema(scaled, "dips")
    assert b.x_min_left == pytest.approx(a.x_min_left, abs=1e-9)
    assert b.x_min_right == pytest.approx(a.x_min_right, abs=1e-9)
    assert b.v_min_left == pytest.approx(a.v_min_left, abs=1e-12)
    assert b.v_min_right == pytest.approx(a.v_min_right, abs=1e-12)


def test_extrema_report_validation_and_serialization():
    report = ExtremaReport(
        x_min_left=-1.0,
        x_min_right=1.0,
        v_min_left=0.2,
        v_min_right=0.2,
        width_min_left=0.5,
        width_min_right=0.5,
        x_max=0.1,
        v_max=0.4,
        width_max=0.7,
    )
    assert report.v_min == pytest.approx(0.2)
    blob = json.dumps(asdict(report))
    assert "x_min_left" in blob
    with pytest.raises(ValueError):
        ExtremaReport(
            x_min_left=-1.0,
            x_min_right=1.0,
            v_min_left=0.2,
            v_min_right=0.2,
            width_min_left=0.5,
            width_min_right=0.5,
            x_max=2.0,  # outside the dip pair
            v_max=0.4,
            width_max=0.7,
        )


# ----- inversion -----


def test_inversion_formulas_are_trivial_identities():
    assert invert_bp(0.0, 1.3) == (2.6, 0.0)
    assert invert_bp(-0.65, 1.55) == pytest.approx((4.4, -1.3))
    assert invert_cp(-1.2, 1.2) == (2.4, 0.0)
    assert invert_cp(-1.1, 1.9) == pytest.approx((3.0, 0.8))


def test_bp_and_cp_inversions_agree_on_one_pair_scan():
    """The pulse-style inversion applied to the pair scan's two dips must
    agree with the peak-based pair inversion."""
    sc = SensingScenario(dl1_0=5.0, dl2_0=-0.9)
    result = run_sensing(sc, SPECTRUM)
    r = result.report
    dl1_alt, dl2_alt = invert_cp(r.x_min_left, r.x_min_right)
    assert dl1_alt == pytest.approx(result.dl1_recovered, abs=5e-3)
    assert dl2_alt == pytest.approx(result.dl2_recovered, abs=5e-3)


def test_round_trip_random_scenarios():
    rng = np.random.default_rng(55)
    for _ in range(12):
        tau1 = rng.uniform(1.5, 4.0)
        dl2 = rng.uniform(-4.0, 4.0)
        sc = SensingScenario(dl1_0=2.0 * tau1, dl2_0=dl2)
        bp = run_sensing(sc, SPECTRUM)
        assert bp.dl1_recovered == pytest.approx(sc.dl1_0, abs=0.1)
        assert bp.dl2_recovered == pytest.approx(sc.dl2_0, abs=0.1)
        cp = run_sensing(sc, PULSE)
        assert cp.dl1_recovered == pytest.approx(sc.dl1_0, abs=0.1)
        assert cp.dl2_recovered == pytest.approx(sc.dl2_0, abs=0.1)


def test_lossy_scan_visibilities_scale_with_imbalance():
    from homlab.figures import chi2_for_eta_b

    sc = SensingScenario(dl1_0=5.0, dl2_0=-0.8)
    clean = run_sensing(sc, SPECTRUM).report
    for eta in (0.3, 0.6, 0.9):
        loss = LossParams(chi2=chi2_for_eta_b(eta))
        lossy = run_sensing(sc, SPECTRUM, loss=loss).report
        assert lossy.v_max == pytest.approx((1.0 - eta) * clean.v_max, abs=0.02)
        assert lossy.v_min == pytest.approx((1.0 - eta) * clean.v_min, abs=0.02)
        # positions survive the loss
        assert lossy.x_max == pytest.approx(clean.x_max, abs=1e-6)
