"""Scan generation, feature extraction and offset recovery."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from homlab.rates import LossParams, RateCurve, RegimeWarning
from homlab.sensing import (
    _PROMINENCE,
    ExtremaError,
    ExtremaReport,
    SensingScenario,
    find_extrema,
    invert_bp,
    invert_cp,
    run_sensing,
    scan_f,
)
from homlab.sensing import _half_excursion_width, _local_extrema
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


def test_scan_keeps_a_default_span_that_underflows_to_zero():
    pair = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=20.0)
    sc = SensingScenario(dl1_0=0.0, dl2_0=0.0, c=5e-324)
    with pytest.warns(RegimeWarning, match="first-stage"):
        curve = scan_f(sc, pair)
    assert curve.axis.size == 2001
    assert not curve.axis.any()


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


@pytest.mark.parametrize("model, kind", [(SPECTRUM, "peak_and_dips"), (PULSE, "dips")],
                         ids=["pair", "pulse"])
def test_find_extrema_reads_a_decreasing_axis_as_its_reversal(model, kind):
    curve = scan_f(SensingScenario(dl1_0=4.4, dl2_0=-1.3), model)
    assert curve.axis.size == 2001
    flipped = RateCurve(curve.axis[::-1], curve.values[::-1], curve.plateau)
    want, got = asdict(find_extrema(curve, kind)), asdict(find_extrema(flipped, kind))
    assert [key for key, value in got.items() if value is None] == (
        [] if kind == "peak_and_dips" else ["x_max", "v_max", "width_max"])
    for key, value in want.items():
        assert got[key] == (None if value is None else pytest.approx(value, rel=0, abs=1e-12))


def _stamped(*dips):
    """A plateau-1 curve on the axis ``k / 10`` for ``k`` in ``[-40, 40]``, with
    each ``(center index, five samples)`` of ``dips`` stamped in."""
    axis = np.arange(-40, 41) / 10.0
    values = np.ones(axis.size)
    for center, samples in dips:
        values[center - 2:center + 3] = samples
    return RateCurve(axis, values, 1.0)


_SHALLOW = (0.9, 0.7, 0.5, 0.7, 0.9)
_DEEP = (0.8, 0.5, 0.3, 0.5, 0.8)


# the deep dip at x = 2.5 ranks first; of the two equal ones, the kept one
# is nearer zero (x = 1 against -3), or at equal |x| the one at negative x
@pytest.mark.parametrize("tied, kept", [((10, 50), 50), ((30, 50), 30)],
                         ids=["nearer_zero", "equal_magnitude"])
def test_find_extrema_breaks_prominence_ties_toward_zero_control(tied, kept):
    curve = _stamped(*((i, _SHALLOW) for i in tied), (65, _DEEP))
    report = find_extrema(curve, "dips")
    assert report.x_min_left == pytest.approx(curve.axis[kept], rel=0, abs=1e-12)
    assert report.x_min_right == pytest.approx(2.5, rel=0, abs=1e-12)
    assert (report.v_min_left, report.v_min_right) == pytest.approx((0.5, 0.7))


def test_find_extrema_refines_a_flat_bottomed_dip_to_its_middle_sample():
    flat = (0.9, 0.5, 0.5, 0.5, 0.9)
    report = find_extrema(_stamped((20, flat), (55, flat)), "dips")
    assert (report.x_min_left, report.x_min_right) == (-2.0, 1.5)
    assert report.v_min_left == report.v_min_right == 0.5


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


# ----- the array extraction against per-sample walks -----


def _walked_extrema(x, y, plateau):
    """``_local_extrema`` as a walk over the samples, one run of equal samples at a time."""
    dips, peaks = [], []
    i = 1
    while i < y.size - 1:
        j = i
        while j < y.size - 1 and y[j + 1] == y[j]:
            j += 1
        if j >= y.size - 1:
            break
        k = (i + j) // 2
        if y[i] < y[i - 1] and y[j] < y[j + 1]:
            depth = (plateau - y[k]) / plateau
            if depth >= _PROMINENCE:
                dips.append((k, depth))
        elif y[i] > y[i - 1] and y[j] > y[j + 1]:
            height = (y[k] - plateau) / plateau
            if height >= _PROMINENCE:
                peaks.append((k, height))
        i = j + 1
    return tuple([k for k, _ in sorted(found, key=lambda kp: (-kp[1], abs(x[kp[0]]), x[kp[0]]))]
                 for found in (dips, peaks))


def _walked_width(x, y, i, plateau):
    """``_half_excursion_width`` as a walk outward from sample ``i`` on each side."""
    half = 0.5 * (y[i] + plateau)
    below = y[i] < plateau

    def crossing(step):
        j = i
        while 0 <= j + step < y.size and ((y[j] < half) == below):
            j += step
        # j is the first sample past the half level, or else the scan's end sample
        a, b = sorted((j - step, j))
        if y[b] == y[a]:
            return float(x[j - step])
        frac = (half - y[a]) / (y[b] - y[a])
        return float(x[a] + frac * (x[b] - x[a]))

    return abs(crossing(+1) - crossing(-1))


def _runs_curve(rng):
    """2 to 40 samples in runs of 1 to 4 equal values drawn from a few levels around
    the plateau 1, on an axis of tenths centred anywhere in it, so flat runs, runs at
    either end, tied prominences and tied |x| are all common."""
    n = int(rng.integers(2, 41))
    levels = rng.choice([0.2, 0.5, 0.7, 0.9, 0.999, 1.0, 1.3, 1.6], size=n)
    y = np.repeat(levels, rng.integers(1, 5, size=n))[:n]
    x = (np.arange(n) - rng.integers(0, n)) / 10.0
    return x, y


def _compare_with_walks(x, y, plateau=1.0):
    """Check the array extraction against the walks; return the candidates."""
    got, want = _local_extrema(x, y, plateau), _walked_extrema(x, y, plateau)
    assert [list(kind) for kind in got] == list(want)
    for i in want[0] + want[1]:
        assert _half_excursion_width(x, y, i, plateau) == _walked_width(x, y, i, plateau)
    return want[0] + want[1]


def test_array_extraction_matches_the_walks_on_curves_with_flat_runs():
    rng = np.random.default_rng(36)
    seen = {"candidates": 0, "end_runs": 0, "tied": 0, "edge_pair": 0}
    for _ in range(1500):
        x, y = _runs_curve(rng)
        found = _compare_with_walks(x, y)
        seen["candidates"] += len(found)
        seen["end_runs"] += y.size > 2 and (y[0] == y[1] or y[-1] == y[-2])
        seen["tied"] += len({y[i] for i in found}) < len(found)
        for i in found:
            half = 0.5 * (y[i] + 1.0)
            beyond = (y < half) != (y[i] < 1.0)
            seen["edge_pair"] += not (beyond[i:].any() and beyond[:i].any())
    assert all(seen.values()), seen


@pytest.mark.parametrize("y", [[1.0, 0.5], [0.5, 0.2, 0.5], [0.5, 1.6, 0.5], [0.7] * 9,
                               [0.5, 0.5, 0.2], [0.2, 0.5, 0.5]],
                         ids=["two", "three_dip", "three_peak", "all_flat", "flat_left",
                              "flat_right"])
def test_array_extraction_matches_the_walks_on_short_and_flat_scans(y):
    y = np.asarray(y)
    found = _compare_with_walks(np.linspace(-1.0, 1.0, y.size), y)
    assert found == ([1] if y.size == 3 and y[0] == y[2] else [])


def test_array_extraction_keeps_features_at_exactly_the_prominence_cut():
    y = np.array([200.0, 199.0, 200.0, 201.0, 200.0])  # excursions of 1/200 == _PROMINENCE
    assert _compare_with_walks(np.arange(5.0), y, plateau=200.0) == [1, 3]


def test_array_extraction_ranks_equal_prominences_as_the_walk_does():
    # four equal dips, two of them flat-bottomed and refined to their middle
    # samples at x = -0.2 and 0.1, the other two at x = -0.4 and 0.4
    x = (np.arange(11) - 5) / 10.0
    y = np.array([1.0, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 0.5, 1.0])
    assert _compare_with_walks(x, y) == [6, 3, 1, 9]


def test_half_excursion_width_interpolates_between_the_samples_that_bracket_the_level():
    # y = 1 - exp(-x^2) crosses its half level at x = +-sqrt(ln 2) = +-0.8326,
    # between the samples at 0.8 and 1.0 on each side of a symmetric axis
    x = (np.arange(41) - 20) / 5.0
    width = _half_excursion_width(x, 1.0 - np.exp(-x * x), 20, 1.0)
    assert 0.8 < width / 2 < 1.0
    assert width == pytest.approx(2.0 * math.sqrt(math.log(2.0)), abs=0.01)


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
    with pytest.raises(ValueError, match="^dip positions must satisfy x_min_left <= x_min_right$"):
        ExtremaReport(1.0, -1.0, 0.2, 0.2, 0.5, 0.5)


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
