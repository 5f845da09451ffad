"""Closed-form rates, loss scalings and delay-fluctuation averaging."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.rates import (
    MAX_WINDOW_NODES,
    LossParams,
    NonFiniteRateError,
    RateCurve,
    RateSurface,
    RegimeError,
    bp_plateau,
    box_average_curve,
    box_average_surface,
    coarse_grain_curve,
    coarse_grain_surface,
    cp_plateau,
    hom_bp_analytic,
    hom_cp_analytic,
    hom_cp_coarse_analytic,
    mhom_bp_analytic,
    mhom_bp_coarse_analytic,
    mhom_bp_loss_coarse,
    mhom_bp_windowed,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
    mhom_cp_loss_coarse,
    mhom_cp_windowed,
    sample_curve,
    sample_surface,
    window_nodes,
)
from homlab.figures import build_figure
from homlab.qps import QpsTarget, qps_scan
from homlab.sensing import SensingScenario, scan_f
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum, make_grid

SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
PULSE = CoherentSpectrum(omega0=5.0, d_omega=0.5, total_intensity=1.0)
BRIGHT = CoherentSpectrum(omega0=5.0, d_omega=0.5, total_intensity=2.5)


# ----- standard interferometer closed forms -----


def test_hom_bp_frozen_values():
    assert hom_bp_analytic(0.0, SPECTRUM) == 0.0
    assert hom_bp_analytic(1.0, SPECTRUM) == pytest.approx(
        0.5 * (1.0 - math.exp(-2.0)), rel=1e-15
    )
    assert hom_bp_analytic(50.0, SPECTRUM) == pytest.approx(0.5, abs=1e-15)


def test_hom_bp_ignores_carrier_and_sum_spread():
    other = GaussianJointSpectrum(omega0=123.0, d_omega_plus=2.0, d_omega_minus=1.0)
    taus = np.linspace(-3, 3, 41)
    np.testing.assert_array_equal(hom_bp_analytic(taus, SPECTRUM), hom_bp_analytic(taus, other))


def test_hom_cp_frozen_values():
    assert hom_cp_analytic(0.0, PULSE) == 0.0
    # carrier quadrature point: the squared cosine factor vanishes
    tau = math.pi / (4.0 * PULSE.omega0)
    assert hom_cp_analytic(tau, PULSE) == pytest.approx(1.0, rel=1e-12)
    assert hom_cp_analytic(40.0, BRIGHT) == pytest.approx(BRIGHT.total_intensity**2, rel=1e-12)


def test_hom_cp_coarse_frozen_values():
    assert hom_cp_coarse_analytic(0.0, PULSE) == pytest.approx(0.5, rel=1e-15)
    assert hom_cp_coarse_analytic(0.0, BRIGHT) == pytest.approx(
        0.5 * BRIGHT.total_intensity**2, rel=1e-15
    )
    assert hom_cp_coarse_analytic(30.0, PULSE) == pytest.approx(1.0, rel=1e-13)


# ----- two-delay interferometer closed forms -----


def test_mhom_bp_origin_values():
    assert mhom_bp_analytic(0.0, 0.0, math.pi / 2.0, SPECTRUM) == 0.0
    assert mhom_bp_analytic(0.0, 0.0, 0.0, SPECTRUM) == 1.0


def test_mhom_bp_zero_is_unique_at_quadrature_phase():
    """Only the origin cell dips below 1e-6 of the plateau on the reference
    grid when the achromatic phase sits at its quadrature setting."""
    axis = np.linspace(-4.0, 4.0, 101)
    vals = mhom_bp_analytic(axis[:, None], axis[None, :], math.pi / 2.0, SPECTRUM)
    i0 = int(np.argmin(np.abs(axis)))
    assert abs(axis[i0]) < 1e-12
    assert vals[i0, i0] < 1e-12
    mask = np.ones_like(vals, dtype=bool)
    mask[i0, i0] = False
    assert vals[mask].min() >= 1e-6


def test_mhom_bp_reduces_to_standard_chain():
    """With the first delay and the phase off, the two-delay rate carries an
    extra carrier fringe but its slow part matches the standard dip scale."""
    taus = np.linspace(-2.5, 2.5, 101)
    two_stage = mhom_bp_analytic(0.0, taus, 0.0, SPECTRUM)
    assert two_stage.min() >= 0.0
    assert two_stage.max() <= 1.0 + 1e-12


def test_mhom_cp_origin_for_all_phases():
    for theta in (0.0, math.pi / 4.0, math.pi / 2.0):
        assert mhom_cp_analytic(0.0, 0.0, theta, PULSE) == pytest.approx(1.0, abs=1e-12)
        assert mhom_cp_analytic(0.0, 0.0, theta, BRIGHT) == pytest.approx(6.25, abs=1e-12 * 6.25)


def test_mhom_cp_strictly_positive_on_grid():
    rng = np.random.default_rng(11)
    t1 = rng.uniform(-4, 4, size=(50, 1))
    t2 = rng.uniform(-4, 4, size=(1, 50))
    for theta in (0.0, math.pi / 2.0):
        vals = mhom_cp_analytic(t1, t2, theta, PULSE)
        assert np.all(vals > 0.0)


def test_mhom_cp_has_no_half_plateau_floor():
    """The oscillatory pulse rate dips well below half the plateau near the
    origin; only the coarse-grained surface keeps a 3/4 floor. Frozen from a
    direct scan of the closed form on the reference grid."""
    axis = np.linspace(-4.0, 4.0, 101)
    vals = mhom_cp_analytic(axis[:, None], axis[None, :], math.pi / 2.0, PULSE)
    floor = float(vals.min())
    assert floor == pytest.approx(0.026106160646, rel=1e-9)
    assert 0.0 < floor < 0.5
    coarse = mhom_cp_coarse_analytic(axis[:, None], axis[None, :], PULSE)
    assert coarse.min() >= 0.75 - 1e-12


def test_mhom_coarse_frozen_landmarks():
    assert mhom_bp_coarse_analytic(0.0, 0.0, SPECTRUM) == pytest.approx(0.5, rel=1e-15)
    assert mhom_bp_coarse_analytic(8.0, 0.0, SPECTRUM) == pytest.approx(0.75, rel=1e-12)
    assert mhom_bp_coarse_analytic(8.0, 8.0, SPECTRUM) == pytest.approx(0.375, rel=1e-12)
    assert mhom_bp_coarse_analytic(8.0, -8.0, SPECTRUM) == pytest.approx(0.375, rel=1e-12)

    assert mhom_cp_coarse_analytic(0.0, 0.0, PULSE) == pytest.approx(0.75, rel=1e-15)
    assert mhom_cp_coarse_analytic(6.0, 6.0, PULSE) == pytest.approx(0.875, rel=1e-12)
    assert mhom_cp_coarse_analytic(6.0, -6.0, PULSE) == pytest.approx(0.875, rel=1e-12)
    assert mhom_cp_coarse_analytic(20.0, 7.0, PULSE) == pytest.approx(1.0, rel=1e-12)


def test_plateaus():
    assert bp_plateau() == 0.5
    assert cp_plateau(PULSE) == 1.0
    assert cp_plateau(BRIGHT) == 6.25
    loss = LossParams(chi2=0.5)
    assert bp_plateau(loss) == pytest.approx(4.0 * loss.a_bp_loss, rel=1e-15)
    assert cp_plateau(BRIGHT, loss) == pytest.approx(loss.a_cp_loss(2.5), rel=1e-15)


@settings(max_examples=80)
@given(
    t1=st.floats(-6.0, 6.0),
    t2=st.floats(-6.0, 6.0),
    theta=st.floats(-7.0, 7.0),
)
def test_closed_forms_are_nonnegative_and_bounded(t1, t2, theta):
    assert 0.0 <= mhom_bp_analytic(t1, t2, theta, SPECTRUM) <= 1.0 + 1e-12
    assert 0.0 <= mhom_cp_analytic(t1, t2, theta, PULSE) <= 1.0 + 1e-12
    assert 0.375 - 1e-12 <= mhom_bp_coarse_analytic(t1, t2, SPECTRUM) <= 0.75 + 1e-12
    assert 0.75 - 1e-12 <= mhom_cp_coarse_analytic(t1, t2, PULSE) <= 1.0 + 1e-12


@given(
    tau=st.floats(0.0, 2.5),
    bump=st.floats(0.01, 2.0),
)
def test_hom_bp_monotone_in_delay_magnitude(tau, bump):
    assert hom_bp_analytic(tau + bump, SPECTRUM) > hom_bp_analytic(tau, SPECTRUM)
    assert hom_bp_analytic(-tau, SPECTRUM) == hom_bp_analytic(tau, SPECTRUM)


# ----- containers -----


def test_rate_curve_validation():
    axis = np.linspace(-1, 1, 5)
    curve = RateCurve(axis, np.abs(axis), 0.5)
    assert curve.values.shape == axis.shape
    with pytest.raises(ValueError):
        RateCurve(axis, np.abs(axis), 0.0)
    with pytest.raises(ValueError):
        RateCurve(axis, np.abs(axis[:-1]), 0.5)
    with pytest.raises(ValueError, match="went negative beyond round-off") as negative:
        RateCurve(axis, axis, 0.5)  # genuinely negative values
    assert not isinstance(negative.value, NonFiniteRateError)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_containers_refuse_non_finite_values(bad):
    axis = np.linspace(-1, 1, 5)
    # a non-finite value is reported even next to a negative one
    values = np.array([0.0, 0.1, bad, -0.3, 0.4])
    with pytest.raises(NonFiniteRateError, match="^coincidence rate is not finite"):
        RateCurve(axis, values, 1.0)
    with pytest.raises(NonFiniteRateError, match="^coincidence rate is not finite"):
        RateSurface(axis, axis[:2], np.column_stack((values, np.ones(5))), 1.0)


def test_rate_curve_clamps_roundoff_negatives():
    axis = np.linspace(-1, 1, 5)
    vals = np.array([0.0, -1e-14, 0.2, 0.3, 0.4])
    curve = RateCurve(axis, vals, 1.0)
    assert curve.values[1] == 0.0


def test_rate_surface_validation_and_orientation():
    t1 = np.linspace(-1, 1, 3)
    t2 = np.linspace(-2, 2, 5)
    surf = sample_surface(lambda a, b: mhom_bp_coarse_analytic(a, b, SPECTRUM), t1, t2, 0.5)
    assert surf.values.shape == (3, 5)
    assert surf.values[2, 4] == mhom_bp_coarse_analytic(t1[2], t2[4], SPECTRUM)
    with pytest.raises(ValueError):
        RateSurface(t1, t2, np.zeros((5, 3)) + 0.1, 0.5)


LOSSY = LossParams(xi1=0.9, xi2=0.6, chi1=0.8, chi2=0.5)
SURFACE_FORMS = {
    "mhom_bp_analytic": lambda a, b: mhom_bp_analytic(a, b, math.pi / 2.0, SPECTRUM),
    "mhom_cp_analytic": lambda a, b: mhom_cp_analytic(a, b, 0.4, PULSE),
    "mhom_bp_coarse_analytic_lossy": lambda a, b: mhom_bp_coarse_analytic(a, b, SPECTRUM, LOSSY),
    "mhom_cp_coarse_analytic_lossy": lambda a, b: mhom_cp_coarse_analytic(a, b, BRIGHT, LOSSY),
}


@pytest.mark.parametrize("form", sorted(SURFACE_FORMS))
def test_sample_surface_blocks_match_whole_grid_evaluation(form):
    func = SURFACE_FORMS[form]
    t1 = np.linspace(-3.0, 3.0, 1001)
    t2 = np.linspace(-2.5, 3.5, 1001)  # no block divides 1001 rows
    want = RateSurface(t1, t2, func(t1[:, None], t2[None, :]), 0.5).values
    sample_surface(func, t1[:8], t2, 0.5)
    tracemalloc.start()
    try:
        got = sample_surface(func, t1, t2, 0.5).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the values plus the clamp's copy and mask, not the formula's whole-grid temporaries
    assert peak <= 2.25 * got.nbytes, (peak, got.nbytes)


def test_sample_curve_matches_direct_evaluation():
    axis = np.linspace(-2, 2, 9)
    curve = sample_curve(lambda t: hom_bp_analytic(t, SPECTRUM), axis, 0.5)
    np.testing.assert_array_equal(curve.values, hom_bp_analytic(axis, SPECTRUM))


# ----- losses -----


def test_loss_params_derived_quantities():
    loss = LossParams(xi1=1.0, xi2=0.8, chi1=0.9, chi2=0.5)
    xi_p = 1.0 + 0.64
    chi_p = 0.81 + 0.25
    assert loss.xi_power == pytest.approx(xi_p, rel=1e-15)
    assert loss.chi_power == pytest.approx(chi_p, rel=1e-15)
    assert loss.eta_a == pytest.approx(((1.0 - 0.64) / xi_p) ** 2, rel=1e-14)
    assert loss.eta_b == pytest.approx(((0.81 - 0.25) / chi_p) ** 2, rel=1e-14)
    assert loss.a_bp_loss == pytest.approx(0.64 * chi_p**2 / 32.0, rel=1e-14)
    assert loss.a_cp_loss(2.0) == pytest.approx((2.0 * chi_p * xi_p / 4.0) ** 2, rel=1e-14)


def test_loss_params_no_loss_is_neutral():
    neutral = LossParams()
    assert neutral.eta_a == 0.0 and neutral.eta_b == 0.0
    assert neutral.a_bp_loss == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert neutral.a_cp_loss(1.0) == pytest.approx(1.0, rel=1e-15)


def test_loss_params_rejects_dark_stage():
    with pytest.raises(ValueError):
        LossParams(xi1=0.0, xi2=0.0)
    with pytest.raises(ValueError):
        LossParams(chi1=0.0, chi2=0.0)
    with pytest.raises(ValueError):
        LossParams(xi1=1.5)


def test_bp_loss_reduces_when_balanced():
    loss = LossParams(xi1=0.9, xi2=0.7, chi1=0.8, chi2=0.8)
    assert loss.eta_b == 0.0
    t1 = np.linspace(-3, 3, 21)[:, None]
    t2 = np.linspace(-3, 3, 21)[None, :]
    lossy = mhom_bp_loss_coarse(t1, t2, SPECTRUM, loss)
    clean = mhom_bp_coarse_analytic(t1, t2, SPECTRUM)
    np.testing.assert_allclose(lossy, 8.0 * loss.a_bp_loss * clean, rtol=1e-12)


def test_bp_loss_input_imbalance_only_rescales():
    """Changing the input attenuations multiplies the surface by a constant;
    the normalized shape and its extremum cells do not move."""
    t1 = np.linspace(-3, 3, 41)[:, None]
    t2 = np.linspace(-3, 3, 41)[None, :]
    ref_loss = LossParams(chi1=0.9, chi2=0.6)
    alt_loss = LossParams(xi1=0.55, xi2=0.85 * np.exp(1.1j), chi1=0.9, chi2=0.6)
    ref = mhom_bp_loss_coarse(t1, t2, SPECTRUM, ref_loss)
    alt = mhom_bp_loss_coarse(t1, t2, SPECTRUM, alt_loss)
    np.testing.assert_allclose(
        alt / alt_loss.a_bp_loss, ref / ref_loss.a_bp_loss, rtol=1e-12
    )
    assert np.argmax(alt) == np.argmax(ref)
    assert np.argmin(alt) == np.argmin(ref)


def test_bp_loss_visibility_scaling():
    """Internal imbalance shrinks every feature excursion by 1 - eta_b."""
    from homlab.figures import chi2_for_eta_b

    t1 = 2.5
    for eta in (0.3, 0.6, 0.9):
        loss = LossParams(chi2=chi2_for_eta_b(eta))
        assert loss.eta_b == pytest.approx(eta, rel=1e-12)
        plateau = 4.0 * loss.a_bp_loss
        ridge = mhom_bp_loss_coarse(t1, 0.0, SPECTRUM, loss)
        dip = mhom_bp_loss_coarse(t1, t1, SPECTRUM, loss)
        v_ridge = (ridge - plateau) / plateau
        v_dip = (plateau - dip) / plateau
        assert v_ridge == pytest.approx(0.5 * (1.0 - eta), abs=2e-3)
        assert v_dip == pytest.approx(0.25 * (1.0 - eta), abs=2e-3)


def test_cp_loss_reduces_when_balanced():
    loss = LossParams(xi1=0.9, xi2=0.9, chi1=0.6, chi2=0.6)
    t1 = np.linspace(-3, 3, 15)[:, None]
    t2 = np.linspace(-3, 3, 15)[None, :]
    lossy = mhom_cp_loss_coarse(t1, t2, PULSE, loss)
    clean = mhom_cp_coarse_analytic(t1, t2, PULSE)
    scale = loss.a_cp_loss(PULSE.total_intensity)
    np.testing.assert_allclose(lossy, scale * clean, rtol=1e-12)


def test_cp_loss_full_input_imbalance_drops_first_delay():
    """With one input path dark the rate keeps only the second-delay dip."""
    loss = LossParams(xi2=0.0, chi1=0.95, chi2=0.7)
    assert loss.eta_a == pytest.approx(1.0, rel=1e-15)
    scale = loss.a_cp_loss(1.0)
    t1 = np.linspace(-4, 4, 17)
    t2 = np.linspace(-4, 4, 17)
    vals = mhom_cp_loss_coarse(t1[:, None], t2[None, :], PULSE, loss)
    spread = np.max(np.abs(vals - vals[0, :]), axis=0)
    assert spread.max() <= 1e-10 * scale
    expected = scale * (1.0 - 0.5 * (1.0 - loss.eta_b) * np.exp(-4.0 * PULSE.d_omega**2 * t2**2))
    np.testing.assert_allclose(vals[0, :], expected, rtol=1e-10)


# ----- fluctuation averaging -----


def test_box_average_of_cosine_is_exact():
    k, window = 3.0, 2.0
    for tau in (0.0, 0.7, -1.9):
        got = box_average_curve(lambda t: np.cos(k * t), tau, window, n=64)
        want = math.cos(k * tau) * math.sin(k * window / 2.0) / (k * window / 2.0)
        assert got == pytest.approx(want, abs=1e-14)


def _whole_array_box_average(rate, taus, window, n):
    """The box average with every cell's nodes in one array and one tensordot."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = x * (0.5 * window), w * 0.5
    if len(taus) == 1:
        vals = rate(np.asarray(taus[0], dtype=float)[..., None] + x)
        out = np.tensordot(np.asarray(vals, dtype=float), w, axes=([-1], [0]))
    else:
        t1, t2 = (np.asarray(t, dtype=float)[..., None, None] for t in taus)
        vals = rate(t1 + x[:, None], t2 + x[None, :])
        out = np.tensordot(np.asarray(vals, dtype=float), np.outer(w, w),
                           axes=([-2, -1], [0, 1]))
    return out if np.ndim(out) else float(out)


_AXIS1, _AXIS2 = np.linspace(-1.5, 1.5, 13), np.linspace(-2.0, 2.5, 9)
BOX_INPUTS = {
    "scalar": (0.4, -0.3),
    "broadcast": (_AXIS1[:, None], _AXIS2[None, :]),
    "grid": tuple(np.meshgrid(_AXIS1, _AXIS2, indexing="ij")),
}


@pytest.mark.parametrize("case", sorted(BOX_INPUTS))
def test_blocked_box_averages_match_whole_array_rule(monkeypatch, case):
    import homlab.rates as rates

    block = 1000
    monkeypatch.setattr(rates, "_BLOCK_POINTS", block)
    seen = []

    def spy(rate):
        def counted(*args):
            seen.append(math.prod(np.broadcast_shapes(*(np.shape(a) for a in args))))
            return rate(*args)
        return counted

    def curve(t):
        return hom_cp_analytic(t, PULSE)

    def surface(a, b):
        return mhom_cp_analytic(a, b, 0.3, PULSE)

    t1, t2 = BOX_INPUTS[case]
    plateau = cp_plateau(PULSE)
    for rate, taus, n in ((curve, (t1,), 40), (surface, (t1, t2), 16)):
        want = _whole_array_box_average(rate, taus, 0.5, n)
        average = box_average_curve if len(taus) == 1 else box_average_surface
        got = average(spy(rate), *taus, 0.5, n=n)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13 * plateau
    assert max(seen) <= block
    if case != "scalar":
        assert len(seen) > 2


def test_box_average_surface_separable():
    k1, k2, window = 2.0, 5.0, 1.5

    def f(a, b):
        return np.cos(k1 * a) * np.cos(k2 * b)

    got = box_average_surface(f, 0.4, -0.3, window, n=64)
    damp1 = math.sin(k1 * window / 2.0) / (k1 * window / 2.0)
    damp2 = math.sin(k2 * window / 2.0) / (k2 * window / 2.0)
    want = math.cos(k1 * 0.4) * damp1 * math.cos(k2 * -0.3) * damp2
    assert got == pytest.approx(want, abs=1e-14)


def test_regime_bounds_enforced():
    with pytest.raises(RegimeError, match="carrier"):
        coarse_grain_curve(
            lambda t: hom_cp_analytic(t, PULSE), 0.0, 0.5, carrier=5.0, envelope=0.5
        )
    with pytest.raises(RegimeError, match="envelope"):
        coarse_grain_curve(
            lambda t: hom_cp_analytic(t, PULSE), 0.0, 0.5, carrier=500.0, envelope=0.5
        )
    with pytest.raises(ValueError):
        coarse_grain_curve(lambda t: t, 0.0, -1.0, carrier=500.0, envelope=0.1)


def test_regime_error_is_value_error():
    assert issubclass(RegimeError, ValueError)


FAST_PULSE = CoherentSpectrum(omega0=500.0, d_omega=0.5, total_intensity=1.0)
FAST_SPECTRUM = GaussianJointSpectrum(omega0=500.0, d_omega_plus=0.2, d_omega_minus=1.0)
WINDOW = 0.2


def test_coarse_curve_recovers_closed_form():
    taus = np.linspace(-2.4, 2.4, 17)
    got = coarse_grain_curve(
        lambda t: hom_cp_analytic(t, FAST_PULSE),
        taus,
        WINDOW,
        carrier=FAST_PULSE.omega0,
        envelope=FAST_PULSE.d_omega,
    )
    want = hom_cp_coarse_analytic(taus, FAST_PULSE)
    assert np.max(np.abs(got - want)) <= 0.02 * 1.0


def test_coarse_curve_leaves_slow_rate_alone():
    taus = np.linspace(-2.4, 2.4, 17)
    got = coarse_grain_curve(
        lambda t: hom_bp_analytic(t, FAST_SPECTRUM),
        taus,
        WINDOW,
        carrier=FAST_SPECTRUM.omega0,
        envelope=FAST_SPECTRUM.d_omega_minus,
    )
    want = hom_bp_analytic(taus, FAST_SPECTRUM)
    assert np.max(np.abs(got - want)) <= 0.02 * 0.5


def test_coarse_curve_preserves_constant():
    got = coarse_grain_curve(lambda t: np.full_like(t, 0.37), 1.0, WINDOW,
                             carrier=500.0, envelope=1.0)
    assert got == pytest.approx(0.37, rel=1e-13)


def test_coarse_curve_refuses_a_tabulated_curve():
    axis = np.linspace(-3.0, 3.0, 4001)
    curve = sample_curve(lambda t: hom_bp_analytic(t, FAST_SPECTRUM), axis, 0.5)
    with pytest.raises(TypeError, match="^rate must be callable"):
        coarse_grain_curve(curve, 0.8, WINDOW, carrier=500.0, envelope=1.0)


def test_coarse_surface_recovers_bp_closed_form():
    taus = np.linspace(-2.4, 2.4, 7)
    got = coarse_grain_surface(
        lambda a, b: mhom_bp_analytic(a, b, 0.0, FAST_SPECTRUM),
        taus[:, None],
        taus[None, :],
        WINDOW,
        carrier=FAST_SPECTRUM.omega0,
        envelope=1.0,
    )
    want = mhom_bp_coarse_analytic(taus[:, None], taus[None, :], FAST_SPECTRUM)
    assert np.max(np.abs(got - want)) <= 0.02 * 0.5


def test_coarse_surface_recovers_cp_closed_form():
    taus = np.linspace(-2.4, 2.4, 7)
    got = coarse_grain_surface(
        lambda a, b: mhom_cp_analytic(a, b, math.pi / 2.0, FAST_PULSE),
        taus[:, None],
        taus[None, :],
        WINDOW,
        carrier=FAST_PULSE.omega0,
        envelope=FAST_PULSE.d_omega,
    )
    want = mhom_cp_coarse_analytic(taus[:, None], taus[None, :], FAST_PULSE)
    assert np.max(np.abs(got - want)) <= 0.02 * 1.0


def test_coarse_surface_phase_independent():
    taus = np.linspace(-2.0, 2.0, 6)

    def averaged(theta):
        return coarse_grain_surface(
            lambda a, b: mhom_bp_analytic(a, b, theta, FAST_SPECTRUM),
            taus[:, None],
            taus[None, :],
            WINDOW,
            carrier=FAST_SPECTRUM.omega0,
            envelope=1.0,
        )

    delta = np.max(np.abs(averaged(0.0) - averaged(math.pi / 2.0)))
    assert delta <= 0.02 * 0.5


# ----- structured window averages -----


def _windowed_case(seed, source, theta):
    """Seeded in-regime model, window and asymmetric, non-square axes.

    The window sits between the guard's bounds with margin: 21-40 carrier
    radians wide and 60-95 % of a fifth of the envelope time. Returns the
    structured average and the generic rule on the same inputs, with the
    CLI's carrier and envelope for the source.
    """
    rng = np.random.default_rng([seed, 7])
    window = rng.uniform(0.15, 0.25)
    carrier = rng.uniform(21.0, 40.0) / window
    envelope = rng.uniform(0.6, 0.95) * 0.2 / window
    t1 = np.linspace(-rng.uniform(0.5, 3.0), rng.uniform(1.0, 3.0), 9) / envelope
    t2 = np.linspace(-rng.uniform(1.0, 3.0), rng.uniform(0.2, 3.0), 13) / envelope
    if source == "bp":
        model = GaussianJointSpectrum(omega0=carrier,
                                      d_omega_plus=rng.uniform(0.1, 0.45) * envelope,
                                      d_omega_minus=envelope)
        exact, windowed, plateau = mhom_bp_analytic, mhom_bp_windowed, bp_plateau()
    else:
        model = CoherentSpectrum(omega0=carrier, d_omega=envelope / math.sqrt(2.0),
                                 total_intensity=rng.uniform(0.5, 2.0))
        exact, windowed, plateau = mhom_cp_analytic, mhom_cp_windowed, cp_plateau(model)

    def fast(window=window, n=None):
        return windowed(t1, t2, theta, model, window, n=n)

    def generic(window=window, n=None):
        return coarse_grain_surface(lambda a, b: exact(a, b, theta, model),
                                    t1[:, None], t2[None, :], window,
                                    carrier=carrier, envelope=envelope, n=n)

    return fast, generic, window, carrier, envelope, plateau


@pytest.mark.parametrize("source", ["bp", "cp"])
@pytest.mark.parametrize("seed, theta", [(1, 0.0), (2, math.pi / 2.0), (3, -2.3), (4, 1.1)])
def test_windowed_matches_generic_box_average(source, seed, theta):
    fast, generic, window, carrier, _, plateau = _windowed_case(seed, source, theta)
    got = fast()
    assert got.shape == (9, 13)
    assert np.max(np.abs(got - generic())) <= 1e-12 * plateau
    # an explicit node count above the automatic one
    n = max(48, math.ceil(2.0 * carrier * window) + 16) + 29
    assert np.max(np.abs(fast(n=n) - generic(n=n))) <= 1e-12 * plateau


@pytest.mark.parametrize("source", ["bp", "cp"])
def test_windowed_regime_errors_match_generic(source):
    fast, generic, _, carrier, envelope, _ = _windowed_case(5, source, 0.0)
    for bad, bound in ((19.0 / carrier, "carrier"), (0.21 / envelope, "envelope")):
        with pytest.raises(RegimeError, match=bound) as structured:
            fast(window=bad)
        with pytest.raises(RegimeError) as reference:
            generic(window=bad)
        assert str(structured.value) == str(reference.value)


def test_rule_average_evaluates_each_distinct_argument_once():
    import homlab.rates as rates

    # the same step on both axes, so many cells share a sum
    t1, t2 = np.linspace(-3.0, 3.0, 41), np.linspace(-2.0, 2.5, 31)
    _, triangle = rates._window_rules(0.1, 8)
    (offsets,), weights = triangle
    seen = []

    def g(x):
        seen.append(x.size)
        return np.exp(-x * x)

    sums = t1[:, None] + t2[None, :]
    got = rates._rule_average(g, (sums,), *triangle)
    distinct = np.unique(sums).size
    assert distinct < sums.size // 4
    assert sum(seen) == distinct * weights.size  # not cells x rule nodes
    assert got.shape == sums.shape
    want = np.exp(-np.square(sums[..., None] + offsets)) @ weights
    assert np.max(np.abs(got - want)) <= 1e-15


def test_pulse_b_squared_identity():
    """The expansion the pulse average uses, against the closed form itself."""
    rng = np.random.default_rng(11)
    pulse = CoherentSpectrum(omega0=37.0, d_omega=0.6, total_intensity=1.7)
    w0, dw = pulse.omega0, pulse.d_omega
    for theta in (0.0, math.pi / 2.0, -2.3):
        t1 = rng.uniform(-3.0, 3.0, 400)
        t2 = rng.uniform(-3.0, 3.0, 400)

        def big_e(x):
            return np.exp(-4.0 * dw * dw * x * x)

        b2 = (
            np.cos(theta + 2.0 * w0 * (t1 + t2)) ** 2 * big_e(t1 + t2)
            + np.cos(theta + 2.0 * w0 * (t2 - t1)) ** 2 * big_e(t1 - t2)
            - (np.cos(2.0 * theta + 4.0 * w0 * t2) + np.cos(4.0 * w0 * t1))
            * big_e(t1) * big_e(t2)
        )
        want = mhom_cp_analytic(t1, t2, theta, pulse)
        got = pulse.total_intensity**2 * (1.0 - 0.25 * b2)
        assert np.max(np.abs(got - want)) <= 1e-14 * cp_plateau(pulse)


def test_window_node_cap_is_checked_before_building_a_rule(monkeypatch):
    def refuse(n):
        raise AssertionError(f"leggauss({n}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    axis = np.linspace(-1.0, 1.0, 3)
    window = 0.1
    # automatic count 2 * carrier * window + 16 just over the cap
    over = GaussianJointSpectrum(omega0=(MAX_WINDOW_NODES - 15.5) / (2.0 * window),
                                 d_omega_plus=0.2, d_omega_minus=1.0)
    with pytest.raises(ValueError, match=r"^window \* carrier = "):
        mhom_bp_windowed(axis, axis, 0.0, over, window)
    with pytest.raises(ValueError, match=r"^window \* carrier = "):
        coarse_grain_surface(lambda a, b: mhom_bp_analytic(a, b, 0.0, over),
                             axis[:, None], axis[None, :], window,
                             carrier=over.omega0, envelope=1.0)
    pulse = CoherentSpectrum(omega0=500.0, d_omega=0.5)
    for n in (MAX_WINDOW_NODES + 1, 4096, 10**30):
        with pytest.raises(ValueError, match="at most"):
            mhom_cp_windowed(axis, axis, 0.0, pulse, 0.2, n=n)
        with pytest.raises(ValueError, match="at most"):
            coarse_grain_curve(lambda t: t, axis, 0.2, carrier=500.0, envelope=0.7, n=n)
        for call in _windowed_calls(n):
            with pytest.raises(ValueError, match="at most"):
                call()


def _guarded_calls(n, window=0.1, carrier=500.0, envelope=1.0):
    """The window entries given ``carrier`` and ``envelope`` as arguments:
    both regime-guarded averages and ``window_nodes`` itself."""
    axis = np.linspace(-1.0, 1.0, 3)
    return [
        lambda: coarse_grain_curve(lambda t: hom_cp_analytic(t, FAST_PULSE), axis, window,
                                   carrier=carrier, envelope=envelope, n=n),
        lambda: coarse_grain_surface(lambda a, b: mhom_bp_analytic(a, b, 0.3, FAST_SPECTRUM),
                                     axis[:, None], axis[None, :], window,
                                     carrier=carrier, envelope=envelope, n=n),
        lambda: window_nodes(n, window, carrier, envelope),
    ]


def _windowed_calls(n, window=0.1):
    """Every window average, with ``n`` nodes and width ``window``: both
    windowed forms, the ``_guarded_calls`` and both plain box averages."""
    axis = np.linspace(-1.0, 1.0, 3)
    return [
        lambda: mhom_bp_windowed(axis, axis, 0.3, FAST_SPECTRUM, window, n=n),
        lambda: mhom_cp_windowed(axis, axis, 0.3, FAST_PULSE, window, n=n),
        *_guarded_calls(n, window),
        lambda: box_average_curve(lambda t: hom_cp_analytic(t, FAST_PULSE), axis, window, n=n),
        lambda: box_average_surface(lambda a, b: mhom_bp_analytic(a, b, 0.3, FAST_SPECTRUM),
                                    axis[:, None], axis[None, :], window, n=n),
    ]


@pytest.mark.parametrize("n", [None, 96])
@pytest.mark.parametrize("window, error", [(math.nan, ValueError), (math.inf, ValueError),
                                           (-math.inf, ValueError), ("0.1", TypeError),
                                           (True, TypeError)])
def test_window_must_be_a_finite_real(window, error, n):
    for call in _windowed_calls(n, window):
        with pytest.raises(error, match="^window must be"):
            call()


# Refused arguments of the regime guard: case -> (argument, value, error, message start).
GUARD_REFUSALS = {
    "carrier_nan": ("carrier", math.nan, ValueError, "carrier must be finite"),
    "carrier_inf": ("carrier", math.inf, ValueError, "carrier must be finite"),
    "carrier_int400": ("carrier", 10**400, ValueError, "carrier must be finite"),
    "carrier_str": ("carrier", "500", TypeError, "carrier must be a real number"),
    "carrier_bool": ("carrier", True, TypeError, "carrier must be a real number"),
    "carrier_zero": ("carrier", 0.0, ValueError, "carrier must be positive"),
    "carrier_negative": ("carrier", -500.0, ValueError, "carrier must be positive"),
    "envelope_nan": ("envelope", math.nan, ValueError, "envelope must be finite"),
    "envelope_minus_inf": ("envelope", -math.inf, ValueError, "envelope must be finite"),
    "envelope_str": ("envelope", "1", TypeError, "envelope must be a real number"),
    "envelope_bool": ("envelope", True, TypeError, "envelope must be a real number"),
    "envelope_zero": ("envelope", 0.0, ValueError, "envelope must be positive"),
    "envelope_negative": ("envelope", -1.0, ValueError, "envelope must be positive"),
    "window_zero": ("window", 0.0, ValueError, "window must be positive"),
    "window_negative": ("window", -0.1, ValueError, "window must be positive"),
}


@pytest.mark.parametrize("n", [None, 96])
@pytest.mark.parametrize("case", sorted(GUARD_REFUSALS))
def test_window_guard_arguments_are_refused_by_name(case, n):
    arg, value, error, message = GUARD_REFUSALS[case]
    for call in _guarded_calls(n, **{arg: value}):
        with pytest.raises(error, match=f"^{message}"):
            call()


@pytest.mark.parametrize("n", [None, 96])
def test_infinite_envelope_is_a_regime_error(n):
    for call in _guarded_calls(n, envelope=math.inf):
        with pytest.raises(RegimeError, match="smear the envelope"):
            call()


NOT_WHOLE = [(96.5, ValueError), (2.5, ValueError), (2.7, ValueError), (math.nan, ValueError),
             (math.inf, ValueError), ("64", TypeError), (True, TypeError), (2 + 0j, TypeError)]


@pytest.mark.parametrize("n, error", NOT_WHOLE)
def test_window_node_count_must_be_a_whole_number(n, error):
    for call in _windowed_calls(n):
        with pytest.raises(error, match="^n must be a whole number of averaging nodes"):
            call()


def _counted_calls(n):
    """Every other library sample count and one window average's node count,
    each with ``n``: the call, what its whole-number message names and the
    smallest count it takes."""
    scenario = SensingScenario(dl1_0=4.0, dl2_0=0.0)
    target = QpsTarget(r=1.0, gamma=0.5, vartheta=0.5)
    axis = np.linspace(-1.0, 1.0, 3)
    return [
        (lambda: make_grid(0.0, 1.0, n), "n must be a whole number of grid nodes", 16),
        (lambda: scan_f(scenario, SPECTRUM, n=n), "n must be a whole number of scan samples", 51),
        (lambda: qps_scan(target, SPECTRUM, n=n), "n must be a whole number of scan samples", 51),
        (lambda: qps_scan(target, SPECTRUM, surface_n=n),
         "surface_n must be a whole number of surface samples", 2),
        (lambda: build_figure("fig2", n=n), "n must be a whole number of samples per axis", 16),
        (lambda: box_average_curve(lambda t: hom_cp_analytic(t, FAST_PULSE), axis, 0.1, n=n),
         "n must be a whole number of averaging nodes", 2),
    ]


@pytest.mark.parametrize("n, error", NOT_WHOLE + [(300.7, ValueError), (2001.7, ValueError),
                                                  ("20", TypeError), (16.5, ValueError)])
def test_sample_counts_share_the_whole_number_rule(n, error):
    for call, message, _ in _counted_calls(n):
        with pytest.raises(error, match=f"^{message}"):
            call()


@pytest.mark.parametrize("n", [-1, 0, 1, 3, 15, 50])
def test_sample_counts_refuse_counts_below_their_floor(n):
    for call, _, floor in _counted_calls(n):
        if n < floor:
            message = rf"^need at least {floor} [a-z ]+, got \w+ = {n}$"
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("n", [2.0, 96.0, np.float64(96.0), np.int64(96)])
def test_window_node_count_takes_whole_numbers_of_any_type(n):
    got = window_nodes(n, 0.1, 500.0, 1.0)
    assert type(got) is int and got == n
    for call, want in zip(_windowed_calls(n), _windowed_calls(int(n))):
        np.testing.assert_array_equal(call(), want())
