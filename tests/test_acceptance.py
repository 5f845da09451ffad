"""End-to-end acceptance checks, one numbered verdict line each.

Each test prints a single ``[PASS]`` or ``[FAIL]`` line straight to the
terminal, bypassing pytest's capture, then asserts the same outcome so
the suite status and the printed table always agree.
"""

import math
import time

import numpy as np
import pytest

from homlab.cli import run_figure
from homlab.figures import chi2_for_eta_b
from homlab.network import (
    box_average_curve,
    box_average_surface,
    bp_rate_oracle,
    bp_rate_oracle_batch,
    cl_s_rate,
    coarse_grain_curve,
    coarse_grain_surface,
    cp_rate_oracle_batch,
    hom_network,
    mhom_network,
    pair_grid,
    pulse_grid,
)
from homlab.qps import QpsTarget, qps_forward, qps_invert, qps_scan
from homlab.rates import (
    LossParams,
    RegimeError,
    bp_plateau,
    cp_plateau,
    hom_bp_analytic,
    hom_cp_analytic,
    hom_cp_coarse_analytic,
    mhom_bp_analytic,
    mhom_bp_coarse_analytic,
    mhom_bp_loss_coarse,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
    mhom_cp_loss_coarse,
)
from homlab.sensing import SensingScenario, run_sensing
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum

SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
MATCHED = CoherentSpectrum(omega0=5.0, d_omega=SPECTRUM.local_spread)
PULSE = CoherentSpectrum(omega0=5.0, d_omega=0.5)


def _verdict(capfd, number, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}{tail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_matches_closed_forms(capfd):
    t0 = time.monotonic()
    axis = np.linspace(-3.0, 3.0, 10)
    grid2 = pair_grid(SPECTRUM, tau_max=6.0)
    psi = SPECTRUM.joint_amplitude(grid2.nodes[:, None], grid2.nodes[None, :])
    grid1 = pulse_grid(MATCHED, tau_max=6.0)
    alpha = MATCHED.amplitude(grid1.nodes)

    chains = [hom_network(tau) for tau in axis]
    pair_want = [hom_bp_analytic(tau, SPECTRUM) for tau in axis]
    pulse_want = [hom_cp_analytic(tau, MATCHED) for tau in axis]
    for theta in (0.0, math.pi / 2.0):
        for t1 in axis:
            for t2 in axis:
                chains.append(mhom_network(t1, t2, theta))
                pair_want.append(mhom_bp_analytic(t1, t2, theta, SPECTRUM))
                pulse_want.append(mhom_cp_analytic(t1, t2, theta, MATCHED))
    pair = bp_rate_oracle_batch(psi, grid2, chains)
    pulse = cp_rate_oracle_batch(alpha, grid1, chains)
    worst = max(np.max(np.abs(pair - pair_want)) / 0.5, np.max(np.abs(pulse - pulse_want)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed <= 60.0
    _verdict(
        capfd,
        1,
        "quadrature oracle matches the four closed forms",
        ok,
        f"max deviation {worst:.2e} of plateau, {elapsed:.1f}s",
    )


def test_criterion_2_two_delay_zero_is_exact_and_unique(capfd):
    exact = mhom_bp_analytic(0.0, 0.0, math.pi / 2.0, SPECTRUM)
    grid = pair_grid(SPECTRUM, tau_max=0.5)
    psi = SPECTRUM.joint_amplitude(grid.nodes[:, None], grid.nodes[None, :])
    oracle = bp_rate_oracle(psi, grid, mhom_network(0.0, 0.0, math.pi / 2.0))
    axis = np.linspace(-3.0, 3.0, 101)
    surf = mhom_bp_analytic(axis[:, None], axis[None, :], math.pi / 2.0, SPECTRUM)
    i0 = 50
    others = surf.copy()
    others[i0, i0] = 1.0
    ok = exact == 0.0 and abs(oracle) <= 1e-8 and others.min() >= 1e-6 * 0.5
    _verdict(
        capfd,
        2,
        "pair rate vanishes only at the double-zero delay point",
        ok,
        f"analytic {exact!r}, oracle {oracle:.1e}, "
        f"next lowest cell {others.min() / 0.5:.2e} of plateau",
    )


def test_criterion_3_pulse_origin_floor_and_mixture_positivity(capfd):
    worst = 0.0
    for theta in (0.0, math.pi / 4.0, math.pi / 2.0):
        for pulse in (PULSE, CoherentSpectrum(5.0, 0.5, total_intensity=2.5)):
            got = mhom_cp_analytic(0.0, 0.0, theta, pulse)
            worst = max(worst, abs(got - pulse.total_intensity**2))
    components = [
        (0.5, CoherentSpectrum(5.0, 0.4)),
        (0.3, CoherentSpectrum(5.0, 0.55, total_intensity=1.3)),
        (0.2, CoherentSpectrum(5.0, 0.7, total_intensity=0.8)),
    ]
    grid = pulse_grid(CoherentSpectrum(5.0, 0.7), tau_max=1.0)
    mixture = [(w, p.amplitude(grid.nodes)) for w, p in components]
    at_origin = cl_s_rate(mixture, grid, 0.0, 0.0, math.pi / 2.0)
    ok = worst <= 1e-12 and at_origin > 0.0
    _verdict(
        capfd,
        3,
        "pulse rate stays at the plateau at zero delays, mixtures included",
        ok,
        f"origin deviation {worst:.1e}, mixture origin rate {at_origin:.3f}",
    )


def _criterion_4_cases(omega0, axis):
    """The three comparisons at one carrier, with the pulse matched to the pair.

    Each case is (label, delay points, exact form, coarse form, plateau,
    envelope rate, guarded average, plain box average). The envelope rates
    are the ones ``homlab run`` coarse mode hands the guard for each source.
    """
    spectrum = GaussianJointSpectrum(omega0=omega0, d_omega_plus=0.2, d_omega_minus=1.0)
    pulse = CoherentSpectrum(omega0=omega0, d_omega=spectrum.local_spread)
    theta = math.pi / 2.0
    bp_envelope = max(spectrum.d_omega_minus, 2.0 * spectrum.d_omega_plus)
    cp_envelope = math.sqrt(2.0) * pulse.d_omega
    grid = (axis[:, None], axis[None, :])
    return (
        (
            "pulse curve",
            (axis,),
            lambda t: hom_cp_analytic(t, pulse),
            lambda t: hom_cp_coarse_analytic(t, pulse),
            cp_plateau(pulse),
            cp_envelope,
            coarse_grain_curve,
            box_average_curve,
        ),
        (
            "pair surface",
            grid,
            lambda a, b: mhom_bp_analytic(a, b, theta, spectrum),
            lambda a, b: mhom_bp_coarse_analytic(a, b, spectrum),
            bp_plateau(),
            bp_envelope,
            coarse_grain_surface,
            box_average_surface,
        ),
        (
            "pulse surface",
            grid,
            lambda a, b: mhom_cp_analytic(a, b, theta, pulse),
            lambda a, b: mhom_cp_coarse_analytic(a, b, pulse),
            cp_plateau(pulse),
            cp_envelope,
            coarse_grain_surface,
            box_average_surface,
        ),
    )


def _refusal(call):
    """The guard's message if ``call`` raises ``RegimeError``, else None."""
    try:
        call()
    except RegimeError as exc:
        return str(exc)
    return None


def test_criterion_4_box_average_reaches_coarse_forms(capfd):
    """Window 40 carrier radians (about 6.4 periods) wide, inside the guard's band.

    ``coarse_grain_curve``/``coarse_grain_surface`` accept a window of at
    least 20 carrier radians and at most 0.2 envelope times. At omega0 = 500
    a window of 40 carrier radians spans 0.08 (pair) and 0.06 (pulse)
    envelope times, and the guarded averages must land within 2 percent of
    plateau of the idealized coarse formulas.

    At omega0 = 50, a carrier only 50 envelope widths up, the same window
    spans 0.8 and 0.61 envelope times, so the guard must refuse it for all
    three comparisons. The plain
    box averages there still wash out the fringes: the averaged exact form
    stays within 2 percent of the averaged coarse form. What misses is the
    envelope smear, the averaged coarse form against the coarse form
    itself, which is reported but not bounded.
    """
    t0 = time.monotonic()
    axis = np.linspace(-3.0, 3.0, 20)

    omega0 = 500.0
    window = 40.0 / omega0
    gaps = {}
    for label, at, exact, coarse, plateau, envelope, guarded, _ in _criterion_4_cases(
        omega0, axis
    ):
        averaged = guarded(exact, *at, window, carrier=omega0, envelope=envelope)
        gaps[label] = float(np.max(np.abs(averaged - coarse(*at)))) / plateau

    omega0 = 50.0
    window = 40.0 / omega0
    refusals, fringes, smears = {}, {}, {}
    for label, at, exact, coarse, plateau, envelope, guarded, plain in _criterion_4_cases(
        omega0, axis
    ):
        refusals[label] = _refusal(
            lambda: guarded(exact, *at, window, carrier=omega0, envelope=envelope)
        )
        averaged_exact = plain(exact, *at, window)
        averaged_coarse = plain(coarse, *at, window)
        fringes[label] = float(np.max(np.abs(averaged_exact - averaged_coarse))) / plateau
        smears[label] = float(np.max(np.abs(averaged_coarse - coarse(*at)))) / plateau

    elapsed = time.monotonic() - t0
    refused = all(msg is not None and "envelope" in msg for msg in refusals.values())
    ok = (
        max(gaps.values()) <= 0.02
        and refused
        and max(fringes.values()) <= 0.02
        and elapsed <= 120.0
    )

    def listing(values):
        return ", ".join(f"{label} {value:.2%}" for label, value in values.items())

    _verdict(
        capfd,
        4,
        "fluctuation averaging reproduces the coarse formulas within 2%",
        ok,
        f"max deviations of plateau at omega0 500: {listing(gaps)}; "
        f"omega0 50 window {'refused' if refused else 'NOT REFUSED'} by the guard, "
        f"fringe residual {listing(fringes)}, envelope smear {listing(smears)}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_visibility_table(capfd):
    tau = np.linspace(-6.0, 6.0, 4001)
    v_bp = 1.0 - hom_bp_analytic(tau, SPECTRUM).min() / 0.5
    v_cp_coarse = 1.0 - hom_cp_coarse_analytic(tau, PULSE).min()

    scenario = SensingScenario(dl1_0=5.0, dl2_0=-0.9)
    bp = run_sensing(scenario, SPECTRUM).report
    cp = run_sensing(scenario, PULSE).report

    checks = [
        (v_bp, 1.00, 0.01),
        (v_cp_coarse, 0.50, 0.01),
        (bp.v_max, 0.50, 0.02),
        (bp.v_min, 0.25, 0.02),
        (cp.v_min, 0.125, 0.02),
    ]
    ok = all(abs(got - want) <= tol for got, want, tol in checks)
    _verdict(
        capfd,
        5,
        "feature visibilities match the tabulated values",
        ok,
        f"standard pair {v_bp:.3f}, coarse pulse {v_cp_coarse:.3f}; "
        f"two-delay pair peak {bp.v_max:.3f} dip {bp.v_min:.3f}, "
        f"pulse dip {cp.v_min:.3f}",
    )


def test_criterion_6_loss_scaling_and_shape_invariance(capfd):
    scenario = SensingScenario(dl1_0=5.0, dl2_0=-0.8)
    clean = run_sensing(scenario, SPECTRUM).report
    worst_vis = 0.0
    for eta in (0.0, 0.3, 0.6, 0.9):
        loss = LossParams(chi2=chi2_for_eta_b(eta))
        r = run_sensing(scenario, SPECTRUM, loss=loss).report
        worst_vis = max(
            worst_vis,
            abs(r.v_max - (1.0 - eta) * clean.v_max),
            abs(r.v_min - (1.0 - eta) * clean.v_min),
        )

    axis = np.linspace(-3.0, 3.0, 41)
    t1, t2 = axis[:, None], axis[None, :]
    base = LossParams(chi1=0.9, chi2=0.6)
    scaled = LossParams(xi1=0.9, xi2=0.4, chi1=0.9, chi2=0.6)
    surf_a = mhom_bp_loss_coarse(t1, t2, SPECTRUM, base)
    surf_b = mhom_bp_loss_coarse(t1, t2, SPECTRUM, scaled)
    same_shape = np.argmax(surf_a) == np.argmax(surf_b) and np.argmin(
        surf_a
    ) == np.argmin(surf_b)
    ratio = bp_plateau(base) / bp_plateau(scaled)
    scale_ok = np.allclose(surf_b * ratio, surf_a, rtol=1e-12, atol=0.0)

    dark = LossParams(xi2=0.0, chi1=0.95, chi2=0.7)
    surf = mhom_cp_loss_coarse(t1, t2, PULSE, dark)
    flat = float(np.max(surf.max(axis=0) - surf.min(axis=0)))
    flat_ok = flat <= 1e-10 * cp_plateau(PULSE, dark)

    ok = worst_vis <= 0.02 and same_shape and scale_ok and flat_ok
    _verdict(
        capfd,
        6,
        "loss rescales visibilities but leaves feature geometry alone",
        ok,
        f"visibility error {worst_vis:.3f}, input-loss shape "
        f"{'stable' if same_shape and scale_ok else 'MOVED'}, "
        f"full-imbalance flatness {flat:.1e}",
    )


@pytest.mark.filterwarnings("ignore::homlab.rates.RegimeWarning")
def test_criterion_7_sensing_round_trip(capfd):
    """Short first delays push the pulse scans toward merged features; the
    scan warns there but the recovery tolerance still holds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260825)
    worst_bp = worst_cp = 0.0
    for _ in range(50):
        scenario = SensingScenario(
            dl1_0=2.0 * rng.uniform(1.5, 4.0), dl2_0=rng.uniform(-4.0, 4.0)
        )
        got = run_sensing(scenario, SPECTRUM)
        worst_bp = max(
            worst_bp,
            abs(got.dl1_recovered - scenario.dl1_0),
            abs(got.dl2_recovered - scenario.dl2_0),
        )
        got = run_sensing(scenario, PULSE)
        worst_cp = max(
            worst_cp,
            abs(got.dl1_recovered - scenario.dl1_0),
            abs(got.dl2_recovered - scenario.dl2_0),
        )
    elapsed = time.monotonic() - t0
    tol_cp = 0.1 / PULSE.d_omega
    ok = worst_bp <= 0.1 and worst_cp <= tol_cp and elapsed <= 120.0
    _verdict(
        capfd,
        7,
        "both path offsets recovered from 50 random double-delay scans",
        ok,
        f"worst residual: pair {worst_bp:.3f} (tol 0.1), "
        f"pulse {worst_cp:.3f} (tol {tol_cp:.1f}); {elapsed:.1f}s",
    )


def test_criterion_8_positioning_round_trip(capfd):
    rng = np.random.default_rng(606)
    worst_inv = worst_rel = 0.0
    for _ in range(100):
        target = QpsTarget(
            r=rng.uniform(0.2, 5.0),
            gamma=rng.uniform(0.02, math.pi / 2.0 - 0.02),
            vartheta=rng.uniform(0.0, 2.0 * math.pi),
        )
        d = qps_forward(target)
        sign_u = 1 if target.u >= 0.0 else -1
        sign_v = 1 if target.v >= 0.0 else -1
        inv = qps_invert(target.r, d.s1, d.s2, sign_u=sign_u, sign_v=sign_v)
        worst_inv = max(
            worst_inv,
            abs(inv.target.gamma - target.gamma),
            _wrapped(inv.target.vartheta, target.vartheta),
        )
        four_r2 = 4.0 * target.r**2
        worst_rel = max(
            worst_rel,
            abs(d.l1**2 + d.l2**2 - four_r2) / four_r2,
            abs(d.l3**2 + d.l4**2 - four_r2) / four_r2,
        )

    rng = np.random.default_rng(707)
    path_err = 0.1
    scans_ok = True
    worst_angle_margin = 0.0
    for _ in range(10):
        target = QpsTarget(
            r=2.0, gamma=rng.uniform(0.1, 1.4), vartheta=rng.uniform(0.0, 2.0 * math.pi)
        )
        truth = qps_forward(target)
        out = qps_scan(target, SPECTRUM)
        allow_g, allow_t = _angular_allowance(target, path_err)
        scans_ok = scans_ok and (
            abs(out.s1 - truth.s1) <= path_err
            and abs(out.s2 - truth.s2) <= path_err
            and out.gamma_error <= allow_g + 1e-6
            and out.vartheta_error <= allow_t + 1e-6
        )
        worst_angle_margin = max(worst_angle_margin, out.gamma_error, out.vartheta_error)

    ok = worst_inv <= 1e-9 and worst_rel <= 1e-12 and scans_ok
    _verdict(
        capfd,
        8,
        "angular coordinates recovered from the two control delays",
        ok,
        f"inverse geometry {worst_inv:.1e}, baseline identity {worst_rel:.1e}, "
        f"10 scans within the 0.1 path-error allowance "
        f"(worst angle {worst_angle_margin:.4f} rad)",
    )


def _wrapped(a, b):
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _abs_direction_cosine(r, s):
    w = 1.0 - (s / r) ** 2
    return math.sqrt(max(0.0, 1.0 - w * w))


def _angular_allowance(target, path_err):
    d = qps_forward(target)
    su = 1.0 if target.u >= 0.0 else -1.0
    sv = 1.0 if target.v >= 0.0 else -1.0
    worst_g = worst_t = 0.0
    for da in (-path_err, 0.0, path_err):
        for db in (-path_err, 0.0, path_err):
            s1 = min(max(d.s1 + da, 0.0), target.r)
            s2 = min(max(d.s2 + db, 0.0), target.r)
            u = su * _abs_direction_cosine(target.r, s1)
            v = sv * _abs_direction_cosine(target.r, s2)
            norm = math.hypot(u, v)
            if norm > 1.0:
                u, v = u / norm, v / norm
            gamma = math.acos(min(math.hypot(u, v), 1.0))
            vartheta = math.atan2(v, u)
            worst_g = max(worst_g, abs(gamma - target.gamma))
            worst_t = max(worst_t, _wrapped(vartheta, target.vartheta))
    return worst_g, worst_t


def test_criterion_9_figure_data_regression(capfd, tmp_path):
    identical = True
    for preset in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        first = run_figure(preset, tmp_path / "a" / preset)
        second = run_figure(preset, tmp_path / "b" / preset)
        for pa, pb in zip(first, second):
            identical = identical and pa.read_bytes() == pb.read_bytes()

    rows = np.genfromtxt(
        tmp_path / "a" / "fig2" / "fig2_cp_coarse.csv", delimiter=",", names=True
    )
    floor = float(rows["rate_rescaled"].min())
    floor_ok = abs(floor - 0.5) <= 1e-6

    rows = np.genfromtxt(
        tmp_path / "a" / "fig3" / "fig3_theta_pi2.csv", delimiter=",", names=True
    )
    n = int(round(math.sqrt(rows.size)))
    surf = rows["rate_rescaled"].reshape(n, n)
    t1 = rows["tau1"].reshape(n, n)[:, 0]
    diag = np.diagonal(surf).copy()
    i0 = int(np.argmin(np.abs(t1)))
    zero_at_origin = diag[i0] <= 1e-9
    diag[i0] = 1.0
    unique = diag.min() >= 1e-6

    rows = np.genfromtxt(
        tmp_path / "a" / "fig4" / "fig4.csv", delimiter=",", names=True
    )
    at_origin = (np.abs(rows["tau1"]) < 1e-12) & (np.abs(rows["tau2"]) < 1e-12)
    origin_ok = abs(float(rows["rate_rescaled"][at_origin][0]) - 1.0) <= 1e-9

    ok = identical and floor_ok and zero_at_origin and unique and origin_ok
    _verdict(
        capfd,
        9,
        "figure presets regenerate byte-identically with pinned landmarks",
        ok,
        f"coarse pulse floor {floor:.6f}, surface zero "
        f"{'unique at origin' if zero_at_origin and unique else 'WRONG'}, "
        f"pulse-surface origin {'1.0' if origin_ok else 'off'}",
    )
