"""Command-line front end: configs, presets, artifacts and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import homlab.cli as cli
from homlab import figures, qps, rates, sensing
from homlab.cli import (
    _MAX_VALUES,
    _MODES,
    _RECORDERS,
    ConfigError,
    curve_csv,
    curve_rows,
    main,
    parse_angle,
    run_figure,
    run_scenario,
    surface_csv,
    surface_rows,
)
from homlab.figures import FIGURE_PRESETS, build_figure, chi2_for_eta_b, theta_tag
from homlab.rates import (
    MAX_WINDOW_NODES,
    RateCurve,
    RateSurface,
    RegimeWarning,
    box_average_curve,
    box_average_surface,
    coarse_grain_curve,
    coarse_grain_surface,
    mhom_bp_analytic,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
)
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum


def read_rows(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def curve_value_at(path, x, column="delay"):
    rows = read_rows(path)
    idx = int(np.argmin(np.abs(rows[column] - x)))
    return float(rows["rate_rescaled"][idx])


# ----- figure presets -----


def test_preset_list_is_frozen():
    assert FIGURE_PRESETS == ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")


def test_fig2_bundle_values():
    bundle = build_figure("fig2")
    names = [ds.name for ds in bundle.datasets]
    assert names == ["fig2_bp", "fig2_cp", "fig2_cp_coarse"]
    by_name = {ds.name: ds for ds in bundle.datasets}
    for ds in bundle.datasets:
        assert isinstance(ds.data, RateCurve)
    bp = by_name["fig2_bp"].data
    i0 = int(np.argmin(np.abs(bp.axis)))
    assert bp.values[i0] <= 1e-9
    coarse = by_name["fig2_cp_coarse"].data
    assert coarse.values[i0] == pytest.approx(0.5, abs=1e-6)


def test_fig3_bundle_and_theta_override():
    both = build_figure("fig3")
    assert [ds.name for ds in both.datasets] == ["fig3_theta0", "fig3_theta_pi2"]
    only = build_figure("fig3", theta=math.pi / 2.0)
    assert [ds.name for ds in only.datasets] == ["fig3_theta_pi2"]
    surf = only.datasets[0].data
    i0 = int(np.argmin(np.abs(surf.tau1_axis)))
    assert surf.values[i0, i0] <= 1e-12
    # the diagonal vanishes nowhere else
    diag = np.diagonal(surf.values).copy()
    diag[i0] = 1.0
    assert diag.min() >= 1e-6


def test_fig4_origin_value():
    bundle = build_figure("fig4")
    surf = bundle.datasets[0].data
    i0 = int(np.argmin(np.abs(surf.tau1_axis)))
    assert surf.values[i0, i0] == pytest.approx(1.0, abs=1e-12)


def test_fig6_uses_literal_pulse_width():
    """The comparison-curve preset pins the pulse width to the pair width
    instead of the matched local spread."""
    bundle = build_figure("fig6")
    cp = next(ds for ds in bundle.datasets if ds.name == "fig6_cp")
    pulse = CoherentSpectrum(omega0=5.0, d_omega=1.0, total_intensity=1.0)
    x = cp.data.axis[37]
    assert cp.data.values[37] == pytest.approx(
        float(mhom_cp_coarse_analytic(2.0, x, pulse)), rel=1e-12
    )


def test_fig7_lossy_bundle():
    bundle = build_figure("fig7")
    assert [ds.name for ds in bundle.datasets] == [
        "fig7_eta00",
        "fig7_eta03",
        "fig7_eta06",
        "fig7_eta09",
    ]
    plateaus = [ds.data.plateau for ds in bundle.datasets]
    assert plateaus[0] == pytest.approx(0.5, rel=1e-12)
    assert all(b < a for a, b in zip(plateaus, plateaus[1:]))


def test_build_figure_validation():
    with pytest.raises(ValueError, match="preset"):
        build_figure("fig1")
    with pytest.raises(ValueError, match="phase"):
        build_figure("fig5", theta=0.3)
    with pytest.raises(ValueError):
        build_figure("fig2", n=4)
    # ``None`` keeps the preset's phase, so the scalar rule's cases go here
    for theta, error in ((math.nan, ValueError), (math.inf, ValueError),
                         ("1", TypeError), (True, TypeError)):
        with pytest.raises(error, match="^theta must be"):
            build_figure("fig4", theta=theta)


def test_theta_tag_spellings():
    assert theta_tag(0.0) == "theta0"
    assert theta_tag(math.pi / 2.0) == "theta_pi2"
    assert theta_tag(3.0 * math.pi / 4.0) == "theta_3pi4"
    # a large phase is within 1e-12 of some multiple of pi by rounding alone
    assert theta_tag(13.0 * math.pi) == "theta_40p8407"
    assert theta_tag(1e20) == "theta_1e+20"
    assert theta_tag(1e300) == "theta_1e+300"
    assert theta_tag(-1e308) == "theta_m1e+308"


def test_chi2_for_eta_b_round_trip():
    from homlab.rates import LossParams

    for eta in (0.0, 0.3, 0.6, 0.9):
        loss = LossParams(chi2=chi2_for_eta_b(eta))
        assert loss.eta_b == pytest.approx(eta, abs=1e-12)
    with pytest.raises(ValueError):
        chi2_for_eta_b(1.0)


# ----- angles -----


def test_parse_angle_accepts_pi_notation():
    assert parse_angle("pi", "theta") == pytest.approx(math.pi)
    assert parse_angle("-pi", "theta") == pytest.approx(-math.pi)
    assert parse_angle("pi/2", "theta") == pytest.approx(math.pi / 2.0)
    assert parse_angle("3pi/4", "theta") == pytest.approx(3.0 * math.pi / 4.0)
    assert parse_angle("0.5pi", "theta") == pytest.approx(math.pi / 2.0)
    assert parse_angle(1.25, "theta") == 1.25
    assert parse_angle("1.25", "theta") == 1.25


def test_parse_angle_rejects_junk():
    with pytest.raises(ConfigError, match="theta"):
        parse_angle("two pies", "theta")
    with pytest.raises(ConfigError):
        parse_angle(None, "theta")
    with pytest.raises(ConfigError, match="^theta: cannot parse angle 'pi2'$"):
        parse_angle("pi2", "theta")


@pytest.mark.parametrize("text", ["pi/inf", "pi/-inf", "pi/nan", "infpi", "-infpi", "nanpi"])
def test_parse_angle_rejects_non_finite_parts(text):
    with pytest.raises(ConfigError, match=f"theta: cannot parse angle '{text}'"):
        parse_angle(text, "theta")


# ----- CSV formatting -----


def _fmt(x):
    return "%.12g" % float(x)


def _reference_csv(obj, labels):
    """Per-value formatter the row-template writers must match byte for byte."""
    if isinstance(obj, RateCurve):
        scaled = np.asarray(obj.values, dtype=float) / obj.plateau
        lines = [f"{labels[0]},rate_rescaled"]
        lines.extend(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(obj.axis, scaled))
        return "\n".join(lines) + "\n"
    scaled = np.asarray(obj.values, dtype=float) / obj.plateau
    lines = [f"{labels[0]},{labels[1]},rate_rescaled"]
    for i, t1 in enumerate(obj.tau1_axis):
        lines.extend(
            f"{_fmt(t1)},{_fmt(t2)},{_fmt(y)}"
            for t2, y in zip(obj.tau2_axis, scaled[i])
        )
    return "\n".join(lines) + "\n"


# signed zero, subnormal, tiny, huge, inexact sums, integers, and values
# whose 13th significant digit decides the rounding of the 12th (no inf or
# nan: rate containers refuse them)
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 3.0, 12345678901234.0,
    0.1234567890125, 0.1234567890135, 9.9999999999995, 999999999999.5,
    1.0000000000005, 2.0 / 3.0, 1e-5, 123456.789,
]
ODD_LABELS = [("delay", "tau2"), ("x%d", "50%"), ("τ1", "a,b"), ("", "\0")]


@pytest.mark.parametrize("plateau", [1.0, 0.3])
@pytest.mark.parametrize("labels", ODD_LABELS)
def test_curve_csv_matches_reference(labels, plateau):
    curve = RateCurve(-np.array(EDGE_VALUES), np.array(EDGE_VALUES), plateau)
    assert curve_csv(curve, labels[0]) == _reference_csv(curve, labels)
    empty = RateCurve(np.array([]), np.array([]), plateau)
    assert curve_csv(empty, labels[0]) == _reference_csv(empty, labels)


@pytest.mark.parametrize("plateau", [1.0, 0.3])
@pytest.mark.parametrize("labels", ODD_LABELS)
def test_surface_csv_matches_reference(labels, plateau):
    t1 = np.array(EDGE_VALUES[:7]) - 0.5
    t2 = np.array(EDGE_VALUES[5:])
    values = np.abs(np.add.outer(t1, t2)) * 1e-3
    values[0, :] = EDGE_VALUES[: t2.size]
    values[:, 0] = EDGE_VALUES[-t1.size:]
    surface = RateSurface(t1, t2, values, plateau)
    assert surface_csv(surface, labels) == _reference_csv(surface, labels)
    single = RateSurface(np.array([-0.0]), np.array([5e-324]), np.array([[0.1 + 0.2]]), plateau)
    assert surface_csv(single, labels) == _reference_csv(single, labels)


@pytest.mark.parametrize("chunk", [3, 6, 9, 60, 300])
def test_csv_chunks_are_bounded_and_join_to_the_reference(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK_VALUES", chunk)
    t1, t2 = np.array(EDGE_VALUES[:5]) - 0.5, np.array(EDGE_VALUES[4:11])
    surface = RateSurface(t1, t2, np.abs(np.add.outer(t1, t2)) * 1e-3, 0.3)
    curve = RateCurve(-t2, np.array(EDGE_VALUES[:t2.size]), 0.3)
    for chunks, obj, labels in (
            (list(surface_rows(surface)), surface, ("tau1", "tau2")),
            (list(curve_rows(curve)), curve, ("delay", "tau2"))):
        assert "".join(chunks) == _reference_csv(obj, labels)
        numbers = [chunk_text.count(",") + chunk_text.count("\n") for chunk_text in chunks[1:]]
        assert max(numbers) <= chunk


def test_csv_writers_match_reference_on_presets():
    for preset in FIGURE_PRESETS:
        for ds in build_figure(preset).datasets:
            if isinstance(ds.data, RateCurve):
                assert curve_csv(ds.data, ds.labels[0]) == _reference_csv(ds.data, ds.labels)
            else:
                assert surface_csv(ds.data, ds.labels) == _reference_csv(ds.data, ds.labels)


def _kernel_text(x, end="\n"):
    """What the digit kernel writes for the values ``x``, its NULs deleted."""
    words = np.empty((x.size, 6), np.uint32)
    cli._texts(x, end, words)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _format_probe(rng):
    """Over a million signed values: half over every binade from 5e-324 to
    1e300, half over the kernel's fast band and past its edges; then exact
    decimal ties (k + 0.5) 10**-j of 12-digit k, values that round to a power
    of ten and +-64 ulps around each power of ten from 1e-5 to 1e9."""
    binades = np.ldexp(rng.uniform(1.0, 2.0, 1 << 19), rng.integers(-1074, 997, 1 << 19))
    band = 10.0 ** rng.uniform(-5.0, 9.5, 1 << 19)
    ties = (rng.integers(10**11, 10**12, 1 << 15) + 0.5) / 10.0 ** rng.integers(3, 17, 1 << 15)
    near = (10.0 ** np.arange(-5, 10))[:, None].view(np.int64) + np.arange(-64, 65)
    rounding = [9.9999999999995, 9.99999999999949e-5, 0.099999999999995, 999999999999.5,
                np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), np.nextafter(10, 0), np.nextafter(10, 11)]
    x = np.concatenate([binades, band, ties, near.ravel().view(np.float64), rounding])
    return x * rng.choice([-1.0, 1.0], x.size)


def _first_difference(values, got, want):
    """None if the texts match, else the first value whose line differs, with
    both lines (a whole-text diff of a million lines would take minutes)."""
    if got == want:
        return None
    lines = zip(values, got.splitlines(), want.splitlines())
    return next(((value, a, b) for value, a, b in lines if a != b), "line counts differ")


def test_digit_kernel_writes_what_percent_writes():
    x = _format_probe(np.random.default_rng(12))
    specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan]
    x = np.concatenate([x, specials])
    want = ("%.12g\n" * x.size) % tuple(x.tolist())
    assert _first_difference(x.tolist(), _kernel_text(x), want) is None
    # through the CSV writer: signed values as a curve's axis, their sizes as its rates
    x = x[:-3:8]
    want = ("%.12g,%.12g\n" * x.size) % tuple(np.c_[x, np.abs(x)].ravel().tolist())
    header, got = curve_csv(RateCurve(x, np.abs(x), 1.0)).split("\n", 1)
    assert header == "delay,rate_rescaled"
    assert _first_difference(x.tolist(), got, want) is None


# SHA-256 of every CSV the figure presets write, pinned when the per-value
# formatter was replaced; any change to these bytes must be deliberate.
PRESET_CSV_SHA256 = {
    "fig2_bp.csv": "b925a3bb1eb685db87627136eb1d22a6f82add25a3921526699db5b40065ae5b",
    "fig2_cp.csv": "db7c1fd96b277212652688024a54ed3a9bcc0cfb12983dd79ff529f93b4c5709",
    "fig2_cp_coarse.csv": "21dcec58829f7b2604e1799ec1800fdca9b5a1d7ae8aee06964c27b82e5bb8f8",
    "fig3_theta0.csv": "a96175f9994efadc5793a891b821490dad0ea0e631b914136824f72677bd6998",
    "fig3_theta_pi2.csv": "2548b4bca555b6fe34c465585d214a34fb622e917b617a140a4592a86805646b",
    "fig4.csv": "bd57a5b13eccaf17fff18eba5d2511e2b47c5e97fa1987eec60aa50f57c4a207",
    "fig5_bp.csv": "63c786702fa4e9f1d2d92209dd00ed6809b948c48ee2bb1f8191bc369a4205a8",
    "fig5_cp.csv": "460c8afe6216acfcc6bbce9bca715b665a0bde5b239d4ac5fe346c3640a29b6a",
    "fig6_bp.csv": "f36eacdb0f0ad8e4f1ecd9789c020aa5bd454ecc2fe7d3f6528c07d5a1b227b6",
    "fig6_cp.csv": "8a806277609b97bba6397f1602678aafbf6a45684bb3e40d0f5e10966a369bf0",
    "fig7_eta00.csv": "63c786702fa4e9f1d2d92209dd00ed6809b948c48ee2bb1f8191bc369a4205a8",
    "fig7_eta03.csv": "7d7b4f7553c9a89487e342e6222add5e874bfd3de757c28dc689d8619d853046",
    "fig7_eta06.csv": "be23098dd7bf3252b9d695d0a9e4bb1da23027dcdbfa7dfc649a251bb0cf889f",
    "fig7_eta09.csv": "401ece8375f145f8cca5bd82764964c78dc2c4c2b7af2e8035dc8f8e5ff1ce2a",
    "fig8_eta00.csv": "f36eacdb0f0ad8e4f1ecd9789c020aa5bd454ecc2fe7d3f6528c07d5a1b227b6",
    "fig8_eta03.csv": "c06025b2036bee91a4fe27aadfcadc7a61262bbabd04bb0f41a2f4ac50920d51",
    "fig8_eta06.csv": "a8cd3fbc001fe5cd8b5c53cb0115b2bdc4c9611509a2064f378f63b5b24dd809",
    "fig8_eta09.csv": "87984065e4ff211a8acc4c1ac9a6efe320c981870fbdbdc0691e67b5ab39567a",
}


# SHA-256 of every preset JSON sidecar, and of every file of two presets run
# with a phase and size override, pinned before the presets became data.
PRESET_JSON_SHA256 = {
    "fig2.json": "00223138ade38e205227959d3fa00a2d4d5344996f4d732e8d61ef6b0c55f3d8",
    "fig3.json": "0ffa898889be7822400b4f3f2988794e8ccb0a9ae42ab604d91b7917f0f7c472",
    "fig4.json": "aee45ab215e1722366f33a213f9d47dcda115dab78347b44e6c7e3e53eb76e53",
    "fig5.json": "90d139fbf11093dca5f7f66b6c4a48b1d2312737a7b1eab203670e8a3b291bb7",
    "fig6.json": "ca38361be683bba8528e2332a3d74b39395fb50a7c7291275edda2892b35b5f0",
    "fig7.json": "63d3dfa1b25308cad8c0cc7c4071cbba78c743b3b53f8a8ee9b5d7f73b7dfd33",
    "fig8.json": "10e4212000d921d6113c49f424ae1abe458bede049628ee9593d9f395fe984af",
}
PRESET_OVERRIDE_SHA256 = {
    ("fig3", "pi/3", 40): {
        "fig3.json": "253d478efd08ff5c210d984ba9013766b1165675488971ebf4c3c34fb036fffc",
        "fig3_theta_pi3.csv": "3386a2ca882d0b6c6a480ee9c203f56899273c69d37a8a828166a645671509cf",
    },
    ("fig4", "pi/4", 24): {
        "fig4.csv": "63c04f8eb785949e3b7441a0d9026230f38e0fdf5c0dbd20eba6bb74036e3b25",
        "fig4.json": "67572a5c30e442f6d10bf320b5f1bb15cc0390a72785707a581b139c85f1b5ef",
    },
}


def _sha256_by_name(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}


def test_preset_csv_golden_hashes(tmp_path):
    written = {}
    for preset in FIGURE_PRESETS:
        out = tmp_path / preset
        assert main(["figure", preset, "--out", str(out)]) == 0
        written.update(_sha256_by_name(out))
    assert written == {**PRESET_CSV_SHA256, **PRESET_JSON_SHA256}
    for (preset, theta, n), expected in PRESET_OVERRIDE_SHA256.items():
        out = tmp_path / f"{preset}_override"
        assert main(["figure", preset, "--theta", theta, "--n", str(n), "--out", str(out)]) == 0
        assert _sha256_by_name(out) == expected


_PAIR = {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0}
_PULSE = {"omega0": 5.0, "d_omega": 0.5}
_FAST_PULSE = {"omega0": 500.0, "d_omega": 0.5, "total_intensity": 1.5}
_FAST_PAIR = {"omega0": 500.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0}
_LOSS = {"xi2": 0.8, "chi1": 0.9, "chi2": [0.5, 0.3]}
_GRID = {"tau1": {"min": -2.5, "max": 2.5, "n": 11}, "tau2": {"min": -3.0, "max": 3.0, "n": 13}}
_WINDOW_GRID = {"tau1": {"min": -1.0, "max": 1.0, "n": 5}, "tau2": {"min": -1.0, "max": 1.0, "n": 4}}
_SCENARIO = {"dl1_0": 4.4, "dl2_0": -1.3}

# Small ``homlab run`` configurations covering every surface and report mode,
# with and without losses.
RUN_CONFIGS = {
    "hom_bp": {"mode": "hom", "source": "bp", "spectrum": _PAIR,
               "tau": {"min": -3.0, "max": 3.0, "n": 31}},
    "hom_cp": {"mode": "hom", "source": "cp", "pulse": _PULSE,
               "tau": {"min": -3.0, "max": 3.0, "n": 31}},
    "hom_cp_coarse": {"mode": "hom", "source": "cp_coarse", "pulse": _PULSE,
                      "tau": {"min": -3.0, "max": 3.0, "n": 31}},
    "mhom_bp": {"mode": "mhom", "source": "bp", "spectrum": _PAIR, "theta": "pi/2", **_GRID},
    "mhom_cp": {"mode": "mhom", "source": "cp", "pulse": _PULSE, "theta": 0.3, **_GRID},
    "coarse_bp": {"mode": "coarse", "source": "bp", "spectrum": _PAIR, **_GRID},
    "coarse_cp": {"mode": "coarse", "source": "cp", "pulse": _PULSE, **_GRID},
    "coarse_bp_window": {"mode": "coarse", "source": "bp", "spectrum": _FAST_PAIR,
                         "window": 0.1, **_WINDOW_GRID},
    "coarse_cp_window": {"mode": "coarse", "source": "cp", "pulse": _FAST_PULSE,
                         "window": 0.2, "theta": "pi/2", "window_n": 300, **_WINDOW_GRID},
    "loss_bp": {"mode": "loss", "source": "bp", "spectrum": _PAIR, "loss": _LOSS, **_GRID},
    "loss_cp": {"mode": "loss", "source": "cp", "pulse": _PULSE, "loss": _LOSS, **_GRID},
    "sense_bp": {"mode": "sense", "source": "bp", "spectrum": _PAIR,
                 "scenario": _SCENARIO, "n": 401},
    "sense_bp_loss": {"mode": "sense", "source": "bp", "spectrum": _PAIR,
                      "scenario": _SCENARIO, "loss": _LOSS, "n": 401},
    "sense_cp": {"mode": "sense", "source": "cp", "pulse": {"omega0": 5.0, "d_omega": 1.0},
                 "scenario": _SCENARIO, "n": 401},
    "sense_cp_loss": {"mode": "sense", "source": "cp", "pulse": {"omega0": 5.0, "d_omega": 1.0},
                      "scenario": _SCENARIO, "loss": _LOSS, "n": 401, "span": 9.0},
    "qps": {"mode": "qps", "target": {"r": 2.0, "gamma": 0.8, "vartheta": 2.2},
            "spectrum": _PAIR, "surface_n": 9},
    "qps_loss": {"mode": "qps", "target": {"r": 2.0, "gamma": 0.8, "vartheta": 2.2},
                 "spectrum": _PAIR, "loss": _LOSS, "surface_n": 9},
}


# SHA-256 of every file ``homlab run`` writes for RUN_CONFIGS, pinned before
# the lossless and lossy averaged forms were merged into one formula per source.
RUN_SHA256 = {
    "hom_bp": {
        "hom_bp.csv": "3981ea40df39b55cc09229c201c925e7bcc6a8dd116c82d511c616adb2409ee0",
        "hom_bp.json": "642c6c521a3b0095c8bc5ab1901e70be183ac243d074e348f687bc887fe70619",
    },
    "hom_cp": {
        "hom_cp.csv": "6cd2d74c998b1cf171aa9b7d6aae7d51588394121ed49a80c1c8ca32533300bb",
        "hom_cp.json": "ee5455361721fb113805c50a1db94000b5e32ae03bee68e41ad86dd44b2a71c0",
    },
    "hom_cp_coarse": {
        "hom_cp_coarse.csv": "9f48a68d766a9f35b3ebc41dfe6e904ffaeb7a21e132adad8f45dd5940f45c9d",
        "hom_cp_coarse.json": "a856ffc15379b90b7e8e79c34d08e47e3241eccafd4fdef7be88371628d1167e",
    },
    "mhom_bp": {
        "mhom_bp.csv": "aeb0bd8d4cdf10bec9091f7bca47ec190890e9d2e3efb8cc792c574384f3ca87",
        "mhom_bp.json": "f070290ba00098fcbee5cb6c8901634e75f23290a454bcf96f904b8859cf7e0e",
    },
    "mhom_cp": {
        "mhom_cp.csv": "c591ab2188e75caac80e6d5ab418cc1fc756d0566621b6f36acf773d2ddf539b",
        "mhom_cp.json": "cb0e10bb56395ed959a2f91479931cc158600448e178e262a40799fe7aeaa855",
    },
    "coarse_bp": {
        "coarse_bp.csv": "4225df537a2ca6683c0d23ef74e111a8c7920ab046cca67573ded9074f10c753",
        "coarse_bp.json": "444e501c9eb7b9b5e814e66b109661b57207916e5320a4a04a4c0dc1d76b23e2",
    },
    "coarse_cp": {
        "coarse_cp.csv": "26dbbdff99cd87e163184cc4d4969315f2c7348323428d880363f5a364eee390",
        "coarse_cp.json": "0e5a8fafcd5a4dc53df8525a940c5180468984b379bba743e0706e2efd4f1bec",
    },
    "coarse_bp_window": {
        "coarse_bp.csv": "cb2a695e828340b9525ab1f67e6e68837ded48c3637b74bbce20dda70728c31e",
        "coarse_bp.json": "42807b031600fcd72c92b161bb74ab22d3b7552485780877d021c62c865540ae",
    },
    "coarse_cp_window": {
        "coarse_cp.csv": "85db96268b88d9dea903cbd0fe03010da1a47b335361f5b144734226a482ee1c",
        "coarse_cp.json": "eb41484f0dc69540fdab57f69a8dc610063438649aa5720d8bec3d0447372bf8",
    },
    "loss_bp": {
        "loss_bp.csv": "51fdade9956e7e09e60c10f57ad5a500bc84b29044ee2a2b2b0b0fb41de75f7f",
        "loss_bp.json": "3e2f24520774df89a1c2ce4b1cfac8e441c09d050409679f1199d96e4f8b7f74",
    },
    "loss_cp": {
        "loss_cp.csv": "ead4fe0cf971c27e206785a07feaf639b875e4742de5e98118645f0943197825",
        "loss_cp.json": "fb72b7fe60ed3dbf53f76556b96d1f501843ac98375a82d01366295d935173d4",
    },
    "sense_bp": {
        "sense_bp_report.json": "19f2861193f70190a71fe136265b4c95a0827c92f0080be7a26d08a91e0eafc2",
        "sense_bp_scan.csv": "7e81d733aa4603699601e8625cf336f47a5a74d8aae046bf1129d11dca022ab7",
    },
    "sense_bp_loss": {
        "sense_bp_report.json": "ae63a6f724f941bc07faab45634eaee0ce17307c11bacaf1b1ababbcbb6aab6d",
        "sense_bp_scan.csv": "06f6cd207ba38d67010a4259d27ad0d4f516c1fe96119bd08ddc6e8a40ec45a7",
    },
    "sense_cp": {
        "sense_cp_report.json": "8ecfefaee194dcd948683cc8823aab09a82e74e991aa77535a6aaee69a0613dc",
        "sense_cp_scan.csv": "daeb908332230a171f784e72dcc742dd48aafe644ad1f280709a74b07a13b166",
    },
    "sense_cp_loss": {
        "sense_cp_report.json": "26fa2dded303f7aa71dddf9e4f7dbf2df49de09d2c356791a0546091e38119fc",
        "sense_cp_scan.csv": "840d8442b3beb76929d7095eed69fb61bd1600a42bed9ece2e1dab13a9924f42",
    },
    "qps": {
        "qps_report.json": "9fc3a8de972a52298102b3009d0c6dcc147fadf51569049d0c3b12fe6e64fc83",
        "qps_scan.csv": "ab46e89c9aacd700acd84d54efd4b1f21053011809bdef55c2cc5e37671667f6",
        "qps_surface.csv": "eee3c8368be6f39d68c8cfd6bb2614f257cab5ce768e57b576cc345900908e52",
    },
    "qps_loss": {
        "qps_report.json": "13ae00b8770630bffb9c230de8c820be44ea46c3fbab40eb97f58a9230cc9156",
        "qps_scan.csv": "d0259bb0ab95a9b93d6d6983bf3886a61a386a25c688b5b87ee51de710b9f425",
        "qps_surface.csv": "a05893e42d04d305224b610612bd84ce055d1b6071256bc7e52809560602ca4a",
    },
}


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_run_golden_hashes(tmp_path, name, capsys):
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS[name]})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert _sha256_by_name(out) == RUN_SHA256[name]


def test_config_fields_each_run_mode_does_not_record():
    """The fields of each mode's table that ``_RECORDERS`` gives no record rule;
    a field added to a mode without one shows up here."""
    unrecorded = {mode: set(table) - set(_RECORDERS)
                  for mode, (table, _, _) in _MODES.items() if mode != "figure"}
    assert unrecorded == {
        "hom": {"stem"}, "mhom": {"stem"}, "coarse": {"stem"}, "loss": {"stem"},
        "sense": {"n", "span", "stem"}, "qps": {"n", "surface_n", "stem"},
    }


# What a run's builder adds to its sidecar besides the config fields.
_BUILDER_RESULTS = {"plateau", "extrema", "recovered", "residuals", "controls"}


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_sidecar_keys_are_envelope_recorded_fields_or_results(tmp_path, name):
    cfg = RUN_CONFIGS[name]
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, {"version": 1, **cfg}), "--out", str(out)]) == 0
    [sidecar] = out.glob("*.json")
    keys = set(json.loads(sidecar.read_text(encoding="utf-8")))
    recorded = set(_MODES[cfg["mode"]][0]) & set(_RECORDERS)
    assert {"mode", "units", "files"} <= keys
    assert keys <= {"mode", "units", "files", *recorded, *_BUILDER_RESULTS}


# Settings that change which numpy kernels and OpenBLAS threads a run uses.
HASH_SETTINGS = [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    {"OPENBLAS_CORETYPE": "Haswell"},
]
# Writes each config read from stdin and every preset, then prints the
# SHA-256 of every file by run name.
_HASH_CHILD = """
import contextlib, hashlib, io, json, sys, tempfile
from pathlib import Path
from homlab.cli import main
from homlab.figures import FIGURE_PRESETS

configs = json.load(sys.stdin)
hashes = {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    runs = {preset: ["figure", preset] for preset in FIGURE_PRESETS}
    for name, cfg in configs.items():
        Path(tmp, name + ".json").write_text(json.dumps(cfg), encoding="utf-8")
        runs[name] = ["run", str(Path(tmp, name + ".json"))]
    for name, argv in runs.items():
        out = Path(tmp, "out", name)
        assert main([*argv, "--out", str(out)]) == 0, name
        hashes[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in out.iterdir()}
print(json.dumps(hashes))
"""


def test_golden_hashes_hold_across_blas_threads_and_simd_dispatch():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    configs = json.dumps({name: {"version": 1, **cfg} for name, cfg in RUN_CONFIGS.items()})
    children = []
    for setting in HASH_SETTINGS:
        env = {**os.environ, **setting,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        children.append(subprocess.Popen([sys.executable, "-c", _HASH_CHILD], env=env, text=True,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE))
    try:
        for setting, child in zip(HASH_SETTINGS, children):
            stdout, stderr = child.communicate(configs, timeout=300)
            assert child.returncode == 0, (setting, stderr)
            got = json.loads(stdout)
            presets = {}
            for preset in FIGURE_PRESETS:
                presets.update(got.pop(preset))
            assert presets == {**PRESET_CSV_SHA256, **PRESET_JSON_SHA256}, setting
            assert got == RUN_SHA256, setting
    finally:
        for child in children:
            child.kill()


def _on_grid(name, n):
    grid = {"min": -3.0, "max": 3.0, "n": n}
    return {**RUN_CONFIGS[name], "tau1": grid, "tau2": grid}


# a 451^2 pair surface at theta = pi/2 (its Mandel zero at the origin), a
# 451^2 pulse surface and a sensing scan
@pytest.mark.parametrize("config", [_on_grid("mhom_bp", 451), _on_grid("mhom_cp", 451),
                                    RUN_CONFIGS["sense_bp"]], ids=["mhom_bp", "mhom_cp", "sense_bp"])
def test_percent_formats_under_one_percent_of_a_run(tmp_path, monkeypatch, config):
    seen = {"all": 0, "percent": 0}
    texts, percent = cli._texts, cli._percent

    def counted_texts(x, end, out):
        seen["all"] += x.size
        texts(x, end, out)

    def counted_percent(x, end):
        seen["percent"] += x.size
        return percent(x, end)

    monkeypatch.setattr(cli, "_texts", counted_texts)
    monkeypatch.setattr(cli, "_percent", counted_percent)
    cfg = write_config(tmp_path, {"version": 1, **config})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert seen["all"] > 800
    assert seen["percent"] < 0.01 * seen["all"]


# ----- figure subcommand -----


def test_figure_subcommand_writes_files(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 4
    for name in ("fig2_bp.csv", "fig2_cp.csv", "fig2_cp_coarse.csv", "fig2.json"):
        assert (out / name).is_file()
    assert not list(out.glob("*.tmp"))
    sidecar = json.loads((out / "fig2.json").read_text())
    assert sidecar["files"] == ["fig2_bp.csv", "fig2_cp.csv", "fig2_cp_coarse.csv"]
    assert sidecar["units"]["c"] == 1.0


def test_figure_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    files_a = run_figure("fig2", a)
    files_b = run_figure("fig2", b)
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_figure_csv_spot_values(tmp_path):
    run_figure("fig2", tmp_path)
    assert curve_value_at(tmp_path / "fig2_bp.csv", 0.0) <= 1e-9
    assert curve_value_at(tmp_path / "fig2_cp_coarse.csv", 0.0) == pytest.approx(
        0.5, abs=1e-6
    )
    rows = read_rows(tmp_path / "fig2_bp.csv")
    assert rows["rate_rescaled"].max() <= 1.0 + 1e-9


def test_figure_theta_flag(tmp_path):
    assert main(["figure", "fig3", "--theta", "pi/2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig3_theta_pi2.csv").is_file()
    assert not (tmp_path / "fig3_theta0.csv").exists()


def test_figure_theta_flag_accepts_huge_phase(tmp_path):
    assert main(["figure", "fig3", "--theta", "1e300", "--n", "16", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig3.json", "fig3_theta_1e+300.csv"]


def test_figure_theta_flag_rejected_for_fixed_presets(tmp_path, capsys):
    code = main(["figure", "fig5", "--theta", "pi/2", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --theta: preset fig5 has no achromatic phase parameter\n")
    cfg = write_config(tmp_path, {"version": 1, "mode": "figure", "preset": "fig2", "theta": 0.3})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: theta: preset fig2 has no achromatic phase parameter\n")
    assert not (tmp_path / "out").exists()


def test_figure_unknown_preset_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["figure", "fig99", "--out", str(tmp_path)])
    assert info.value.code == 2


# ----- run subcommand -----


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


HOM_BP = {
    "version": 1,
    "mode": "hom",
    "source": "bp",
    "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
    "tau": {"min": -3.0, "max": 3.0, "n": 121},
}


def test_run_hom_bp(tmp_path, capsys):
    cfg = write_config(tmp_path, HOM_BP)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert curve_value_at(out / "hom_bp.csv", 0.0) == 0.0
    sidecar = json.loads((out / "hom_bp.json").read_text())
    assert sidecar["plateau"] == 0.5
    assert sidecar["mode"] == "hom"


def test_run_respects_stem_override(tmp_path):
    payload = dict(HOM_BP, stem="mycurve")
    out = tmp_path / "out"
    run_scenario(payload, out)
    assert (out / "mycurve.csv").is_file()
    assert (out / "mycurve.json").is_file()


def test_run_scenario_is_deterministic(tmp_path):
    payload = {
        "version": 1,
        "mode": "mhom",
        "source": "cp",
        "pulse": {"omega0": 5.0, "d_omega": 0.5},
        "theta": "pi/2",
        "tau1": {"min": -2.0, "max": 2.0, "n": 41},
        "tau2": {"min": -2.0, "max": 2.0, "n": 41},
    }
    a = run_scenario(payload, tmp_path / "a")
    b = run_scenario(payload, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_run_mhom_surface_origin(tmp_path):
    payload = {
        "version": 1,
        "mode": "mhom",
        "source": "bp",
        "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
        "theta": "pi/2",
        "tau1": {"min": -2.0, "max": 2.0, "n": 41},
        "tau2": {"min": -2.0, "max": 2.0, "n": 41},
    }
    run_scenario(payload, tmp_path)
    rows = read_rows(tmp_path / "mhom_bp.csv")
    at_origin = (np.abs(rows["tau1"]) < 1e-12) & (np.abs(rows["tau2"]) < 1e-12)
    assert at_origin.sum() == 1
    assert float(rows["rate_rescaled"][at_origin][0]) <= 1e-12


def test_run_coarse_closed_form_by_default(tmp_path):
    payload = {
        "version": 1,
        "mode": "coarse",
        "source": "cp",
        "pulse": {"omega0": 5.0, "d_omega": 0.5},
        "tau1": {"min": -2.0, "max": 2.0, "n": 21},
        "tau2": {"min": -2.0, "max": 2.0, "n": 21},
    }
    run_scenario(payload, tmp_path)
    rows = read_rows(tmp_path / "coarse_cp.csv")
    at_origin = (np.abs(rows["tau1"]) < 1e-12) & (np.abs(rows["tau2"]) < 1e-12)
    assert float(rows["rate_rescaled"][at_origin][0]) == pytest.approx(0.75, abs=1e-9)


def test_run_coarse_with_explicit_window(tmp_path):
    payload = {
        "version": 1,
        "mode": "coarse",
        "source": "cp",
        "pulse": {"omega0": 500.0, "d_omega": 0.5},
        "window": 0.2,
        "theta": "pi/2",
        "tau1": {"min": -1.0, "max": 1.0, "n": 7},
        "tau2": {"min": -1.0, "max": 1.0, "n": 7},
    }
    run_scenario(payload, tmp_path)
    rows = read_rows(tmp_path / "coarse_cp.csv")
    at_origin = (np.abs(rows["tau1"]) < 1e-12) & (np.abs(rows["tau2"]) < 1e-12)
    assert float(rows["rate_rescaled"][at_origin][0]) == pytest.approx(0.75, abs=0.02)


def test_run_coarse_window_out_of_regime_exits_3(tmp_path, capsys):
    payload = {
        "version": 1,
        "mode": "coarse",
        "source": "cp",
        "pulse": {"omega0": 5.0, "d_omega": 0.5},
        "window": 0.2,
        "tau1": {"min": -1.0, "max": 1.0, "n": 5},
        "tau2": {"min": -1.0, "max": 1.0, "n": 5},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 3
    assert "regime" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_run_loss_mode(tmp_path):
    payload = {
        "version": 1,
        "mode": "loss",
        "source": "bp",
        "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
        "loss": {"chi2": 0.5},
        "tau1": {"min": -3.0, "max": 3.0, "n": 13},
        "tau2": {"min": -3.0, "max": 3.0, "n": 13},
    }
    run_scenario(payload, tmp_path)
    sidecar = json.loads((tmp_path / "loss_bp.json").read_text())
    assert sidecar["loss"]["eta_b"] == pytest.approx((0.75 / 1.25) ** 2, rel=1e-12)
    rows = read_rows(tmp_path / "loss_bp.csv")
    corner = (rows["tau1"] == -3.0) & (rows["tau2"] == -3.0)
    # far corner still shows the tau1 = tau2 dip; just confirm rescaling
    assert 0.0 <= float(rows["rate_rescaled"][corner][0]) <= 2.0


def test_run_sense_mode_report(tmp_path):
    payload = {
        "version": 1,
        "mode": "sense",
        "source": "bp",
        "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
        "scenario": {"dl1_0": 4.4, "dl2_0": -1.3},
    }
    files = run_scenario(payload, tmp_path)
    assert [p.name for p in files] == ["sense_bp_scan.csv", "sense_bp_report.json"]
    report = json.loads((tmp_path / "sense_bp_report.json").read_text())
    assert abs(report["residuals"]["dl1"]) <= 0.1
    assert abs(report["residuals"]["dl2"]) <= 0.1
    assert report["extrema"]["x_max"] == pytest.approx(-0.65, abs=1e-2)
    rows = read_rows(tmp_path / "sense_bp_scan.csv")
    assert rows.dtype.names == ("x2", "rate_rescaled")


def test_run_qps_mode_report(tmp_path):
    payload = {
        "version": 1,
        "mode": "qps",
        "target": {"r": 2.0, "gamma": 0.8, "vartheta": 2.2},
        "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
    }
    files = run_scenario(payload, tmp_path)
    assert [p.name for p in files] == [
        "qps_scan.csv",
        "qps_surface.csv",
        "qps_report.json",
    ]
    report = json.loads((tmp_path / "qps_report.json").read_text())
    assert report["residuals"]["gamma_error"] <= 0.05
    assert report["residuals"]["vartheta_error"] <= 0.05
    assert report["recovered"]["degenerate_azimuth"] is False
    rows = read_rows(tmp_path / "qps_surface.csv")
    assert rows.dtype.names == ("s1_control", "s2_control", "rate_rescaled")


# ----- validation failures -----


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 2
    assert "malformed" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000,
        b'{"version": 1, "mode": "hom", "stem": "caf\xe9"}',
        b'{"version": 1, "n": 1' + b"0" * 5000 + b"}",
    ],
    ids=["nested_100k", "not_utf8", "int_5001_digits"],
)
def test_unreadable_config_text_rejected_with_path(tmp_path, capsys, content):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not out.exists()


def test_unknown_field_rejected(tmp_path, capsys):
    payload = dict(HOM_BP, extra=1)
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown field" in err and "extra" in err


def test_missing_required_field_rejected(tmp_path, capsys):
    payload = {k: v for k, v in HOM_BP.items() if k != "tau"}
    cfg = write_config(tmp_path, payload)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "tau" in err and "required" in err


# Every config block that names a library record, with the full stderr line
# each rejection printed before the blocks were parsed from the records' fields.
RECORD_BLOCK_ERRORS = {
    "spectrum_unknown": ("hom_bp", "spectrum", {"extra": 1},
                         "error: spectrum: unknown field(s) 'extra'"),
    "spectrum_missing": ("hom_bp", "spectrum", {"d_omega_minus": None},
                         "error: spectrum.d_omega_minus: required field is missing"),
    "spectrum_not_number": ("hom_bp", "spectrum", {"omega0": "5"},
                            "error: spectrum.omega0: expected a number"),
    "spectrum_rejected": ("hom_bp", "spectrum", {"d_omega_plus": -0.2},
                          "error: spectrum: d_omega_plus must be positive and finite, got -0.2"),
    "pulse_unknown": ("hom_cp", "pulse", {"d_omega_plus": 0.2},
                      "error: pulse: unknown field(s) 'd_omega_plus'"),
    "pulse_missing": ("hom_cp", "pulse", {"omega0": None},
                      "error: pulse.omega0: required field is missing"),
    "pulse_not_number": ("hom_cp", "pulse", {"total_intensity": True},
                         "error: pulse.total_intensity: expected a number"),
    "pulse_rejected": ("hom_cp", "pulse", {"d_omega": 0.0},
                       "error: pulse: d_omega must be positive and finite, got 0.0"),
    "loss_unknown": ("loss_bp", "loss", {"eta_b": 0.5},
                     "error: loss: unknown field(s) 'eta_b'"),
    # every loss field is optional, so the block has no missing-field case
    "loss_not_number": ("loss_bp", "loss", {"chi1": [0.5, "0"]},
                        "error: loss.chi1: expected a number"),
    "loss_rejected": ("loss_bp", "loss", {"chi1": 0.0, "chi2": 0.0},
                      "error: loss: each loss stage must keep at least one path open"),
    "loss_amplitude_length": ("loss_bp", "loss", {"xi1": [0.5, 0.0, 0.0]},
                              "error: loss.xi1: complex amplitude needs [re, im]"),
    "scenario_unknown": ("sense_bp", "scenario", {"dl3_0": 1.0},
                         "error: scenario: unknown field(s) 'dl3_0'"),
    "scenario_missing": ("sense_bp", "scenario", {"dl2_0": None},
                         "error: scenario.dl2_0: required field is missing"),
    "scenario_not_number": ("sense_bp", "scenario", {"x1": "0"},
                            "error: scenario.x1: expected a number"),
    "scenario_rejected": ("sense_bp", "scenario", {"c": -1.0},
                          "error: scenario: c must be positive and finite, got -1.0"),
    "target_unknown": ("qps", "target", {"z": 1.0},
                       "error: target: unknown field(s) 'z'"),
    "target_missing": ("qps", "target", {"vartheta": None},
                       "error: target.vartheta: required field is missing"),
    "target_not_number": ("qps", "target", {"gamma": "north"},
                          "error: target.gamma: cannot parse angle 'north'"),
    "target_rejected": ("qps", "target", {"gamma": 2.0},
                        "error: target: elevation must lie in [0, pi/2], got 2.0"),
}


@pytest.mark.parametrize("case", sorted(RECORD_BLOCK_ERRORS))
def test_record_block_errors_exact(tmp_path, capsys, case):
    base, block, change, line = RECORD_BLOCK_ERRORS[case]
    payload = {"version": 1, **RUN_CONFIGS[base]}
    fields = {**payload[block], **change}
    payload[block] = {key: value for key, value in fields.items() if value is not None}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", [[1, 2], {}, None, 1, "x"], ids=repr)
def test_bad_mode_rejected(tmp_path, capsys, mode):
    cfg = write_config(tmp_path, dict(HOM_BP, mode=mode))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: mode: expected one of hom, mhom, coarse, loss, sense, qps, figure, "
        f"got {mode!r}\n"
    )
    assert not out.exists()


# Runs whose rates overflow to nan: (base config, block or None, field, value,
# the fields the refusal names).
NON_FINITE_RUNS = {
    "hom_bp_d_omega_minus": ("hom_bp", "spectrum", "d_omega_minus", 1e308, "spectrum, tau"),
    "mhom_bp_theta": ("mhom_bp", None, "theta", 1e308, "spectrum, theta, tau1, tau2"),
    "figure_fig3_theta": (None, None, "theta", 1e308, "theta"),
    "coarse_cp_window_tau1_max": ("coarse_cp_window", "tau1", "max", 1e308,
                                  "pulse, window, theta, tau1, tau2"),
}
_NON_FINITE = ("coincidence rate is not finite (nan); a parameter or delay is too large "
               "or too small to evaluate it\n")


@pytest.mark.parametrize("case", sorted(NON_FINITE_RUNS))
def test_non_finite_rates_are_refused_before_writing(tmp_path, capsys, case):
    base, block, key, value, named = NON_FINITE_RUNS[case]
    payload = json.loads(json.dumps(
        RUN_CONFIGS[base] if base else {"mode": "figure", "preset": "fig3", "n": 16}))
    (payload[block] if block else payload)[key] = value
    cfg = write_config(tmp_path, {"version": 1, **payload})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay inside the run
        assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {named}: {_NON_FINITE}"
    assert (block or key) in named.split(", ")
    assert not out.exists()


def test_non_finite_figure_rates_name_the_theta_flag(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["figure", "fig3", "--theta", "1e308", "--n", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --theta: {_NON_FINITE}"
    assert not out.exists()


def test_overflow_inside_a_finite_run_writes_no_warning(tmp_path, capsys):
    # the closed form overflows in an intermediate product at tau1 = 1e308
    # but its rate is the finite plateau: exit 0, and numpy says nothing
    payload = json.loads(json.dumps(RUN_CONFIGS["mhom_bp"]))
    payload["tau1"]["max"] = 1e308
    cfg = write_config(tmp_path, {"version": 1, **payload})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "mhom_bp.csv").is_file()
    # a library call keeps numpy's defaults
    with pytest.warns(RuntimeWarning, match="overflow"):
        mhom_bp_analytic(np.array([1e308]), 0.0, 0.0, GaussianJointSpectrum(**_PAIR))


def test_wrong_version_rejected(tmp_path, capsys):
    # True == 1 and 1.0 == 1 in Python, yet neither is the JSON integer 1
    for version in (99, True, 1.0):
        cfg = write_config(tmp_path, dict(HOM_BP, version=version))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: version: expected 1, got {version!r}\n"
        assert not (tmp_path / "o").exists()


def test_unused_model_block_rejected(tmp_path):
    payload = dict(HOM_BP, pulse={"omega0": 5.0, "d_omega": 0.5})
    with pytest.raises(ConfigError, match="pulse: not used"):
        run_scenario(payload, tmp_path)
    payload = {
        "version": 1,
        "mode": "hom",
        "source": "cp",
        "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
        "tau": {"min": -3.0, "max": 3.0, "n": 121},
    }
    with pytest.raises(ConfigError, match="spectrum: not used"):
        run_scenario(payload, tmp_path)
    assert not list(tmp_path.iterdir())


def test_bad_range_rejected_with_path(tmp_path):
    payload = dict(HOM_BP, tau={"min": 3.0, "max": -3.0, "n": 11})
    with pytest.raises(ConfigError, match="tau"):
        run_scenario(payload, tmp_path)
    payload = dict(HOM_BP, tau={"min": -3.0, "max": 3.0, "n": 1})
    with pytest.raises(ConfigError, match="tau.n"):
        run_scenario(payload, tmp_path)


def test_bad_stem_rejected(tmp_path, capsys):
    payload = dict(HOM_BP, stem="../escape")
    with pytest.raises(ConfigError, match="stem"):
        run_scenario(payload, tmp_path)
    # a stem longer than 200 characters is refused before any file name is formed
    long_stem = "s" * 201
    cfg = write_config(tmp_path, dict(HOM_BP, stem=long_stem))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: stem: expected a plain file-name stem, got {long_stem!r}\n")
    assert not out.exists()
    # a trailing newline is part of the stem, not the end of the match
    cfg = write_config(tmp_path, dict(HOM_BP, stem="x\n"))
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: stem: expected a plain file-name stem, got 'x\\n'\n"
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_every_field_parses_before_any_rate_is_computed(tmp_path, capsys, monkeypatch, name):
    _refuse_to_compute(monkeypatch)
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS[name], "stem": "../x"})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: stem: expected a plain file-name stem, got '../x'\n"
    assert not out.exists()


def test_a_bad_field_is_reported_before_an_averaging_regime_violation(tmp_path, capsys):
    # the window smears the envelope (exit 3 alone), but the stem is refused first
    cfg = write_config(tmp_path, _coarse_window(window=1e30, stem="../x"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: stem: expected a plain file-name stem, got '../x'\n"
    assert not out.exists()


def test_longest_stem_names_every_file(tmp_path):
    stem = "s" * 200
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["qps"], "stem": stem})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        stem + "_report.json", stem + "_scan.csv", stem + "_surface.csv"]


def test_coarse_theta_without_window_rejected(tmp_path):
    payload = {
        "version": 1,
        "mode": "coarse",
        "source": "cp",
        "pulse": {"omega0": 5.0, "d_omega": 0.5},
        "theta": "pi/2",
        "tau1": {"min": -1.0, "max": 1.0, "n": 5},
        "tau2": {"min": -1.0, "max": 1.0, "n": 5},
    }
    with pytest.raises(ConfigError, match="window"):
        run_scenario(payload, tmp_path)


@pytest.mark.parametrize("window_n", [0, 1, -3])
def test_coarse_window_n_below_two_rejected(tmp_path, capsys, window_n):
    payload = {
        "version": 1,
        "mode": "coarse",
        "source": "cp",
        "pulse": {"omega0": 500.0, "d_omega": 0.5},
        "window": 0.2,
        "window_n": window_n,
        "tau1": {"min": -1.0, "max": 1.0, "n": 5},
        "tau2": {"min": -1.0, "max": 1.0, "n": 5},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "window_n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 1, -3])
def test_coarse_grain_rejects_fewer_than_two_nodes(n):
    pulse = CoherentSpectrum(omega0=500.0, d_omega=0.5)
    tau = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="at least 2"):
        coarse_grain_curve(lambda t: np.ones_like(t), tau, 0.2,
                           carrier=500.0, envelope=0.7, n=n)
    with pytest.raises(ValueError, match="at least 2"):
        coarse_grain_surface(lambda a, b: mhom_cp_coarse_analytic(a, b, pulse),
                             tau[:, None], tau[None, :], 0.2,
                             carrier=500.0, envelope=0.7, n=n)
    with pytest.raises(ValueError, match="at least 2"):
        box_average_curve(lambda t: np.ones_like(t), tau, 0.2, n=n)
    with pytest.raises(ValueError, match="at least 2"):
        box_average_surface(lambda a, b: mhom_cp_coarse_analytic(a, b, pulse),
                            tau[:, None], tau[None, :], 0.2, n=n)


def test_huge_integer_literal_rejected_with_path(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    text = json.dumps(HOM_BP).replace('"omega0": 5.0', '"omega0": 1' + "0" * 400)
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "spectrum.omega0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "theta", ["1" + "0" * 400, "1e400", '"1e999"', '"1e308pi"'],
    ids=["int400", "float1e400", "str1e999", "str1e308pi"],
)
def test_non_finite_angle_rejected_with_path(tmp_path, capsys, theta):
    cfg = tmp_path / "config.json"
    payload = {
        "version": 1,
        "mode": "mhom",
        "source": "bp",
        "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
        "theta": "THETA",
        "tau1": {"min": -1.0, "max": 1.0, "n": 3},
        "tau2": {"min": -1.0, "max": 1.0, "n": 3},
    }
    cfg.write_text(json.dumps(payload).replace('"THETA"', theta))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "theta" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


SENSE_BP = {
    "version": 1,
    "mode": "sense",
    "source": "bp",
    "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
    "scenario": {"dl1_0": 4.4, "dl2_0": -1.3},
}
QPS_LARGE_R = {
    "version": 1,
    "mode": "qps",
    "target": {"r": 30.0, "gamma": 0.8, "vartheta": 2.2},
    "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
}


def _coarse_window(**fields):
    payload = {
        "version": 1,
        "mode": "coarse",
        "source": "bp",
        "spectrum": {"omega0": 500.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
        "window": 0.1,
        "tau1": {"min": -1.0, "max": 1.0, "n": 3},
        "tau2": {"min": -1.0, "max": 1.0, "n": 3},
    }
    payload.update(fields)
    return payload


_SIDE = math.isqrt(_MAX_VALUES)
# window * carrier = 1016.25: the automatic count ceil(2032.5) + 16 is one over the cap
_OVER_CAP_OMEGA0 = (MAX_WINDOW_NODES - 15.5) / (2.0 * 0.1)

OVERSIZED = {
    "tau_n_1e30": (dict(HOM_BP, tau={"min": -1.0, "max": 1.0, "n": 10**30}), "tau.n"),
    "tau_n_over": (dict(HOM_BP, tau={"min": -1.0, "max": 1.0, "n": _MAX_VALUES + 1}),
                   "tau.n"),
    "grid_over": ({"version": 1, "mode": "mhom", "source": "bp",
                   "spectrum": HOM_BP["spectrum"],
                   "tau1": {"min": -1.0, "max": 1.0, "n": _SIDE + 1},
                   "tau2": {"min": -1.0, "max": 1.0, "n": _SIDE + 1}},
                  "tau1.n x tau2.n"),
    "window_n_1e12": (_coarse_window(window_n=10**12), "window_n"),
    "window_n_over": (_coarse_window(window_n=MAX_WINDOW_NODES + 1), "window_n"),
    "window_auto_over": (_coarse_window(spectrum={"omega0": _OVER_CAP_OMEGA0,
                                                  "d_omega_plus": 0.2,
                                                  "d_omega_minus": 1.0}), "window"),
    "sense_n_1e30": (dict(SENSE_BP, n=10**30), "n"),
    "sense_n_over": (dict(SENSE_BP, n=_MAX_VALUES + 1), "n"),
    "qps_n_1e30": (dict(QPS_LARGE_R, n=10**30), "n"),
    "qps_surface_n_over": (dict(QPS_LARGE_R, surface_n=_SIDE + 1), "surface_n"),
    "qps_default_scan_over": (dict(QPS_LARGE_R, target={"r": 1e9, "gamma": 0.8,
                                                        "vartheta": 2.2}), "target, spectrum"),
    "figure_surface_n_over": ({"version": 1, "mode": "figure", "preset": "fig3",
                               "n": _SIDE + 1}, "n"),
    "figure_curve_n_over": ({"version": 1, "mode": "figure", "preset": "fig2",
                             "n": _MAX_VALUES + 1}, "n"),
}


def _refuse_to_compute(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized config reached the computation")

    for name in ("sample_curve", "sample_surface", "run_sensing", "qps_scan", "build_figure"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_counts_rejected_before_allocating(tmp_path, capsys, monkeypatch, case):
    payload, field = OVERSIZED[case]
    _refuse_to_compute(monkeypatch)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_window_node_cap_message_prints_the_automatic_count(tmp_path, capsys):
    cfg = write_config(tmp_path, OVERSIZED["window_auto_over"][0])
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: window: window * carrier = 1016 needs about 2049 averaging nodes, "
        "more than 2048\n"
    )


def test_figure_subcommand_n_over_cap_rejected(tmp_path, capsys, monkeypatch):
    _refuse_to_compute(monkeypatch)
    out = tmp_path / "out"
    assert main(["figure", "fig5", "--n", str(_SIDE + 1), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --n: ")
    assert not out.exists()


def test_largest_counts_under_the_caps_are_admitted(tmp_path, monkeypatch):
    assert 1001 * 1001 <= _MAX_VALUES
    _refuse_to_compute(monkeypatch)
    payload = dict(OVERSIZED["grid_over"][0], tau1={"min": -1.0, "max": 1.0, "n": _SIDE},
                   tau2={"min": -1.0, "max": 1.0, "n": _SIDE})
    # every check passes, so the run reaches the computation
    with pytest.raises(AssertionError, match="reached the computation"):
        run_scenario(payload, tmp_path / "out")
    for preset, n in (("fig2", _MAX_VALUES), ("fig3", _SIDE)):
        with pytest.raises(AssertionError, match="reached the computation"):
            run_figure(preset, tmp_path / "out", n=n)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        (dict(QPS_LARGE_R, n=0), "n"),
        (dict(QPS_LARGE_R, surface_n=1), "surface_n"),
        (dict(QPS_LARGE_R, c=-1.0), "c"),
        (dict(SENSE_BP, n=1), "n"),
        (dict(SENSE_BP, span=-3.0), "span"),
    ],
    ids=["qps_n_0", "qps_surface_n_1", "qps_c_negative", "sense_n_1", "sense_span_negative"],
)
def test_report_counts_rejected_with_field(tmp_path, capsys, payload, field):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        (dict(HOM_BP, tau={"min": -1e308, "max": 1e308, "n": 5}), "tau"),
        (_coarse_window(source="cp", spectrum=None, theta=0.0,
                        pulse={"omega0": 500.0, "d_omega": 0.5, "total_intensity": 1e300}),
         "pulse.total_intensity"),
        (dict(SENSE_BP, loss={"xi2": 0.0}), "loss"),
        (dict(SENSE_BP, source="cp", spectrum=None, pulse={"omega0": 5.0, "d_omega": 1.0},
              scenario={"dl1_0": 1e300, "dl2_0": -1.3}, n=401), "pulse, scenario, n"),
    ],
    ids=["range_overflow", "plateau_overflow", "plateau_zero", "scan_overflow"],
)
# the 1e300 offset overflows the scan arithmetic on purpose; the CLI keeps
# numpy's overflow warnings to itself
@pytest.mark.filterwarnings("ignore:first-stage delay too small")
def test_unscalable_configs_rejected_with_field(tmp_path, capsys, payload, field):
    payload = {key: value for key, value in payload.items() if value is not None}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, field, found",
    [
        (dict(QPS_LARGE_R, n=51), "target, spectrum, n", "expected 2 dips, found 1"),
        (dict(SENSE_BP, scenario={"dl1_0": 0, "dl2_0": 0}), "spectrum, scenario",
         "expected 2 dips, found 0"),
        (dict(SENSE_BP, span=1.0), "spectrum, scenario, span", "expected 2 dips, found 0"),
    ],
    ids=["qps_n_51_at_large_r", "sense_zero_offsets", "sense_narrow_span"],
)
@pytest.mark.filterwarnings("ignore:first-stage delay too small")
def test_unresolved_scan_exits_2_naming_field(tmp_path, capsys, payload, field, found):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {field}: the scan did not resolve the expected features ({found})"
    ]
    assert not out.exists()


@pytest.mark.parametrize("source", ["bp", "cp"])
def test_windowed_coarse_run_matches_generic_average(tmp_path, monkeypatch, source):
    if source == "bp":
        model = {"spectrum": {"omega0": 180.0, "d_omega_plus": 0.3, "d_omega_minus": 0.9}}
        spectrum = GaussianJointSpectrum(**model["spectrum"])
        envelope, plateau = 0.9, 0.5

        def exact(a, b):
            return mhom_bp_analytic(a, b, math.pi / 2.0, spectrum)
    else:
        model = {"pulse": {"omega0": 180.0, "d_omega": 0.6, "total_intensity": 1.5}}
        pulse = CoherentSpectrum(**model["pulse"])
        envelope, plateau = math.sqrt(2.0) * 0.6, 2.25

        def exact(a, b):
            return mhom_cp_analytic(a, b, math.pi / 2.0, pulse)
    payload = {"version": 1, "mode": "coarse", "source": source, **model,
               "window": 0.15, "theta": "pi/2",
               "tau1": {"min": -2.5, "max": 1.5, "n": 11},
               "tau2": {"min": -1.0, "max": 3.0, "n": 8}}
    if source == "bp":
        payload["window_n"] = 80
    # the surface as computed, before %.12g rounds it
    written = []

    def capture(surface, *args, **kwargs):
        written.append(surface)
        return surface_rows(surface, *args, **kwargs)

    monkeypatch.setattr(cli, "surface_rows", capture)
    run_scenario(payload, tmp_path)
    t1, t2 = np.linspace(-2.5, 1.5, 11), np.linspace(-1.0, 3.0, 8)
    want = coarse_grain_surface(exact, t1[:, None], t2[None, :], 0.15,
                                carrier=180.0, envelope=envelope,
                                n=payload.get("window_n"))
    assert np.max(np.abs(written[0].values - want)) <= 1e-12 * plateau
    rows = read_rows(tmp_path / f"coarse_{source}.csv")
    np.testing.assert_allclose(rows["rate_rescaled"].reshape(11, 8), want / plateau,
                               rtol=1e-11)
    sidecar = json.loads((tmp_path / f"coarse_{source}.json").read_text())
    expected = {
        "mode": "coarse",
        "source": source,
        "tau1": {"min": -2.5, "max": 1.5, "n": 11},
        "tau2": {"min": -1.0, "max": 3.0, "n": 8},
        "plateau": plateau,
        "units": {
            "delay": "1/d_omega_minus",
            "rate": "rescaled by the plateau value",
            "c": "same length unit as delays unless set in the scenario",
        },
        "files": [f"coarse_{source}.csv"],
        "window": 0.15,
        "theta": math.pi / 2.0,
        **({"spectrum": model["spectrum"], "window_n": 80} if source == "bp"
           else {"pulse": model["pulse"]}),
    }
    assert sidecar == expected


# ----- artifact writes -----

QPS = {
    "version": 1,
    "mode": "qps",
    "target": {"r": 2.0, "gamma": 0.8, "vartheta": 2.2},
    "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
    "surface_n": 21,
}


def _fail_on_second_write(monkeypatch):
    real = cli._write_file
    calls = []

    def write_file(path, content):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(path, content)

    monkeypatch.setattr(cli, "_write_file", write_file)


def test_failed_write_leaves_no_partial_set(tmp_path, monkeypatch):
    _fail_on_second_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        run_scenario(QPS, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_a_created_directory_another_writer_filled(tmp_path, monkeypatch):
    # the rollback removes the directories the write created, deepest first,
    # and stops at the first one that is not empty
    def write_file(path, content):
        (tmp_path / "new" / "other.txt").write_text("kept", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_file", write_file)
    with pytest.raises(OSError, match="disk full"):
        run_scenario(HOM_BP, tmp_path / "new" / "deeper")
    assert [p.name for p in (tmp_path / "new").iterdir()] == ["other.txt"]


def test_failed_write_leaves_old_targets_untouched(tmp_path, monkeypatch):
    run_scenario(QPS, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_on_second_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        run_scenario(dict(QPS, target={"r": 3.0, "gamma": 0.5, "vartheta": 1.0}), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_artifacts_keep_default_file_mode(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    for path in run_scenario(HOM_BP, tmp_path):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_temp_names_are_unique_per_write(tmp_path, monkeypatch):
    real = cli._write_file
    names = []

    def write_file(path, content):
        names.append(path.name)
        return real(path, content)

    monkeypatch.setattr(cli, "_write_file", write_file)
    run_scenario(HOM_BP, tmp_path)
    run_scenario(HOM_BP, tmp_path)
    assert len(names) == 4 and len(set(names)) == 4
    assert all(name.startswith(".hom_bp.") and name.endswith(".tmp") for name in names)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hom_bp.csv", "hom_bp.json"]


def test_internal_errors_are_not_reported_as_config_errors(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("formatter bug")

    monkeypatch.setattr(cli, "surface_rows", broken)
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["mhom_bp"]})
    with pytest.raises(ValueError, match="formatter bug"):
        main(["run", cfg, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def _surface_with_shape(n1, n2):
    values = np.random.default_rng(7).random((n1, n2))
    return RateSurface(np.linspace(-3.0, 3.0, n1), np.linspace(-3.0, 3.0, n2), values, 0.7)


@pytest.mark.parametrize("shape", [(501, 501), (2, 1 << 18)], ids=["square", "elongated"])
def test_streamed_surface_write_peaks_far_below_the_file_size(tmp_path, shape):
    surface = _surface_with_shape(*shape)
    tracemalloc.start()
    try:
        [path] = cli._write_artifacts(tmp_path, [("s.csv", surface_rows(surface))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 8
    assert path.read_bytes() == surface_csv(surface).encode()


def test_write_failure_after_the_first_chunk_leaves_no_trace(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["mhom_bp"]})
    old = tmp_path / "old"
    assert main(["run", cfg, "--out", str(old)]) == 0
    before = {p.name: p.read_bytes() for p in old.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(cli, "_CHUNK_VALUES", 12)
    real = cli._write_file
    temp_existed = []

    def write_file(path, content):
        def header_and_first_chunk_then_fail():
            yield next(content)
            yield next(content)
            temp_existed.append(path.exists())
            raise OSError("disk full")

        return real(path, content if isinstance(content, str)
                    else header_and_first_chunk_then_fail())

    monkeypatch.setattr(cli, "_write_file", write_file)
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["mhom_bp"], "theta": 1.0})
    for out in (old, tmp_path / "new" / "deeper"):
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "i/o error: disk full\n"
    assert temp_existed == [True, True]
    assert {p.name: p.read_bytes() for p in old.iterdir()} == before
    assert not (tmp_path / "new").exists()


def test_formatter_bug_midway_is_a_traceback_and_leaves_no_output(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_VALUES", 12)
    real = surface_rows

    def buggy(surface, *args, **kwargs):
        chunks = real(surface, *args, **kwargs)
        yield next(chunks)
        yield next(chunks)
        raise ValueError("formatter bug midway")

    monkeypatch.setattr(cli, "surface_rows", buggy)
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["mhom_bp"]})
    with pytest.raises(ValueError, match="formatter bug midway"):
        main(["run", cfg, "--out", str(tmp_path / "out" / "run")])
    assert not (tmp_path / "out").exists()


# ----- one clamp pass, model errors converted only where config enters -----


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_each_written_csv_is_clamped_once(tmp_path, monkeypatch, name):
    calls = []
    clamp = rates._as_rate
    monkeypatch.setattr(rates, "_as_rate", lambda values: calls.append(1) or clamp(values))
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS[name]})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert len(calls) == len(list(out.glob("*.csv")))


@pytest.mark.parametrize("c", [5e-324, 1e-320])
def test_qps_subnormal_c_refused_as_an_oversized_scan(tmp_path, capsys, c):
    cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["qps"], "c": c})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: target, spectrum, c: the default scan for r / c = inf needs inf samples, "
        f"more than {_MAX_VALUES}\n"
    )
    assert not out.exists()


def test_qps_overflowing_default_scan_is_refused_as_the_same_scan_with_n_is(tmp_path, capsys):
    errs = []
    for extra in ({}, {"n": 2001}):
        cfg = write_config(tmp_path, {"version": 1, **RUN_CONFIGS["qps"], "c": 1e308, **extra})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: target, spectrum, c: coincidence rate is not finite (nan); ")
    assert not (tmp_path / "out").exists()


def test_sense_default_span_that_underflows_is_scanned_and_misses_its_features(
        tmp_path, capsys):
    cfg = write_config(tmp_path, {
        **SENSE_BP, "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 20.0},
        "scenario": {"dl1_0": 0.0, "dl2_0": 0.0, "c": 5e-324}})
    out = tmp_path / "out"
    with pytest.warns(RegimeWarning, match="first-stage"):
        assert main(["run", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: spectrum, scenario: the scan did not resolve the expected features "
        "(expected 2 dips, found 0)\n"
    )
    assert not out.exists()


def test_window_too_wide_for_the_envelope_is_a_regime_error_before_the_node_cap(
        tmp_path, capsys):
    # window * carrier = 5e31 is far over the node cap, but the window also
    # smears the envelope, and that is what the run reports
    cfg = write_config(tmp_path, _coarse_window(window=1e30))
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "regime error: averaging window wide enough to smear the envelope: "
        "window * envelope = 1e+30 > 0.2\n"
    )


def _boom(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize(
    "owner, attr, config",
    [
        (sensing, "scan_f", RUN_CONFIGS["sense_bp"]),
        (qps, "mhom_bp_coarse_analytic", RUN_CONFIGS["qps"]),
        (rates, "_rule_average", RUN_CONFIGS["coarse_bp_window"]),
        (figures, "sample_surface", {"mode": "figure", "preset": "fig3", "n": 16}),
    ],
    ids=["sensing_scan", "qps_closed_form", "window_average", "figure_sampling"],
)
def test_model_bugs_after_parsing_are_not_config_errors(tmp_path, monkeypatch,
                                                        owner, attr, config):
    monkeypatch.setattr(owner, attr, _boom)
    cfg = write_config(tmp_path, {"version": 1, **config})
    with pytest.raises(ValueError, match="boom"):
        main(["run", cfg, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
