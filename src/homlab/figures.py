"""Preset datasets for the seven standard plots.

Each preset bundles the curves or surfaces of one plot together with a
parameter record, so the command-line layer can serialize them and a
plotting script can rebuild the picture from the files alone. Everything
is expressed in the dimensionless unit system: the pair spectral width
and the speed of light are 1, intensities are 1, and delays are given in
units of the inverse pair width.

Presets are data: each ``_Preset`` names its closed forms, labels,
pulse, default phases, fixed first delay and loss sweep, and one build
path samples them. Every dataset carries one payload, a ``RateCurve``
or a ``RateSurface``.

* fig2: single-delay curves, pair input plus oscillatory and averaged
  pulse input.
* fig3: two-delay pair surfaces without and with the quarter-wave
  internal phase.
* fig4: two-delay pulse surface at the quarter-wave phase.
* fig5: fluctuation-averaged two-delay surfaces, both inputs.
* fig6: averaged cuts against the second delay at a fixed first delay.
* fig7: averaged lossy pair surfaces for several loss imbalances.
* fig8: averaged lossy pair cuts for the same imbalances.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import finite_real, whole_number

# The closed forms and samplers are looked up in this module's namespace
# when a preset is built, so wrapping them here (as the benchmark tracer
# does) reaches every preset.
from .rates import (  # noqa: F401
    LossParams,
    RateCurve,
    RateSurface,
    bp_plateau,
    cp_plateau,
    hom_bp_analytic,
    hom_cp_analytic,
    hom_cp_coarse_analytic,
    mhom_bp_analytic,
    mhom_bp_coarse_analytic,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
    sample_curve,
    sample_surface,
)
from .spectra import CoherentSpectrum, GaussianJointSpectrum

__all__ = ["FIGURE_PRESETS", "CURVE_PRESETS", "FigureDataset", "FigureBundle", "build_figure"]

_CURVE_N = 801
_SURFACE_N = 121
_CURVE_HALF_RANGE = 4.0
_SURFACE_HALF_RANGE = 3.0
_SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
# pulse with the per-photon spectral spread of the pair source
_MATCHED_PULSE = CoherentSpectrum(omega0=5.0, d_omega=_SPECTRUM.local_spread)


@dataclass(frozen=True)
class _Preset:
    """One plot as data.

    ``forms`` pairs a dataset suffix with the name of a closed form; the
    suffix may hold ``{theta}`` or ``{eta}``, which become the phase or
    loss tag of each dataset. One label makes a curve over ``[-4, 4]``,
    two labels a surface over ``[-3, 3]`` on both axes. ``theta`` is the
    default phase of a phase-dependent preset: a tuple sweeps phases and
    is recorded as a list. With ``fixed_tau1`` a curve is a cut at that
    first delay; ``eta_b`` sweeps the loss imbalance.
    """

    forms: tuple[tuple[str, str], ...]
    labels: tuple[str, ...]
    pulse: CoherentSpectrum | None = None
    theta: float | tuple[float, ...] | None = None
    fixed_tau1: float | None = None
    eta_b: tuple[float, ...] = ()


_CUT = ("tau2",)
_GRID = ("tau1", "tau2")
_ETA_B_VALUES = (0.0, 0.3, 0.6, 0.9)
_PRESETS = {
    "fig2": _Preset(
        (("bp", "hom_bp_analytic"), ("cp", "hom_cp_analytic"),
         ("cp_coarse", "hom_cp_coarse_analytic")),
        ("delay",), pulse=CoherentSpectrum(omega0=5.0, d_omega=0.5),
    ),
    "fig3": _Preset((("{theta}", "mhom_bp_analytic"),), _GRID, theta=(0.0, 0.5 * math.pi)),
    "fig4": _Preset((("", "mhom_cp_analytic"),), _GRID, pulse=_MATCHED_PULSE,
                    theta=0.5 * math.pi),
    "fig5": _Preset((("bp", "mhom_bp_coarse_analytic"), ("cp", "mhom_cp_coarse_analytic")),
                    _GRID, pulse=_MATCHED_PULSE),
    # cut comparison uses a pulse as wide as the full pair bandwidth
    "fig6": _Preset((("bp", "mhom_bp_coarse_analytic"), ("cp", "mhom_cp_coarse_analytic")),
                    _CUT, pulse=CoherentSpectrum(omega0=5.0, d_omega=1.0), fixed_tau1=2.0),
    "fig7": _Preset((("{eta}", "mhom_bp_coarse_analytic"),), _GRID, eta_b=_ETA_B_VALUES),
    "fig8": _Preset((("{eta}", "mhom_bp_coarse_analytic"),), _CUT, fixed_tau1=2.0,
                    eta_b=_ETA_B_VALUES),
}

FIGURE_PRESETS = tuple(_PRESETS)
# presets made of curves; ``n`` counts samples per curve, and per surface
# axis for the others
CURVE_PRESETS = tuple(name for name, spec in _PRESETS.items() if len(spec.labels) == 1)
# presets that take a ``theta``
PHASE_PRESETS = tuple(name for name, spec in _PRESETS.items() if spec.theta is not None)


@dataclass(frozen=True)
class FigureDataset:
    """One file worth of figure data: a named curve or surface."""

    name: str
    labels: tuple[str, ...]
    data: RateCurve | RateSurface


@dataclass(frozen=True)
class FigureBundle:
    preset: str
    datasets: tuple[FigureDataset, ...]
    params: dict


def theta_tag(theta: float) -> str:
    """Short file-name tag for a phase value, pi-aware for small fractions of pi."""
    if theta == 0.0:
        return "theta0"
    from fractions import Fraction  # only the presets that tag a non-zero phase import it

    frac = Fraction(theta / math.pi).limit_denominator(12)
    # large phases meet the absolute tolerance by rounding alone, so only
    # numerators up to the denominator bound get the pi spelling
    if 0 < abs(frac.numerator) <= 12 and abs(float(frac) * math.pi - theta) < 1e-12:
        num, den = frac.numerator, frac.denominator
        sign = "m" if num < 0 else ""
        num = abs(num)
        head = sign + ("pi" if num == 1 else f"{num}pi")
        return "theta_" + (head if den == 1 else f"{head}{den}")
    return "theta_" + f"{theta:.6g}".replace("-", "m").replace(".", "p")


def chi2_for_eta_b(eta_b: float) -> float:
    """Second internal-arm amplitude giving a wanted loss imbalance.

    Keeps the first arm lossless; the returned amplitude is real in
    (0, 1], decreasing as the imbalance grows.
    """
    if not 0.0 <= eta_b < 1.0:
        raise ValueError(f"eta_b must lie in [0, 1), got {eta_b!r}")
    root = math.sqrt(eta_b)
    return math.sqrt((1.0 - root) / (1.0 + root))


def _dataset(spec: _Preset, name: str, form_name: str, theta: float | None,
             loss: LossParams, axis: np.ndarray) -> FigureDataset:
    """Sample one closed form: a single-delay curve, a cut at ``fixed_tau1``
    or a surface; phase-dependent forms take ``theta``, averaged forms ``loss``."""
    # pair-source forms take the spectrum, pulse forms the preset's pulse
    bp = "_bp_" in form_name
    model = _SPECTRUM if bp else spec.pulse
    plateau = bp_plateau(loss) if bp else cp_plateau(model, loss)
    form = globals()[form_name]

    def rate(*delays):
        if spec.fixed_tau1 is not None:
            delays = (spec.fixed_tau1, *delays)
        if len(delays) == 1:
            return form(*delays, model)
        if theta is not None:
            return form(*delays, theta, model)
        return form(*delays, model, loss)

    if len(spec.labels) == 1:
        return FigureDataset(name, spec.labels, sample_curve(rate, axis, plateau))
    return FigureDataset(name, spec.labels, sample_surface(rate, axis, axis, plateau))


def build_figure(preset: str, theta: float | None = None,
                 n: int | None = None) -> FigureBundle:
    """Assemble the datasets and parameter record of one preset.

    ``theta`` narrows fig3 to a single phase or overrides the fig4
    phase; other presets have no phase dependence and reject it. It must
    be a finite real number. ``n`` overrides the number of samples per
    axis: a whole number, at least 16. Other values raise an error that
    names the argument.
    """
    if preset not in _PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose one of {', '.join(FIGURE_PRESETS)}"
        )
    spec = _PRESETS[preset]
    if theta is not None:
        if spec.theta is None:
            raise ValueError(f"preset {preset} has no achromatic phase parameter")
        theta = finite_real(theta, "theta")
    curve = len(spec.labels) == 1
    if n is None:
        n = _CURVE_N if curve else _SURFACE_N
    n = whole_number(n, "n", "samples per axis", 16)
    half_range = _CURVE_HALF_RANGE if curve else _SURFACE_HALF_RANGE
    axis = np.linspace(-half_range, half_range, n)
    params = {
        "preset": preset,
        "units": {"delay": "1/d_omega_minus", "rate": "rescaled by the plateau value",
                  "c": 1.0},
        "spectrum": asdict(_SPECTRUM),
        "delay_half_range": half_range,
        "samples": n,
    }
    if spec.pulse is not None:
        params["pulse"] = asdict(spec.pulse)
    if spec.fixed_tau1 is not None:
        params["fixed_tau1"] = spec.fixed_tau1
    thetas = (None,)
    if isinstance(spec.theta, tuple):
        thetas = spec.theta if theta is None else (theta,)
        params["theta"] = list(thetas)
    elif spec.theta is not None:
        thetas = (spec.theta if theta is None else theta,)
        params["theta"] = thetas[0]
    losses = {None: LossParams()}
    if spec.eta_b:
        losses = {f"eta{int(round(10.0 * eta)):02d}": LossParams(chi2=chi2_for_eta_b(eta))
                  for eta in spec.eta_b}
        params["eta_b_values"] = list(spec.eta_b)
        params["loss"] = {tag: {"chi1": 1.0, "chi2": loss.chi2.real}
                          for tag, loss in losses.items()}
    datasets = []
    for suffix, form_name in spec.forms:
        for th in thetas:
            for tag, loss in losses.items():
                name = suffix.format(theta=theta_tag(th) if th is not None else "", eta=tag)
                datasets.append(_dataset(spec, f"{preset}_{name}" if name else preset,
                                         form_name, th, loss, axis))
    return FigureBundle(preset, tuple(datasets), params)
