"""Preset datasets for the seven standard plots.

Each preset bundles the curves or surfaces of one plot together with a
parameter record, so the command-line layer can serialize them and a
plotting script can rebuild the picture from the files alone. Everything
is expressed in the dimensionless unit system: the pair spectral width
and the speed of light are 1, intensities are 1, and delays are given in
units of the inverse pair width.

Presets:

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rates import (
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
    mhom_bp_loss_coarse,
    mhom_cp_analytic,
    mhom_cp_coarse_analytic,
    sample_curve,
    sample_surface,
)
from .spectra import CoherentSpectrum, GaussianJointSpectrum

__all__ = ["FIGURE_PRESETS", "CURVE_PRESETS", "FigureDataset", "FigureBundle", "build_figure"]

FIGURE_PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
# presets made of curves; ``n`` counts samples per curve, and per surface
# axis for the others
CURVE_PRESETS = ("fig2", "fig6", "fig8")

_CURVE_N = 801
_SURFACE_N = 121
_CURVE_HALF_RANGE = 4.0
_SURFACE_HALF_RANGE = 3.0
_FIXED_TAU1 = 2.0
_ETA_B_VALUES = (0.0, 0.3, 0.6, 0.9)


@dataclass(frozen=True)
class FigureDataset:
    """One file worth of figure data: a named curve or surface."""

    name: str
    kind: str
    labels: tuple[str, ...]
    curve: RateCurve | None = None
    surface: RateSurface | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("curve", "surface"):
            raise ValueError(f"kind must be 'curve' or 'surface', got {self.kind!r}")
        if (self.kind == "curve") != (self.curve is not None):
            raise ValueError("curve datasets carry exactly the curve payload")
        if (self.kind == "surface") != (self.surface is not None):
            raise ValueError("surface datasets carry exactly the surface payload")


@dataclass(frozen=True)
class FigureBundle:
    preset: str
    datasets: tuple[FigureDataset, ...]
    params: dict


def theta_tag(theta: float) -> str:
    """Short file-name tag for a phase value, pi-aware when possible."""
    if theta == 0.0:
        return "theta0"
    frac = Fraction(theta / math.pi).limit_denominator(12)
    if abs(float(frac) * math.pi - theta) < 1e-12 and frac != 0:
        num, den = frac.numerator, frac.denominator
        sign = "m" if num < 0 else ""
        num = abs(num)
        head = sign + ("pi" if num == 1 else f"{num}pi")
        return "theta_" + (head if den == 1 else f"{head}{den}")
    return "theta_" + f"{theta:.6g}".replace("-", "m").replace(".", "p")


def _eta_tag(eta: float) -> str:
    return f"eta{int(round(10.0 * eta)):02d}"


def _spectrum() -> GaussianJointSpectrum:
    return GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)


def _matched_pulse(spectrum: GaussianJointSpectrum) -> CoherentSpectrum:
    """Pulse with the per-photon spectral spread of the pair source."""
    return CoherentSpectrum(
        omega0=spectrum.omega0,
        d_omega=spectrum.local_spread,
        total_intensity=1.0,
    )


def _spectrum_dict(s: GaussianJointSpectrum) -> dict:
    return {
        "omega0": s.omega0,
        "d_omega_plus": s.d_omega_plus,
        "d_omega_minus": s.d_omega_minus,
    }


def _pulse_dict(p: CoherentSpectrum) -> dict:
    return {
        "omega0": p.omega0,
        "d_omega": p.d_omega,
        "total_intensity": p.total_intensity,
    }


def _base_params(preset: str) -> dict:
    return {
        "preset": preset,
        "units": {
            "delay": "1/d_omega_minus",
            "rate": "rescaled by the plateau value",
            "c": 1.0,
        },
    }


def _curve_axis(n: int) -> np.ndarray:
    return np.linspace(-_CURVE_HALF_RANGE, _CURVE_HALF_RANGE, n)

def _surface_axis(n: int) -> np.ndarray:
    return np.linspace(-_SURFACE_HALF_RANGE, _SURFACE_HALF_RANGE, n)


def _build_fig2(n: int) -> FigureBundle:
    spectrum = _spectrum()
    pulse = CoherentSpectrum(omega0=5.0, d_omega=0.5, total_intensity=1.0)
    axis = _curve_axis(n)
    datasets = (
        FigureDataset(
            "fig2_bp", "curve", ("delay",),
            curve=sample_curve(lambda t: hom_bp_analytic(t, spectrum), axis,
                               bp_plateau()),
        ),
        FigureDataset(
            "fig2_cp", "curve", ("delay",),
            curve=sample_curve(lambda t: hom_cp_analytic(t, pulse), axis,
                               cp_plateau(pulse)),
        ),
        FigureDataset(
            "fig2_cp_coarse", "curve", ("delay",),
            curve=sample_curve(lambda t: hom_cp_coarse_analytic(t, pulse), axis,
                               cp_plateau(pulse)),
        ),
    )
    params = _base_params("fig2")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        pulse=_pulse_dict(pulse),
        delay_half_range=_CURVE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig2", datasets, params)


def _build_fig3(n: int, thetas: tuple[float, ...]) -> FigureBundle:
    spectrum = _spectrum()
    axis = _surface_axis(n)
    datasets = tuple(
        FigureDataset(
            f"fig3_{theta_tag(theta)}", "surface", ("tau1", "tau2"),
            surface=sample_surface(
                lambda t1, t2, th=theta: mhom_bp_analytic(t1, t2, th, spectrum),
                axis, axis, bp_plateau(),
            ),
        )
        for theta in thetas
    )
    params = _base_params("fig3")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        theta=list(thetas),
        delay_half_range=_SURFACE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig3", datasets, params)


def _build_fig4(n: int, theta: float) -> FigureBundle:
    spectrum = _spectrum()
    pulse = _matched_pulse(spectrum)
    axis = _surface_axis(n)
    datasets = (
        FigureDataset(
            "fig4", "surface", ("tau1", "tau2"),
            surface=sample_surface(
                lambda t1, t2: mhom_cp_analytic(t1, t2, theta, pulse),
                axis, axis, cp_plateau(pulse),
            ),
        ),
    )
    params = _base_params("fig4")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        pulse=_pulse_dict(pulse),
        theta=theta,
        delay_half_range=_SURFACE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig4", datasets, params)


def _build_fig5(n: int) -> FigureBundle:
    spectrum = _spectrum()
    pulse = _matched_pulse(spectrum)
    axis = _surface_axis(n)
    datasets = (
        FigureDataset(
            "fig5_bp", "surface", ("tau1", "tau2"),
            surface=sample_surface(
                lambda t1, t2: mhom_bp_coarse_analytic(t1, t2, spectrum),
                axis, axis, bp_plateau(),
            ),
        ),
        FigureDataset(
            "fig5_cp", "surface", ("tau1", "tau2"),
            surface=sample_surface(
                lambda t1, t2: mhom_cp_coarse_analytic(t1, t2, pulse),
                axis, axis, cp_plateau(pulse),
            ),
        ),
    )
    params = _base_params("fig5")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        pulse=_pulse_dict(pulse),
        delay_half_range=_SURFACE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig5", datasets, params)


def _build_fig6(n: int) -> FigureBundle:
    spectrum = _spectrum()
    # cut comparison uses a pulse as wide as the full pair bandwidth
    pulse = CoherentSpectrum(omega0=5.0, d_omega=1.0, total_intensity=1.0)
    axis = _curve_axis(n)
    datasets = (
        FigureDataset(
            "fig6_bp", "curve", ("tau2",),
            curve=sample_curve(
                lambda t2: mhom_bp_coarse_analytic(_FIXED_TAU1, t2, spectrum),
                axis, bp_plateau(),
            ),
        ),
        FigureDataset(
            "fig6_cp", "curve", ("tau2",),
            curve=sample_curve(
                lambda t2: mhom_cp_coarse_analytic(_FIXED_TAU1, t2, pulse),
                axis, cp_plateau(pulse),
            ),
        ),
    )
    params = _base_params("fig6")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        pulse=_pulse_dict(pulse),
        fixed_tau1=_FIXED_TAU1,
        delay_half_range=_CURVE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig6", datasets, params)


def chi2_for_eta_b(eta_b: float) -> float:
    """Second internal-arm amplitude giving a wanted loss imbalance.

    Keeps the first arm lossless; the returned amplitude is real in
    (0, 1], decreasing as the imbalance grows.
    """
    if not 0.0 <= eta_b < 1.0:
        raise ValueError(f"eta_b must lie in [0, 1), got {eta_b!r}")
    root = math.sqrt(eta_b)
    return math.sqrt((1.0 - root) / (1.0 + root))


def _build_fig7(n: int) -> FigureBundle:
    spectrum = _spectrum()
    axis = _surface_axis(n)
    datasets = []
    loss_record = {}
    for eta in _ETA_B_VALUES:
        loss = LossParams(chi2=chi2_for_eta_b(eta))
        loss_record[_eta_tag(eta)] = {"chi1": 1.0, "chi2": loss.chi2.real}
        datasets.append(
            FigureDataset(
                f"fig7_{_eta_tag(eta)}", "surface", ("tau1", "tau2"),
                surface=sample_surface(
                    lambda t1, t2, lo=loss: mhom_bp_loss_coarse(t1, t2, spectrum, lo),
                    axis, axis, bp_plateau(loss),
                ),
            )
        )
    params = _base_params("fig7")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        eta_b_values=list(_ETA_B_VALUES),
        loss=loss_record,
        delay_half_range=_SURFACE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig7", tuple(datasets), params)


def _build_fig8(n: int) -> FigureBundle:
    spectrum = _spectrum()
    axis = _curve_axis(n)
    datasets = []
    loss_record = {}
    for eta in _ETA_B_VALUES:
        loss = LossParams(chi2=chi2_for_eta_b(eta))
        loss_record[_eta_tag(eta)] = {"chi1": 1.0, "chi2": loss.chi2.real}
        datasets.append(
            FigureDataset(
                f"fig8_{_eta_tag(eta)}", "curve", ("tau2",),
                curve=sample_curve(
                    lambda t2, lo=loss: mhom_bp_loss_coarse(_FIXED_TAU1, t2,
                                                            spectrum, lo),
                    axis, bp_plateau(loss),
                ),
            )
        )
    params = _base_params("fig8")
    params.update(
        spectrum=_spectrum_dict(spectrum),
        eta_b_values=list(_ETA_B_VALUES),
        loss=loss_record,
        fixed_tau1=_FIXED_TAU1,
        delay_half_range=_CURVE_HALF_RANGE,
        samples=n,
    )
    return FigureBundle("fig8", tuple(datasets), params)


def build_figure(preset: str, theta: float | None = None,
                 n: int | None = None) -> FigureBundle:
    """Assemble the datasets and parameter record of one preset.

    ``theta`` narrows fig3 to a single phase or overrides the fig4
    phase; other presets have no phase dependence and reject it. ``n``
    overrides the number of samples per axis.
    """
    if preset not in FIGURE_PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; choose one of {', '.join(FIGURE_PRESETS)}"
        )
    if theta is not None and preset not in ("fig3", "fig4"):
        raise ValueError(f"preset {preset} has no achromatic phase parameter")
    if n is None:
        n = _CURVE_N if preset in CURVE_PRESETS else _SURFACE_N
    elif int(n) != n or n < 16:
        raise ValueError(f"need at least 16 samples per axis, got {n!r}")
    n = int(n)
    if preset == "fig2":
        return _build_fig2(n)
    if preset == "fig3":
        thetas = (0.0, 0.5 * math.pi) if theta is None else (float(theta),)
        return _build_fig3(n, thetas)
    if preset == "fig4":
        return _build_fig4(n, 0.5 * math.pi if theta is None else float(theta))
    if preset == "fig5":
        return _build_fig5(n)
    if preset == "fig6":
        return _build_fig6(n)
    if preset == "fig7":
        return _build_fig7(n)
    return _build_fig8(n)
