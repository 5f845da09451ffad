"""Delay estimation from coarse-grained coincidence scans.

A sensing scenario holds two unknown path-length offsets. The first
stage is left at a fixed control setting chosen so its delay is large
against the inverse spectral width; the second-stage control is swept
and the coincidence rate recorded. Feature positions of the resulting
curve (a central maximum flanked by two dips for the photon-pair source,
two dips for the coherent-pulse source) determine both offsets. The
model passed to ``scan_f`` and ``run_sensing`` names the source: a
``GaussianJointSpectrum`` is the photon pair, a ``CoherentSpectrum`` the
coherent pulse.

Control convention: controls are push-pull. Setting a control to ``x``
lengthens one arm by ``x`` and shortens the other, so a stage with
offset ``dl`` and control ``x`` has delay ``(dl - 2 x) / (2 c)``. This
frame makes the recovery formulas exact:

* pair source:    ``dl1 = 2 (x_min_right - x_max)``, ``dl2 = 2 x_max``
* pulse source:   ``dl1 = x_min_right - x_min_left``, ``dl2 = x_min_right + x_min_left``

The round trip scenario -> scan -> recovery closes to well within the
scan step, except for the pair source's first offset: the ridge at zero
second delay pulls the right dip, a bias that does not shrink with ``n``
(for omega0 5, d_omega_plus 0.2, d_omega_minus 1: 5.5e-4, 5.7e-2 and 0.25
at ``dl1_0`` = 4.4, 3.0 and 2.2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .network import positive_real, store_finite, whole_number
from .rates import (
    LossParams,
    RateCurve,
    RegimeWarning,
    bp_plateau,
    cp_plateau,
    mhom_bp_coarse_analytic,
    mhom_cp_coarse_analytic,
)
from .spectra import CoherentSpectrum, GaussianJointSpectrum

__all__ = [
    "ExtremaError",
    "SensingScenario",
    "ExtremaReport",
    "SensingResult",
    "scan_f",
    "find_extrema",
    "invert_bp",
    "invert_cp",
    "run_sensing",
]

_PROMINENCE = 0.005  # minimum feature depth/height, as a fraction of the plateau


class ExtremaError(RuntimeError):
    """A scan did not show the requested feature pattern."""


@dataclass(frozen=True)
class SensingScenario:
    """Unknown two-stage offsets plus the fixed first-stage control.

    ``dl1_0`` and ``dl2_0`` are the path-length offsets to recover;
    ``x1`` is the fixed push-pull control on the first stage, available
    to push its delay into the resolvable band; ``c`` converts lengths
    to delays.
    """

    dl1_0: float
    dl2_0: float
    x1: float = 0.0
    c: float = 1.0

    def __post_init__(self) -> None:
        store_finite(self, "dl1_0", "dl2_0", "x1")
        store_finite(self, "c", rule=positive_real)

    @property
    def dl1_eff(self) -> float:
        """Effective first offset ``dl1_0 - 2 x1`` under the fixed control."""
        return self.dl1_0 - 2.0 * self.x1

    @property
    def tau1(self) -> float:
        """Fixed first-stage delay under the push-pull control."""
        return self.dl1_eff / (2.0 * self.c)

    def tau2(self, x2):
        """Second-stage delay as a function of the swept control."""
        return (self.dl2_0 - 2.0 * np.asarray(x2, dtype=float)) / (2.0 * self.c)


@dataclass(frozen=True)
class ExtremaReport:
    """Feature positions, visibilities and widths extracted from a scan.

    Dip fields are always present; the central-maximum fields are None
    for sources whose scan has no peak. Positions are control settings in
    length units. Visibilities are fractional excursions from the
    plateau; widths are full widths at half excursion.
    """

    x_min_left: float
    x_min_right: float
    v_min_left: float
    v_min_right: float
    width_min_left: float
    width_min_right: float
    x_max: float | None = None
    v_max: float | None = None
    width_max: float | None = None

    def __post_init__(self) -> None:
        if self.x_min_left > self.x_min_right:
            raise ValueError("dip positions must satisfy x_min_left <= x_min_right")
        if self.x_max is not None and not (self.x_min_left <= self.x_max <= self.x_min_right):
            raise ValueError("central maximum must sit between the dips")

    @property
    def v_min(self) -> float:
        return 0.5 * (self.v_min_left + self.v_min_right)


# ----- Scanning -----


def _source(model, loss: LossParams):
    """Feature width, averaged closed form, plateau and feature pattern of ``model``'s source."""
    if isinstance(model, GaussianJointSpectrum):
        return model.d_omega_minus, mhom_bp_coarse_analytic, bp_plateau(loss), "peak_and_dips"
    if isinstance(model, CoherentSpectrum):
        return model.d_omega, mhom_cp_coarse_analytic, cp_plateau(model, loss), "dips"
    raise TypeError("model must be a GaussianJointSpectrum or a CoherentSpectrum, "
                    f"got {type(model).__name__}")


def scan_samples(n) -> int:
    """``n`` as an ``int`` count of scan samples: a whole number, at least 51."""
    return whole_number(n, "n", "scan samples", 51)


def scan_f(scenario: SensingScenario, model, loss: LossParams = LossParams(),
           n: int = 2001, span: float | None = None) -> RateCurve:
    """Sweep the second-stage control and tabulate the averaged rate.

    Samples the fluctuation-averaged closed form of the source ``model``
    describes (a ``GaussianJointSpectrum`` pair or a ``CoherentSpectrum``
    pulse) on ``n`` control settings (a whole number, at least 51) over
    ``[-span, span]``. A given ``span`` must be positive and finite. The
    default span covers both offsets plus several feature widths; it is
    scanned as computed, also where it underflows to 0 or overflows. If
    the fixed first-stage delay is not large against the inverse spectral
    width the features merge; the scan is still produced but flagged with
    a ``RegimeWarning``.
    """
    width, form, plateau, _ = _source(model, loss)
    n = scan_samples(n)
    tau1 = scenario.tau1
    if abs(tau1) * width <= 1.0:
        warnings.warn(
            "first-stage delay too small to separate scan features: "
            f"|tau1| * width = {abs(tau1) * width:.4g} <= 1",
            RegimeWarning,
            stacklevel=2,
        )
    # a derived span is scanned as derived: one that underflows to 0 misses the
    # features, and one that overflows gives rates that are refused as not finite
    span = (positive_real(span, "span") if span is not None else
            abs(scenario.dl2_0) + 2.0 * abs(scenario.dl1_eff) + 6.0 * scenario.c / width)
    x2 = np.linspace(-span, span, n)
    return RateCurve(x2, form(tau1, scenario.tau2(x2), model, loss), plateau)


# ----- Feature extraction -----


def _refine_vertex(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through three neighboring samples."""
    xl, x0, xr = x[i - 1], x[i], x[i + 1]
    yl, y0, yr = y[i - 1], y[i], y[i + 1]
    al, ar = x0 - xl, x0 - xr
    num = al * al * (y0 - yr) - ar * ar * (y0 - yl)
    den = al * (y0 - yr) - ar * (y0 - yl)
    if den == 0.0:
        return float(x0), float(y0)
    xv = x0 - 0.5 * num / den
    # value at the vertex from the same parabola, in Lagrange form
    l0 = (xv - xl) * (xv - xr) / ((x0 - xl) * (x0 - xr))
    ll = (xv - x0) * (xv - xr) / ((xl - x0) * (xl - xr))
    lr = (xv - x0) * (xv - xl) / ((xr - x0) * (xr - xl))
    return float(xv), float(ll * yl + l0 * y0 + lr * yr)


def _half_excursion_width(x: np.ndarray, y: np.ndarray, i: int, plateau: float) -> float:
    """Full width of the feature at index i, at half its excursion from the plateau."""
    half = 0.5 * (y[i] + plateau)
    beyond = (y < half) != (y[i] < plateau)  # samples on the plateau side of the half level

    def crossing(j: int, step: int) -> float:
        # between j, the first plateau-side sample outward from i, and its inner
        # neighbour; where the scan ends first, j is its end sample and they extrapolate
        a, b = (j - step, j) if step > 0 else (j, j - step)
        if y[b] == y[a]:
            return float(x[j - step])
        frac = (half - y[a]) / (y[b] - y[a])
        return float(x[a] + frac * (x[b] - x[a]))

    right = i + int(np.argmax(beyond[i:]))
    left = i - int(np.argmax(beyond[i::-1]))
    return abs(crossing(right if beyond[right] else y.size - 1, +1)
               - crossing(left if beyond[left] else 0, -1))


def _local_extrema(x: np.ndarray, y: np.ndarray, plateau: float):
    """Candidate dip and peak indices, ranked by prominence, then smaller |x|, then x."""
    # Equal neighboring samples happen when a feature vertex falls exactly
    # between two nodes, so a run of equal samples is one candidate, at its
    # middle sample: a dip when the step into it falls and the step out
    # rises, a peak in the reverse case. A run touching a scan end is none.
    d = np.diff(y)  # finite, as rates are
    steps = np.flatnonzero(d)
    falls = d[steps] < 0.0
    turns = np.flatnonzero(falls[:-1] != falls[1:])  # runs between steps that turn
    k = (steps[turns] + 1 + steps[turns + 1]) // 2
    dip = falls[turns]
    prominence = np.where(dip, plateau - y[k], y[k] - plateau) / plateau
    ranked = np.lexsort((x[k], np.abs(x[k]), -prominence))
    ranked = ranked[prominence[ranked] >= _PROMINENCE]
    return k[ranked[dip[ranked]]], k[ranked[~dip[ranked]]]


def find_extrema(curve: RateCurve, kind: str) -> ExtremaReport:
    """Locate and refine the features of a scan curve.

    ``kind`` is ``"dips"`` (two dips, coherent-pulse pattern) or
    ``"peak_and_dips"`` (central maximum plus two dips, photon-pair
    pattern). Features rank by prominence, ties broken toward the smaller
    control magnitude; the two best dips are kept, and the best peak
    strictly between them. Positions are refined by a parabola through
    the three samples around each feature, and a width is the full width at
    half excursion, each side interpolated between the two samples that
    bracket the half level. Extraction is linear-time array work. A scan
    showing fewer features than requested raises ``ExtremaError`` stating
    how many were found, and so does a refined position that overflows.
    """
    if kind not in ("dips", "peak_and_dips"):
        raise ValueError(f"kind must be 'dips' or 'peak_and_dips', got {kind!r}")
    x, y, plateau = curve.axis, curve.values, curve.plateau
    dips, peaks = _local_extrema(x, y, plateau)
    if len(dips) < 2:
        raise ExtremaError(f"expected 2 dips, found {len(dips)}")
    il, ir = sorted(dips[:2], key=lambda i: x[i])
    picked = {"min_left": il, "min_right": ir}
    if kind == "peak_and_dips":
        between = peaks[(x[il] < x[peaks]) & (x[peaks] < x[ir])]
        if not between.size:
            raise ExtremaError("expected a central maximum between the dips, found 0")
        picked["max"] = between[0]
    report = {}
    for name, i in picked.items():
        report[f"x_{name}"], y_vertex = _refine_vertex(x, y, i)
        report[f"v_{name}"] = abs(plateau - y_vertex) / plateau
        report[f"width_{name}"] = _half_excursion_width(x, y, i, plateau)
    if not np.all(np.isfinite([report[f"x_{name}"] for name in picked])):
        raise ExtremaError("feature positions overflow at this scan step")
    return ExtremaReport(**report)


# ----- Recovery -----


def invert_bp(x_max: float, x_min_right: float) -> tuple[float, float]:
    """Offsets from the pair-source features: peak position and right dip."""
    return 2.0 * (float(x_min_right) - float(x_max)), 2.0 * float(x_max)


def invert_cp(x_min_left: float, x_min_right: float) -> tuple[float, float]:
    """Offsets from the pulse-source features: the two dip positions."""
    return (
        float(x_min_right) - float(x_min_left),
        float(x_min_right) + float(x_min_left),
    )


@dataclass(frozen=True)
class SensingResult:
    """Scan curve, feature report and the recovered offsets."""

    curve: RateCurve
    report: ExtremaReport
    dl1_recovered: float
    dl2_recovered: float


def run_sensing(scenario: SensingScenario, model, loss: LossParams = LossParams(),
                n: int = 2001, span: float | None = None) -> SensingResult:
    """Scan, extract features and recover both offsets in one call.

    ``model`` names the source, as in ``scan_f``. The pair source uses
    the peak and the right dip, the pulse source the two dips. The
    first-stage recovery is a magnitude: both scan patterns are even in
    the first-stage delay, so its sign is not observable.
    With a nonzero fixed control the recovered first value refers to the
    effective offset ``dl1_0 - 2 x1``.
    """
    curve = scan_f(scenario, model, loss=loss, n=n, span=span)
    kind = _source(model, loss)[3]
    report = find_extrema(curve, kind)
    if kind == "peak_and_dips":
        dl1, dl2 = invert_bp(report.x_max, report.x_min_right)
    else:
        dl1, dl2 = invert_cp(report.x_min_left, report.x_min_right)
    return SensingResult(curve, report, dl1, dl2)
