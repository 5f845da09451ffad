"""Delay estimation from coarse-grained coincidence scans.

A sensing scenario holds two unknown path-length offsets. The first
stage is left at a fixed control setting chosen so its delay is large
against the inverse spectral width; the second-stage control is swept
and the coincidence rate recorded. Feature positions of the resulting
curve (a central maximum flanked by two dips for the photon-pair source,
two dips for the coherent-pulse source) determine both offsets.

Control convention: controls are push-pull. Setting a control to ``x``
lengthens one arm by ``x`` and shortens the other, so a stage with
offset ``dl`` and control ``x`` has delay ``(dl - 2 x) / (2 c)``. This
frame makes the recovery formulas exact:

* pair source:    ``dl1 = 2 (x_min_right - x_max)``, ``dl2 = 2 x_max``
* pulse source:   ``dl1 = x_min_right - x_min_left``, ``dl2 = x_min_right + x_min_left``

and the round-trip scenario -> scan -> recovery closes to within the
scan resolution.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

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
    "visibility",
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
        for name in ("dl1_0", "dl2_0", "x1", "c"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.c <= 0.0:
            raise ValueError("c must be positive")

    @property
    def tau1(self) -> float:
        """Fixed first-stage delay under the push-pull control."""
        return (self.dl1_0 - 2.0 * self.x1) / (2.0 * self.c)

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

    def to_dict(self) -> dict:
        return asdict(self)


# ----- Scanning -----


def _model_width(source: str, model) -> float:
    if source == "bp":
        if not isinstance(model, GaussianJointSpectrum):
            raise TypeError("source 'bp' needs a GaussianJointSpectrum model")
        return model.d_omega_minus
    if source == "cp":
        if not isinstance(model, CoherentSpectrum):
            raise TypeError("source 'cp' needs a CoherentSpectrum model")
        return model.d_omega
    raise ValueError(f"source must be 'bp' or 'cp', got {source!r}")


def scan_f(scenario: SensingScenario, source: str, model,
           loss: LossParams = LossParams(), n: int = 2001,
           span: float | None = None) -> RateCurve:
    """Sweep the second-stage control and tabulate the averaged rate.

    Samples the fluctuation-averaged closed form of the chosen source on
    ``n`` control settings over ``[-span, span]``. The default span
    covers both offsets plus several feature widths. If the fixed
    first-stage delay is not large against the inverse spectral width
    the features merge; the scan is still produced but flagged with a
    ``RegimeWarning``.
    """
    width = _model_width(source, model)
    if int(n) != n or n < 51:
        raise ValueError(f"need at least 51 scan samples, got {n!r}")
    tau1 = scenario.tau1
    if abs(tau1) * width <= 1.0:
        warnings.warn(
            "first-stage delay too small to separate scan features: "
            f"|tau1| * width = {abs(tau1) * width:.4g} <= 1",
            RegimeWarning,
            stacklevel=2,
        )
    if span is None:
        dl1_eff = scenario.dl1_0 - 2.0 * scenario.x1
        span = abs(scenario.dl2_0) + 2.0 * abs(dl1_eff) + 6.0 * scenario.c / width
    span = float(span)
    if span <= 0.0:
        raise ValueError("span must be positive")
    x2 = np.linspace(-span, span, int(n))
    t2 = scenario.tau2(x2)
    if source == "bp":
        values = mhom_bp_coarse_analytic(tau1, t2, model, loss)
        plateau = bp_plateau(loss)
    else:
        values = mhom_cp_coarse_analytic(tau1, t2, model, loss)
        plateau = cp_plateau(model, loss)
    return RateCurve(x2, values, plateau)


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
    below = y[i] < plateau

    def crossing(j_from: int, step: int) -> float:
        j = j_from
        while 0 < j + step < y.size - 1 and ((y[j] < half) == below):
            j += step
        a, b = (j, j + step) if step > 0 else (j + step, j)
        if y[b] == y[a]:
            return float(x[j])
        frac = (half - y[a]) / (y[b] - y[a])
        return float(x[a] + frac * (x[b] - x[a]))

    return abs(crossing(i, +1) - crossing(i, -1))


def _local_extrema(x: np.ndarray, y: np.ndarray, plateau: float):
    # Equal neighboring samples happen when a feature vertex falls exactly
    # between two nodes, so flat runs count as a single candidate extremum.
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
    return dips, peaks


def find_extrema(curve: RateCurve, kind: str) -> ExtremaReport:
    """Locate and refine the features of a scan curve.

    ``kind`` is ``"dips"`` (two dips, coherent-pulse pattern) or
    ``"peak_and_dips"`` (central maximum plus two dips, photon-pair
    pattern). The two most prominent dips are kept, ties broken toward
    the smaller control magnitude; positions are refined by a parabola
    through the three samples around each feature. A scan showing fewer
    features than requested raises ``ExtremaError`` stating how many
    were found, and so does a refined position that overflows.
    """
    if kind not in ("dips", "peak_and_dips"):
        raise ValueError(f"kind must be 'dips' or 'peak_and_dips', got {kind!r}")
    x, y, plateau = curve.axis, curve.values, curve.plateau
    dips, peaks = _local_extrema(x, y, plateau)
    if len(dips) < 2:
        raise ExtremaError(f"expected 2 dips, found {len(dips)}")
    dips.sort(key=lambda item: (-item[1], abs(x[item[0]]), x[item[0]]))
    picked = sorted(dips[:2], key=lambda item: x[item[0]])
    (il, _), (ir, _) = picked
    xl, yl = _refine_vertex(x, y, il)
    xr, yr = _refine_vertex(x, y, ir)
    report = {
        "x_min_left": xl,
        "x_min_right": xr,
        "v_min_left": abs(plateau - yl) / plateau,
        "v_min_right": abs(plateau - yr) / plateau,
        "width_min_left": _half_excursion_width(x, y, il, plateau),
        "width_min_right": _half_excursion_width(x, y, ir, plateau),
    }
    if kind == "peak_and_dips":
        between = [(i, h) for i, h in peaks if x[il] < x[i] < x[ir]]
        if not between:
            raise ExtremaError(
                f"expected a central maximum between the dips, found {len(between)}"
            )
        between.sort(key=lambda item: (-item[1], abs(x[item[0]]), x[item[0]]))
        im = between[0][0]
        xm, ym = _refine_vertex(x, y, im)
        report["x_max"] = xm
        report["v_max"] = abs(plateau - ym) / plateau
        report["width_max"] = _half_excursion_width(x, y, im, plateau)
    if not np.all(np.isfinite([xl, xr, report.get("x_max", 0.0)])):
        raise ExtremaError("feature positions overflow at this scan step")
    return ExtremaReport(**report)


def visibility(curve: RateCurve, position: float) -> float:
    """Fractional excursion of the curve from its plateau at a control setting."""
    value = float(np.interp(float(position), curve.axis, curve.values))
    return abs(curve.plateau - value) / curve.plateau


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


def run_sensing(scenario: SensingScenario, source: str, model,
                loss: LossParams = LossParams(), n: int = 2001,
                span: float | None = None) -> SensingResult:
    """Scan, extract features and recover both offsets in one call.

    The pair source uses the peak and the right dip, the pulse source the
    two dips. The first-stage recovery is a magnitude: both scan patterns
    are even in the first-stage delay, so its sign is not observable.
    With a nonzero fixed control the recovered first value refers to the
    effective offset ``dl1_0 - 2 x1``.
    """
    curve = scan_f(scenario, source, model, loss=loss, n=n, span=span)
    if source == "bp":
        report = find_extrema(curve, "peak_and_dips")
        dl1, dl2 = invert_bp(report.x_max, report.x_min_right)
    else:
        report = find_extrema(curve, "dips")
        dl1, dl2 = invert_cp(report.x_min_left, report.x_min_right)
    return SensingResult(curve, report, dl1, dl2)
