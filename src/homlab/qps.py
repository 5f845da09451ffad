"""Position recovery on a sphere from two interferometric baselines.

Four ground stations sit on a circle of radius ``r`` in the horizontal
plane, paired into two perpendicular baselines (one along y, one along
x). An emitter on the upper hemisphere of the sphere of radius ``r``
bounces a signal off each station; each baseline feeds one delay stage
of the two-delay interferometer, so the stage delays encode the
path-length differences ``L1 - L2`` and ``L3 - L4``. Locating the scan
features of the coarse-grained pair rate yields the compensating
control delays, and simple algebra inverts those into the elevation and
azimuth of the emitter. ``qps_invert`` (control magnitudes and quadrant
signs given) and ``qps_scan`` (both read off a simulated scan) share
that inversion. In ``qps_scan``, direction cosines that measurement
error pushes outside the unit disk read as the horizon.

Control frame: a control setting ``S'`` on a stage adds ``2 S'`` to
that stage's path difference, so the stage delays during a scan are
``tau1 = (L1 - L2 + 2 S1') / (2 c)`` and
``tau2 = (L3 - L4 + 2 S2') / (2 c)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .network import finite_real, positive_real, store_finite, whole_number
from .rates import (
    LossParams,
    RateCurve,
    RateSurface,
    bp_plateau,
    mhom_bp_coarse_analytic,
    sample_curve,
    sample_surface,
)
from .sensing import ExtremaReport, find_extrema, invert_bp, scan_samples
from .spectra import GaussianJointSpectrum

__all__ = [
    "QpsTarget",
    "QpsDelays",
    "QpsInversion",
    "QpsScanResult",
    "qps_forward",
    "qps_invert",
    "qps_scan",
    "qps_scan_samples",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QpsTarget:
    """Emitter position: sphere radius, elevation and azimuth.

    The elevation ``gamma`` runs from 0 (horizon) to pi/2 (zenith); the
    azimuth ``vartheta`` is stored normalized to ``[0, 2 pi)``. The
    Cartesian position is ``(r cos(gamma) sin(vartheta),
    r cos(gamma) cos(vartheta), r sin(gamma))``.
    """

    r: float
    gamma: float
    vartheta: float

    def __post_init__(self) -> None:
        store_finite(self, "r", rule=positive_real)
        store_finite(self, "gamma", "vartheta")
        if not 0.0 <= self.gamma <= 0.5 * math.pi:
            raise ValueError(f"elevation must lie in [0, pi/2], got {self.gamma!r}")
        vartheta = math.fmod(self.vartheta, _TWO_PI)
        object.__setattr__(self, "vartheta", vartheta + _TWO_PI if vartheta < 0.0 else vartheta)

    @property
    def u(self) -> float:
        """Direction cosine along the y baseline."""
        return math.cos(self.gamma) * math.cos(self.vartheta)

    @property
    def v(self) -> float:
        """Direction cosine along the x baseline."""
        return math.cos(self.gamma) * math.sin(self.vartheta)

    def position(self) -> np.ndarray:
        return self.r * np.array(
            [
                math.cos(self.gamma) * math.sin(self.vartheta),
                math.cos(self.gamma) * math.cos(self.vartheta),
                math.sin(self.gamma),
            ]
        )


@dataclass(frozen=True)
class QpsDelays:
    """Station path lengths and the compensating control delays.

    ``l1, l2`` belong to the y baseline, ``l3, l4`` to the x baseline;
    ``s1, s2`` are the control magnitudes that equalize each pair.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    s1: float
    s2: float


def qps_forward(target: QpsTarget) -> QpsDelays:
    """Path lengths and zeroing controls for an emitter position."""
    r, u, v = target.r, target.u, target.v
    l1 = r * math.sqrt(2.0 * (1.0 + u))
    l2 = r * math.sqrt(2.0 * (1.0 - u))
    l3 = r * math.sqrt(2.0 * (1.0 - v))
    l4 = r * math.sqrt(2.0 * (1.0 + v))
    return QpsDelays(
        l1=l1,
        l2=l2,
        l3=l3,
        l4=l4,
        s1=0.5 * abs(l1 - l2),
        s2=0.5 * abs(l3 - l4),
    )


@dataclass(frozen=True)
class QpsInversion:
    """Inverted emitter position plus the zenith-degeneracy flag.

    At the zenith both control delays vanish and the azimuth is
    undefined; it is reported as 0 with ``degenerate_azimuth`` set.
    """

    target: QpsTarget
    degenerate_azimuth: bool


def _invert(r: float, s1: float, s2: float, sign_u: int,
            sign_v: int) -> tuple[QpsTarget, bool, float]:
    """Emitter position from the control magnitudes ``s1, s2`` in ``[0, r]`` and
    the quadrant signs, inverting the forward map; then the zenith flag and
    ``u**2 + v**2`` of the direction cosines, which a pair outside the unit
    disk puts above 1 (its position is read on the horizon)."""
    def magnitude(s):
        w = 1.0 - (s / r) ** 2
        return math.sqrt(max(0.0, 1.0 - w * w))

    u, v = sign_u * magnitude(s1), sign_v * magnitude(s2)
    cos_gamma = min(math.hypot(u, v), 1.0)
    degenerate = cos_gamma == 0.0
    vartheta = 0.0 if degenerate else math.atan2(v, u)
    return QpsTarget(r=r, gamma=math.acos(cos_gamma), vartheta=vartheta), degenerate, u * u + v * v


def qps_invert(r: float, s1: float, s2: float, sign_u: int = 1,
               sign_v: int = 1) -> QpsInversion:
    """Recover the emitter position from the two control delays.

    The control delays fix only the magnitudes of the two direction
    cosines; the caller supplies their signs (the quadrant), which the
    scan-based pipeline reads off the signed feature positions.
    """
    r = positive_real(r, "r")
    for name, sign in (("sign_u", sign_u), ("sign_v", sign_v)):
        if isinstance(sign, bool) or not isinstance(sign, numbers.Integral):
            raise TypeError(f"{name} must be the int +1 or -1, got {type(sign).__name__}")
        if sign not in (-1, 1):
            raise ValueError(f"{name} must be +1 or -1, got {sign!r}")
    tol = 1e-9 * r
    values = []
    for name, s in (("s1", s1), ("s2", s2)):
        s = finite_real(s, name)
        if s < -tol or s > r + tol:
            raise ValueError(f"{name} must lie in [0, r], got {s!r}")
        values.append(min(max(s, 0.0), r))
    target, degenerate, norm2 = _invert(r, *values, sign_u, sign_v)
    if norm2 > 1.0 + 1e-9:
        raise ValueError(
            f"control delays are inconsistent: u^2 + v^2 = {norm2:.6g} > 1"
        )
    return QpsInversion(target, degenerate)


# ----- End-to-end simulated scan -----


@dataclass(frozen=True)
class QpsScanResult:
    """Everything the simulated recovery produces.

    ``curve`` is the recovery scan over the second control at the fixed
    first-control setting; ``surface`` is a coarser map over both
    controls for inspection. ``d1`` and ``d2`` are the recovered signed
    baseline differences, ``s1``/``s2`` their control magnitudes. The
    error fields compare against the simulated truth.
    """

    recovered: QpsTarget
    degenerate_azimuth: bool
    d1: float
    d2: float
    s1: float
    s2: float
    sign_u: int
    sign_v: int
    curve: RateCurve
    report: ExtremaReport
    surface: RateSurface
    gamma_error: float
    vartheta_error: float
    position_error: float


def _wrapped_angle_distance(a: float, b: float) -> float:
    d = math.fmod(abs(a - b), _TWO_PI)
    return min(d, _TWO_PI - d)


def _scan_span(target: QpsTarget, width: float, c: float) -> float:
    return 3.0 * target.r + 6.0 * c / width


def qps_scan_samples(target: QpsTarget, spectrum: GaussianJointSpectrum,
                     c: float = 1.0) -> float:
    """Length of the default ``qps_scan`` scan: steps of ``0.05 c / width``.

    A float, so the count for an extreme target can be compared with a
    bound before anything is allocated; it is a whole number whenever an
    array that long could exist. A span that overflows is not formed.
    """
    c = positive_real(c, "c")
    width = spectrum.d_omega_minus
    span = _scan_span(target, width, c)
    # a subnormal c underflows the step 0.05 c to zero: infinitely many samples;
    # the steps of an overflowing span are counted as 60 (r / c) width + 120
    steps = (math.inf if 0.05 * c == 0.0 else span * width / (0.05 * c) if math.isfinite(span)
             else 60.0 * (target.r / c) * width + 120.0)
    return max(2001.0, 2.0 * float(np.ceil(steps)) + 1.0)


def qps_scan(target: QpsTarget, spectrum: GaussianJointSpectrum,
             loss: LossParams = LossParams(), c: float = 1.0,
             n: int | None = None, surface_n: int = 81) -> QpsScanResult:
    """Simulate the full scan-and-invert pipeline for a known emitter.

    The first control is parked at ``r + 2.5 c / width`` (width being
    the pair spectral width), which keeps the first-stage delay out of
    the merged-feature regime for every emitter position. Sweeping the
    second control then shows the central maximum where the second stage
    is compensated and a dip pair split by the first-stage delay; the
    feature positions give both signed baseline differences, whose signs
    select the azimuth quadrant. Recovered control magnitudes are
    truncated at the geometric bound ``r`` before inversion. If
    measurement error puts the pair of direction cosines outside the unit
    disk, the recovered elevation is exactly 0 (the horizon) and the
    azimuth is the direction of the pair. The scan takes ``n`` samples
    (``qps_scan_samples`` by default; at least 51) and the control surface
    ``surface_n`` per axis (at least 2), both whole numbers.
    """
    c = positive_real(c, "c")
    surface_n = whole_number(surface_n, "surface_n", "surface samples", 2)
    width = spectrum.d_omega_minus
    delays = qps_forward(target)
    d1_true = delays.l1 - delays.l2
    d2_true = delays.l3 - delays.l4
    offset = target.r + 2.5 * c / width

    def rate_at(s1p, s2p):
        """Averaged pair rate at control settings ``(s1p, s2p)``, module control frame."""
        return mhom_bp_coarse_analytic((d1_true + 2.0 * np.asarray(s1p)) / (2.0 * c),
                                       (d2_true + 2.0 * np.asarray(s2p)) / (2.0 * c),
                                       spectrum, loss)

    span = _scan_span(target, width, c)
    n = scan_samples(qps_scan_samples(target, spectrum, c) if n is None else n)
    axis = np.linspace(-span, span, n)
    plateau = bp_plateau(loss)
    curve = sample_curve(lambda s2p: rate_at(offset, s2p), axis, plateau)
    report = find_extrema(curve, "peak_and_dips")

    dl1, dl2 = invert_bp(report.x_max, report.x_min_right)
    d1_hat = dl1 - 2.0 * offset
    d2_hat = -dl2
    sign_u = -1 if d1_hat < 0.0 else 1
    sign_v = 1 if d2_hat < 0.0 else -1

    s1_hat = min(0.5 * abs(d1_hat), target.r)
    s2_hat = min(0.5 * abs(d2_hat), target.r)
    recovered, degenerate, _ = _invert(target.r, s1_hat, s2_hat, sign_u, sign_v)

    s_axis = np.linspace(-(target.r + 3.0 * c / width),
                         target.r + 3.0 * c / width, surface_n)
    surface = sample_surface(rate_at, s_axis, s_axis, plateau)

    return QpsScanResult(
        recovered=recovered,
        degenerate_azimuth=degenerate,
        d1=d1_hat,
        d2=d2_hat,
        s1=s1_hat,
        s2=s2_hat,
        sign_u=sign_u,
        sign_v=sign_v,
        curve=curve,
        report=report,
        surface=surface,
        gamma_error=abs(recovered.gamma - target.gamma),
        vartheta_error=_wrapped_angle_distance(recovered.vartheta, target.vartheta),
        position_error=float(
            np.linalg.norm(recovered.position() - target.position())
        ),
    )
