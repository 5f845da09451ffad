"""Coincidence rates of the standard and two-delay interferometers.

Gaussian closed forms give the photon-pair (``bp``) and coherent-pulse
(``cp``) rates; the fluctuation-averaged two-delay rates also take flat
path losses (``LossParams()`` is lossless). Fast delay fluctuations are
averaged over sliding boxes, term by term, in the two exact two-delay
forms. The generic window average and the quadrature oracles that check
these forms live in ``network``.

The closed forms take a spectrum object, broadcast over delay arrays and
return the raw value of their formula, as do the window averages.
Rates are non-negative by construction; round-off can still drive a
value a hair below zero. ``RateCurve`` and ``RateSurface``, the
containers every written artifact passes through, clamp those to zero
and raise on anything beyond round-off: that is the one clamping pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import import_module

import numpy as np

from .spectra import (
    CoherentSpectrum,
    GaussianJointSpectrum,
    blockwise,
    positive_real,
    store_finite,
    validate_amplitude,
    whole_number,
)

__all__ = [
    "NonFiniteRateError",
    "RegimeError",
    "RegimeWarning",
    "RateCurve",
    "RateSurface",
    "LossParams",
    "bp_plateau",
    "cp_plateau",
    "hom_bp_analytic",
    "hom_cp_analytic",
    "hom_cp_coarse_analytic",
    "mhom_bp_analytic",
    "mhom_cp_analytic",
    "mhom_bp_coarse_analytic",
    "mhom_cp_coarse_analytic",
    "mhom_bp_loss_coarse",
    "mhom_cp_loss_coarse",
    "mhom_bp_windowed",
    "mhom_cp_windowed",
    "MAX_WINDOW_NODES",
    "window_nodes",
    "sample_curve",
    "sample_surface",
]

_NEGATIVE_TOL = 1e-12

# Largest averaging rule the coarse-graining paths build. leggauss(n) takes
# the eigenvalues of a dense n x n matrix: 32 MB and under a second here,
# and O(n**3) time beyond.
MAX_WINDOW_NODES = 2048

# Rate points per temporary in every window average (generic and structured);
# cells are taken in blocks of this many points, so memory stays flat for any grid.
_BLOCK_POINTS = 1 << 20


class RegimeError(ValueError):
    """An averaging window falls outside the fast-fluctuation regime."""


class NonFiniteRateError(ValueError):
    """A rate came out nan or infinite: a parameter or delay is too large or too small."""


class RegimeWarning(UserWarning):
    """A computation ran outside its intended parameter regime."""


def _as_rate(values):
    """Clamp round-off negatives to zero; reject non-finite and genuinely negative rates."""
    v = np.asarray(values, dtype=float)
    # min and max carry a nan through; as lo <= 0 <= hi, lo + hi is finite iff both are
    lo, hi = float(np.min(v, initial=0.0)), float(np.max(v, initial=0.0))
    if not math.isfinite(lo + hi):
        raise NonFiniteRateError(
            f"coincidence rate is not finite ({lo + hi}); a parameter or delay "
            "is too large or too small to evaluate it")
    if lo < -_NEGATIVE_TOL:
        raise ValueError(f"coincidence rate went negative beyond round-off ({lo})")
    return np.where(v < 0.0, 0.0, v)


# ----- Result containers -----


def _store_rates(container, values: np.ndarray, **axes: np.ndarray) -> None:
    """Check a container's plateau, then store its axes, clamped values and plateau."""
    plateau = float(container.plateau)
    if not np.isfinite(plateau) or plateau <= 0.0:
        raise ValueError(f"plateau must be positive, got {plateau!r}")
    for name, value in {**axes, "values": values, "plateau": plateau}.items():
        object.__setattr__(container, name, value)


@dataclass(frozen=True)
class RateCurve:
    """Rate values sampled along one axis, with the large-delay plateau."""

    axis: np.ndarray
    values: np.ndarray
    plateau: float

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis, dtype=float)
        values = _as_rate(self.values)
        if axis.ndim != 1 or values.shape != axis.shape:
            raise ValueError("axis and values must be matching 1-D arrays")
        _store_rates(self, values, axis=axis)


@dataclass(frozen=True)
class RateSurface:
    """Rate values on a delay-pair grid, ``values[i, j]`` at ``(tau1[i], tau2[j])``."""

    tau1_axis: np.ndarray
    tau2_axis: np.ndarray
    values: np.ndarray
    plateau: float

    def __post_init__(self) -> None:
        t1 = np.asarray(self.tau1_axis, dtype=float)
        t2 = np.asarray(self.tau2_axis, dtype=float)
        values = _as_rate(self.values)
        if t1.ndim != 1 or t2.ndim != 1 or values.shape != (t1.size, t2.size):
            raise ValueError("surface values must have shape (len(tau1), len(tau2))")
        _store_rates(self, values, tau1_axis=t1, tau2_axis=t2)


def sample_curve(func, axis, plateau: float) -> RateCurve:
    """Tabulate a broadcasting rate function along one axis."""
    axis = np.asarray(axis, dtype=float)
    return RateCurve(axis, func(axis), plateau)


def sample_surface(func, tau1_axis, tau2_axis, plateau: float) -> RateSurface:
    """Tabulate a two-delay rate function on an outer grid.

    ``func`` must be elementwise: each value depends only on its own
    ``(tau1, tau2)`` pair. It is called once per block of rows, as
    ``func(tau1[lo:hi, None], tau2[None, :])``, and the blocks fill one
    preallocated surface, so the peak is the surface plus its clamped
    copy rather than every whole-grid temporary of the formula.
    """
    t1 = np.asarray(tau1_axis, dtype=float)
    t2 = np.asarray(tau2_axis, dtype=float)
    return RateSurface(t1, t2, blockwise(func, t1[:, None], t2[None, :]), plateau)


# ----- Path losses -----


@dataclass(frozen=True)
class LossParams:
    """Flat path attenuations of the two-delay interferometer.

    ``xi1, xi2`` act on the two input paths ahead of the first delay
    stage, ``chi1, chi2`` on the internal paths between the splitters.
    Amplitudes are complex scalars with modulus at most one, evaluated at
    the carrier (white-noise loss model). Each stage must keep at least
    one path open.
    """

    xi1: complex = 1.0
    xi2: complex = 1.0
    chi1: complex = 1.0
    chi2: complex = 1.0

    def __post_init__(self) -> None:
        store_finite(self, "xi1", "xi2", "chi1", "chi2", rule=validate_amplitude)
        if self.xi_power == 0.0 or self.chi_power == 0.0:
            raise ValueError("each loss stage must keep at least one path open")

    @property
    def xi_power(self) -> float:
        return abs(self.xi1) ** 2 + abs(self.xi2) ** 2

    @property
    def chi_power(self) -> float:
        return abs(self.chi1) ** 2 + abs(self.chi2) ** 2

    @property
    def eta_a(self) -> float:
        """Squared relative imbalance of the input-path transmissions."""
        return ((abs(self.xi1) ** 2 - abs(self.xi2) ** 2) / self.xi_power) ** 2

    @property
    def eta_b(self) -> float:
        """Squared relative imbalance of the internal-path transmissions."""
        return ((abs(self.chi1) ** 2 - abs(self.chi2) ** 2) / self.chi_power) ** 2


def bp_plateau(loss: LossParams | None = None) -> float:
    """Large-delay pair-coincidence plateau: one half, rescaled under losses.

    ``None`` is the lossless ``LossParams()``.
    """
    loss = loss or LossParams()
    return abs(loss.xi1 * loss.xi2) ** 2 * loss.chi_power**2 / 8.0


def cp_plateau(pulse: CoherentSpectrum, loss: LossParams | None = None) -> float:
    """Large-delay coherent-pulse plateau: squared intensity, rescaled under losses.

    ``None`` is the lossless ``LossParams()``.
    """
    loss = loss or LossParams()
    return (pulse.total_intensity * loss.chi_power * loss.xi_power / 4.0) ** 2


# ----- Closed forms, standard interferometer -----


def _gauss(k: float, width: float, x):
    """The Gaussian factor ``exp(-k width**2 x**2)`` every closed form is built from."""
    return np.exp(-k * width * width * x * x)


def hom_bp_analytic(tau, spectrum: GaussianJointSpectrum):
    """Pair-coincidence rate of the standard interferometer.

    Rises from an exact zero at zero delay to the plateau of one half on
    the time scale set by the frequency-difference spread. The carrier
    and the sum spread drop out entirely.
    """
    t = np.asarray(tau, dtype=float)
    return 0.5 * (1.0 - _gauss(2.0, spectrum.d_omega_minus, t))


def hom_cp_analytic(tau, pulse: CoherentSpectrum):
    """Coincidence rate of the standard interferometer fed by identical pulses.

    Oscillates at twice the carrier under a Gaussian envelope and touches
    zero whenever the carrier phase does; the plateau is the squared
    pulse intensity.
    """
    t = np.asarray(tau, dtype=float)
    a2 = pulse.total_intensity**2
    return a2 * (1.0 - np.cos(2.0 * pulse.omega0 * t) ** 2 * _gauss(4.0, pulse.d_omega, t))


def hom_cp_coarse_analytic(tau, pulse: CoherentSpectrum):
    """Fluctuation-averaged coherent-pulse rate: a dip to half the plateau."""
    t = np.asarray(tau, dtype=float)
    a2 = pulse.total_intensity**2
    return a2 * (1.0 - 0.5 * _gauss(4.0, pulse.d_omega, t))


# ----- Closed forms, two-delay interferometer -----


def mhom_bp_analytic(tau1, tau2, theta: float, spectrum: GaussianJointSpectrum):
    """Pair-coincidence rate of the two-delay interferometer.

    Sum of a slow part shaped by the frequency-difference spread and an
    oscillatory part at four times the carrier in the second delay,
    damped by the frequency-sum spread. At zero delays the rate equals
    ``(1 + cos(2 theta)) / 2``; for ``theta = pi/2`` that zero is the only
    one on the surface.
    """
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    g = partial(_gauss, 2.0, spectrum.d_omega_minus)
    bracket = (
        4.0
        + 2.0 * g(t2)
        - g(t1 + t2)
        - g(t1 - t2)
        + 2.0
        * _gauss(8.0, spectrum.d_omega_plus, t2)
        * (1.0 + g(t1))
        * np.cos(4.0 * t2 * spectrum.omega0 + 2.0 * theta)
    )
    return bracket / 8.0


def mhom_cp_analytic(tau1, tau2, theta: float, pulse: CoherentSpectrum):
    """Coherent-pulse rate of the two-delay interferometer.

    Equals the squared intensity exactly at zero delays for every phase
    setting, which is what separates this source from the photon pair.
    Away from the origin it shows deep carrier-frequency fringes but
    never reaches zero.
    """
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    w0 = pulse.omega0
    a2 = pulse.total_intensity**2
    e = partial(_gauss, 2.0, pulse.d_omega)
    b = np.cos(theta + 2.0 * w0 * (t2 + t1)) * e(t1 + t2) - np.cos(
        theta + 2.0 * w0 * (t2 - t1)
    ) * e(t1 - t2)
    return a2 * (1.0 - 0.25 * b * b)


def mhom_bp_coarse_analytic(tau1, tau2, spectrum: GaussianJointSpectrum,
                            loss: LossParams = LossParams()):
    """Fluctuation-averaged pair rate of the two-delay interferometer.

    The carrier term averages away. Without losses this leaves a ridge at
    zero second delay (three quarters high against the half plateau)
    flanked by two dips to three eighths where the second delay matches
    the first in magnitude. Input-path imbalance only rescales the
    surface; internal-path imbalance ``eta_b`` mixes in a reversed copy
    of the feature terms, so every feature visibility shrinks by
    ``1 - eta_b`` while the plateau stays at ``bp_plateau(loss)``.
    """
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    g = partial(_gauss, 2.0, spectrum.d_omega_minus)
    g2, g_sum, g_diff = g(t2), g(t1 + t2), g(t1 - t2)
    bracket = (
        4.0
        + 2.0 * g2
        - g_sum
        - g_diff
        + loss.eta_b * (-2.0 * g2 + 4.0 * g(t1) + g_sum + g_diff)
    )
    return 0.25 * bp_plateau(loss) * bracket


def mhom_cp_coarse_analytic(tau1, tau2, pulse: CoherentSpectrum,
                            loss: LossParams = LossParams()):
    """Fluctuation-averaged coherent-pulse rate of the two-delay interferometer.

    Without losses the rate is flat at the squared-intensity plateau
    except for two dips of an eighth where the delays match in magnitude,
    and a dip of a quarter at the origin where both Gaussian factors
    overlap. Under losses both imbalances enter: at full input-path
    imbalance the rate loses all dependence on the first delay and keeps
    a single dip in the second delay, scaled by ``1 - eta_b``.
    """
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    eta_a, eta_b = loss.eta_a, loss.eta_b
    e = partial(_gauss, 4.0, pulse.d_omega)
    e1, e2 = e(t1), e(t2)
    d = (e(t1 - t2) + e(t1 + t2)) / 8.0
    bracket = (
        1.0
        - d
        + eta_a * (d - 0.5 * e2)
        + eta_b * (d + 0.5 * e1)
        + eta_a * eta_b * (0.5 * (e2 - e1) - d)
    )
    return cp_plateau(pulse, loss) * bracket


# The averaged forms under their older lossy names, which callers still import.
mhom_bp_loss_coarse = mhom_bp_coarse_analytic
mhom_cp_loss_coarse = mhom_cp_coarse_analytic

# Names the benchmark still reaches through this module, served from
# ``network`` on first use, so that importing ``rates`` does not load it.
_NETWORK_NAMES = ("bp_rate_oracle", "cp_rate_oracle", "pair_grid", "pulse_grid", "transfer_at",
                  "coarse_grain_surface")


def __getattr__(name):
    if name not in _NETWORK_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(".network", __package__), name)
    return value


# ----- Window rules and the regime guard -----


def _node_count(n) -> int:
    """``n`` as an ``int`` count of averaging nodes, from 2 to ``MAX_WINDOW_NODES``."""
    n = whole_number(n, "n", "averaging nodes", 2)
    if n > MAX_WINDOW_NODES:
        raise ValueError(f"need at most {MAX_WINDOW_NODES} averaging nodes, got n = {n}")
    return n


def _window_rules(window: float, n: int):
    """Box and triangle rules, as ``(offsets, weights)``, from one n-point rule.

    Every window average builds its rules here, so this is where its
    arguments are checked: ``window`` must be a positive finite real and
    ``n`` a node count ``_node_count`` takes. The box rule averages over one delay's fluctuation on ``[-W/2, W/2]``.
    The sum or difference of two independent box fluctuations has the
    triangular density ``(W - |y|) / W**2`` on ``[-W, W]``; the n-point
    Gauss-Legendre rule on each half integrates that linear weight exactly.
    """
    window = positive_real(window, "window")
    x, w = np.polynomial.legendre.leggauss(_node_count(n))
    box = ((0.5 * window * x,), 0.5 * w)
    y = 0.5 * window * (1.0 + x)
    half = 0.25 * w * (1.0 - x)
    return box, ((np.concatenate((-y, y)),), np.concatenate((half, half)))


def _rule_average(f, points, offsets, weights):
    """``sum_k weights[k] * f(p + offsets[0][k], q + offsets[1][k], ...)``.

    Evaluated at every element ``(p, q, ...)`` of the broadcast ``points``,
    flattened and cut by ``blockwise`` so that one call of ``f`` sees at
    most ``_BLOCK_POINTS`` points (or one element's nodes, if there are more).
    A single point array (a 1-D axis, or ``tau1 +- tau2`` on a grid) is
    averaged once per distinct value and gathered back to its shape.
    """
    points = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in points))
    flat, gather = [p.ravel() for p in points], None
    if len(flat) == 1:
        flat[0], gather = np.unique(flat[0], return_inverse=True)

    def block(*ps):
        vals = f(*(p[:, None] + x for p, x in zip(ps, offsets)))
        return np.asarray(vals, dtype=float) @ weights

    out = blockwise(block, *flat, entries=max(1, _BLOCK_POINTS // weights.size))
    return (out if gather is None else out[gather]).reshape(points[0].shape)


def window_nodes(n: int | None, window: float, carrier: float, envelope: float) -> int:
    """Averaging nodes for a window, after guarding its regime.

    ``window``, ``carrier`` and ``envelope`` must be positive reals, the
    first two finite; a refusal names the argument. A ``RegimeError``
    names the bound a window breaks: at least twenty carrier radians, at
    most a fifth of the envelope time, so an infinite envelope is a regime
    error. ``n``, a whole number from 2 to ``MAX_WINDOW_NODES``, is
    returned as an ``int``; ``None`` picks the automatic count, refused
    above the cap.
    """
    window, carrier = positive_real(window, "window"), positive_real(carrier, "carrier")
    if not (isinstance(envelope, float) and envelope == math.inf):
        envelope = positive_real(envelope, "envelope")
    if window * carrier < 20.0:
        raise RegimeError(
            "averaging window too short to wash out carrier fringes: "
            f"window * carrier = {window * carrier:.4g} < 20"
        )
    if window * envelope > 0.2:
        raise RegimeError(
            "averaging window wide enough to smear the envelope: "
            f"window * envelope = {window * envelope:.4g} > 0.2"
        )
    if n is None:
        # fastest fringe sweeps 4 * carrier * window radians across the window
        sweep = 2.0 * carrier * window
        need = max(48, math.ceil(sweep) + 16) if math.isfinite(sweep) else math.inf
        if need > MAX_WINDOW_NODES:
            raise ValueError(
                f"window * carrier = {window * carrier:.4g} needs about "
                f"{need:.4g} averaging nodes, more than {MAX_WINDOW_NODES}"
            )
        return need
    return _node_count(n)


# ----- Structured window averages of the two-delay closed forms -----


def _windowed_setup(tau1, tau2, window, model, n):
    """Guard the window, then build the box and triangle rules (``_window_rules``)."""
    n = window_nodes(n, window, model.omega0, model.window_envelope)
    t1 = np.asarray(tau1, dtype=float)
    t2 = np.asarray(tau2, dtype=float)
    if t1.ndim != 1 or t2.ndim != 1:
        raise ValueError("tau1 and tau2 must be 1-D axes")
    return (t1, t2, *_window_rules(window, n))


def mhom_bp_windowed(tau1, tau2, theta: float, spectrum: GaussianJointSpectrum,
                     window: float, *, n: int | None = None) -> np.ndarray:
    """Pair rate of the two-delay interferometer averaged over delay fluctuations.

    The same average as ``network.coarse_grain_surface`` of ``mhom_bp_analytic``
    with carrier ``omega0`` and envelope ``spectrum.window_envelope``: same
    regime guard, same ``RegimeError`` messages, same node count ``n``.
    The rate is averaged term by term, with ``g(x) = exp(-2
    d_omega_minus**2 x**2)`` and ``h(x) = exp(-8 d_omega_plus**2 x**2)
    cos(4 omega0 x + 2 theta)``. Terms in one delay
    are 1-D box averages, the fringe term ``h(tau2) (1 + g(tau1))`` is the
    outer product of two of them, and the terms in ``tau1 +- tau2`` are
    1-D averages under the triangular kernel, each evaluated once per
    distinct ``tau1 +- tau2``, so they cost distinct arguments x 2n rather
    than cells x n**2. Returns the averaged rate on the grid of the 1-D
    axes ``tau1`` x ``tau2``.
    """
    dp, w0 = spectrum.d_omega_plus, spectrum.omega0
    t1, t2, box, triangle = _windowed_setup(tau1, tau2, window, spectrum, n)
    g = partial(_gauss, 2.0, spectrum.d_omega_minus)

    def h(x):
        return _gauss(8.0, dp, x) * np.cos(4.0 * w0 * x + 2.0 * theta)

    bracket = (
        4.0
        + 2.0 * _rule_average(g, (t2,), *box)[None, :]
        - _rule_average(g, (t1[:, None] + t2[None, :],), *triangle)
        - _rule_average(g, (t1[:, None] - t2[None, :],), *triangle)
        + 2.0 * np.outer(1.0 + _rule_average(g, (t1,), *box), _rule_average(h, (t2,), *box))
    )
    return bracket / 8.0


def mhom_cp_windowed(tau1, tau2, theta: float, pulse: CoherentSpectrum,
                     window: float, *, n: int | None = None) -> np.ndarray:
    """Coherent-pulse rate of the two-delay interferometer averaged over delay fluctuations.

    The same average as ``network.coarse_grain_surface`` of ``mhom_cp_analytic``
    with carrier ``omega0`` and envelope ``pulse.window_envelope``: same
    regime guard, same ``RegimeError`` messages, same node count ``n``. It
    averages ``1 - b**2 / 4`` term by term, using

        ``b**2 = cos(A)**2 E(tau1 + tau2) + cos(B)**2 E(tau1 - tau2)
        - [cos(2 theta + 4 omega0 tau2) + cos(4 omega0 tau1)] E(tau1) E(tau2)``

    with ``A = theta + 2 omega0 (tau1 + tau2)``, ``B = theta + 2 omega0
    (tau2 - tau1)`` and ``E(x) = exp(-4 d_omega**2 x**2)``. The first two
    terms are 1-D averages under the triangular kernel and the last two
    are outer products of 1-D box averages. The triangle terms are
    evaluated once per distinct ``tau1 + tau2`` and ``tau2 - tau1``, so
    they cost distinct arguments x 2n rather than cells x n**2. Returns
    the averaged rate on the grid of the 1-D axes ``tau1`` x ``tau2``.
    """
    w0 = pulse.omega0
    a2 = pulse.total_intensity**2
    t1, t2, box, triangle = _windowed_setup(tau1, tau2, window, pulse, n)
    env = partial(_gauss, 4.0, pulse.d_omega)

    def squared_fringe(x):
        # cos(A)**2 E(tau1 + tau2) at x = tau1 + tau2, cos(B)**2 E(tau1 - tau2) at x = tau2 - tau1
        return np.cos(theta + 2.0 * w0 * x) ** 2 * env(x)

    def fringe(phase):
        return lambda x: np.cos(4.0 * w0 * x + phase) * env(x)

    b2 = (
        _rule_average(squared_fringe, (t1[:, None] + t2[None, :],), *triangle)
        + _rule_average(squared_fringe, (t2[None, :] - t1[:, None],), *triangle)
        - np.outer(_rule_average(env, (t1,), *box),
                   _rule_average(fringe(2.0 * theta), (t2,), *box))
        - np.outer(_rule_average(fringe(0.0), (t1,), *box), _rule_average(env, (t2,), *box))
    )
    return a2 * (1.0 - 0.25 * b2)
