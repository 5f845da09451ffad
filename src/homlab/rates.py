"""Coincidence-rate models for standard and two-delay interferometers.

Three layers live here and deliberately stay independent of each other:

* quadrature oracles (``bp_rate_oracle``, ``cp_rate_oracle``) that compute
  coincidence rates by direct numerical integration over tabulated
  spectra and an arbitrary two-port network,
* Gaussian closed forms for the photon-pair (``bp``) and coherent-pulse
  (``cp``) inputs of the standard single-delay and the two-delay
  interferometer,
* coarse-graining of fast delay fluctuations by sliding-box averaging
  (a generic rule for any rate function, and term-by-term averages of
  the two exact two-delay forms), together with the closed forms of the
  averaged rates under flat path losses; the lossless interferometer is
  ``LossParams()``, every amplitude one.

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

import numpy as np

from .network import (
    OpticalNetwork,
    finite_real,
    mhom_network,
    positive_real,
    push_rows,
    store_finite,
    transfer_at,
    validate_amplitude,
    whole_number,
)
from .spectra import (
    CoherentSpectrum,
    FrequencyGrid,
    GaussianJointSpectrum,
    blockwise,
    make_grid,
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
    "pair_grid",
    "pulse_grid",
    "bp_rate_oracle",
    "bp_rate_oracle_batch",
    "cp_rate_oracle",
    "cp_rate_oracle_batch",
    "cl_s_rate",
    "box_average_curve",
    "box_average_surface",
    "coarse_grain_curve",
    "coarse_grain_surface",
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

# Table entries per row block of the pair oracle's |psi|^2 and Q buffers
# (256 KB for a real table). The blocks bound a call's peak memory whatever
# the table size (test_bp_oracle_peak_memory_stays_below_the_table). Whether
# the buffers are faulted in again on every call depends on the heap state:
# about 95 minor faults per point in a standalone process, none in a
# long-running one such as the benchmark harness.
_ORACLE_BLOCK_ENTRIES = 1 << 15


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


def hom_bp_analytic(tau, spectrum: GaussianJointSpectrum):
    """Pair-coincidence rate of the standard interferometer.

    Rises from an exact zero at zero delay to the plateau of one half on
    the time scale set by the frequency-difference spread. The carrier
    and the sum spread drop out entirely.
    """
    t = np.asarray(tau, dtype=float)
    dm = spectrum.d_omega_minus
    return 0.5 * (1.0 - np.exp(-2.0 * dm * dm * t * t))


def hom_cp_analytic(tau, pulse: CoherentSpectrum):
    """Coincidence rate of the standard interferometer fed by identical pulses.

    Oscillates at twice the carrier under a Gaussian envelope and touches
    zero whenever the carrier phase does; the plateau is the squared
    pulse intensity.
    """
    t = np.asarray(tau, dtype=float)
    w0, dw = pulse.omega0, pulse.d_omega
    a2 = pulse.total_intensity**2
    return a2 * (1.0 - np.cos(2.0 * w0 * t) ** 2 * np.exp(-4.0 * dw * dw * t * t))


def hom_cp_coarse_analytic(tau, pulse: CoherentSpectrum):
    """Fluctuation-averaged coherent-pulse rate: a dip to half the plateau."""
    t = np.asarray(tau, dtype=float)
    dw = pulse.d_omega
    a2 = pulse.total_intensity**2
    return a2 * (1.0 - 0.5 * np.exp(-4.0 * dw * dw * t * t))


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
    dm, dp, w0 = spectrum.d_omega_minus, spectrum.d_omega_plus, spectrum.omega0

    def g(x):
        return np.exp(-2.0 * dm * dm * x * x)

    bracket = (
        4.0
        + 2.0 * g(t2)
        - g(t1 + t2)
        - g(t1 - t2)
        + 2.0
        * np.exp(-8.0 * dp * dp * t2 * t2)
        * (1.0 + g(t1))
        * np.cos(4.0 * t2 * w0 + 2.0 * theta)
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
    w0, dw = pulse.omega0, pulse.d_omega
    a2 = pulse.total_intensity**2

    def e(x):
        return np.exp(-2.0 * dw * dw * x * x)

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
    dm = spectrum.d_omega_minus

    def g(x):
        return np.exp(-2.0 * dm * dm * x * x)

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
    dw = pulse.d_omega
    eta_a, eta_b = loss.eta_a, loss.eta_b

    def e(x):
        return np.exp(-4.0 * dw * dw * x * x)

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


# ----- Oracle grids -----


def _resolved_nodes(half_width: float, tau_max: float, n: int | None) -> int:
    """Node count resolving phases up to ``2 tau_max`` across the grid.

    A given ``n`` is returned as it came, for ``make_grid`` to check.
    """
    if n is not None:
        return n
    base = 257
    if tau_max > 0.0:
        # keep at least 16 samples per period of exp(2 i omega tau_max)
        need = int(math.ceil(32.0 * half_width * tau_max / math.pi)) + 1
        if need > base:
            base = need if need % 2 == 1 else need + 1
    return base


def pair_grid(spectrum: GaussianJointSpectrum, tau_max: float = 4.0,
              n: int | None = None) -> FrequencyGrid:
    """Quadrature grid sized for a pair spectrum and a maximum delay.

    Spans six marginal widths around the carrier, which also covers six
    widths of the difference variable along the anti-diagonal. The node
    count grows with ``tau_max`` so delay phases stay resolved.
    ``tau_max`` must be a finite real number (a negative one means its
    magnitude); a given ``n`` must be a whole number, as ``make_grid``
    requires. Either is named when refused.
    """
    half_width = 6.0 * spectrum.local_spread
    return make_grid(spectrum.omega0, half_width,
                     _resolved_nodes(half_width, abs(finite_real(tau_max, "tau_max")), n))


def pulse_grid(pulse: CoherentSpectrum, tau_max: float = 4.0,
               n: int | None = None) -> FrequencyGrid:
    """Quadrature grid sized for a pulse spectrum and a maximum delay.

    Six pulse widths around the carrier; ``tau_max`` and ``n`` are checked
    as in ``pair_grid``.
    """
    half_width = 6.0 * pulse.d_omega
    return make_grid(pulse.omega0, half_width,
                     _resolved_nodes(half_width, abs(finite_real(tau_max, "tau_max")), n))


# ----- Quadrature oracles -----


def _real_or_complex(values) -> np.ndarray:
    """A tabulated table as a float array, or a complex one if it is complex."""
    values = np.asarray(values)
    return values.astype(complex if np.iscomplexobj(values) else float, copy=False)


def _column_dots(x, y):
    return np.add.reduce(x * y, axis=0)


def _chains(networks) -> tuple:
    """The batch as a non-empty tuple of chains; a bad entry is named by index."""
    nets = tuple(networks)
    if not nets:
        raise ValueError("networks must hold at least one chain")
    for i, net in enumerate(nets):
        if not isinstance(net, OpticalNetwork):
            raise TypeError(f"networks[{i}] must be an OpticalNetwork, got {type(net).__name__}")
    return nets


def bp_rate_oracle_batch(amplitude: np.ndarray, grid: FrequencyGrid, networks) -> np.ndarray:
    """Pair-coincidence rate of each chain in ``networks``, by direct double quadrature.

    ``amplitude`` is the joint spectral amplitude tabulated on
    ``grid x grid`` and must be normalized to one there. The two-photon
    component reaching distinct detectors carries the amplitude

        ``amp(w, w') S11(w) S22(w') + amp(w', w) S12(w) S21(w')``

    and the rate is the double integral of its squared modulus. The
    expression needs no unitarity, so lossy chains are handled by the
    same projection: terms with an absorbed photon cannot produce a
    coincidence.

    Expanding the square leaves two direct terms weighted by
    ``P = |amp|^2`` and a cross term weighted by ``Q = amp * conj(amp^T)``.
    The k chains share ``P``, ``Q`` and the normalization ``w . P . w``.
    Each chain's transfer is weighted by ``sqrt(w)`` once, so that every
    product of two of its entries carries the quadrature weight ``w``.
    Neither ``P`` nor ``Q`` is formed whole: the table is read in blocks of
    rows, and each block of ``P`` and of ``Q`` is written into one of two
    buffers allocated once per call (about ``_ORACLE_BLOCK_ENTRIES``
    entries each), then multiplied into an n x (1 + 2k) and an n x 2k
    result. Besides the table, a call holds those two buffers and about
    190 n k bytes of chain operands: a 1025-node call of one chain peaks
    below a quarter of its table. A real table is never made complex.
    The chain operands grow with k, so very large batches are best passed
    in blocks. Nothing is cached between calls.
    """
    psi = _real_or_complex(amplitude)
    n = grid.size
    if psi.shape != (n, n):
        raise ValueError(f"amplitude must be tabulated on the full grid, expected {(n, n)}, got {psi.shape}")
    nets = _chains(networks)
    w = grid.weights
    k = len(nets)
    s = np.empty((2, 2, n, k), dtype=complex)
    for j, net in enumerate(nets):
        s[..., j] = transfer_at(net, grid.nodes)
    # weight every entry by sqrt(w), so that a product of two carries w
    s *= np.sqrt(w)[:, None]
    u = s[0, 0] * np.conj(s[0, 1])
    v = s[1, 1] * np.conj(s[1, 0])
    # then w |S|^2 from the squared interleaved parts, squared in place
    sq = s.view(float)
    np.square(sq, out=sq)
    s2 = sq[..., ::2] + sq[..., 1::2]
    real = not np.iscomplexobj(psi)
    # P maps the normalization column w and the direct columns; a real Q
    # maps the interleaved real and imaginary parts of v alike
    p_cols = np.concatenate((w[:, None], s2[1, 1], s2[0, 1]), axis=1)
    q_cols = v.view(float) if real else v
    pw = np.empty((n, 1 + 2 * k))
    qv = np.empty(q_cols.shape, dtype=psi.dtype)
    rows = max(1, min(n, _ORACLE_BLOCK_ENTRIES // n))
    p_buf = np.empty((rows, n))
    q_buf = np.empty((rows, n), dtype=psi.dtype)
    # a nan or inf entry fails the norm check below; its block products
    # (inf * 0) must not warn before that
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            blk, pb, qb = psi[lo:hi], p_buf[:hi - lo], q_buf[:hi - lo]
            if real:
                np.multiply(blk, blk, out=pb)
                np.multiply(blk, psi[:, lo:hi].T, out=qb)
            else:
                # |z|^2 as re^2 + im^2, with the real part of Q's buffer as scratch
                np.square(blk.real, out=pb)
                pb += np.square(blk.imag, out=qb.real)
                np.conjugate(psi[:, lo:hi].T, out=qb)
                qb *= blk
            np.matmul(pb, p_cols, out=pw[lo:hi])
            np.matmul(qb, q_cols, out=qv[lo:hi])
    norm = float(w @ pw[:, 0])
    # written so that a nan or inf norm fails too
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"joint amplitude must be normalized on the grid, got norm {norm:.8g}")
    direct = _column_dots(s2[0, 0], pw[:, 1:1 + k]) + _column_dots(s2[1, 0], pw[:, 1 + k:])
    cross = _column_dots(u, qv.view(complex) if real else qv).real
    return direct + 2.0 * cross


def bp_rate_oracle(amplitude: np.ndarray, grid: FrequencyGrid,
                   network: OpticalNetwork) -> float:
    """Pair-coincidence rate of one chain: ``bp_rate_oracle_batch`` of one."""
    return float(bp_rate_oracle_batch(amplitude, grid, (network,))[0])


def cp_rate_oracle_batch(alpha: np.ndarray, grid: FrequencyGrid, networks) -> np.ndarray:
    """Coincidence rate of each chain for identical coherent amplitudes on both inputs.

    The outputs stay coherent with amplitudes ``(Si1 + Si2) alpha``, so
    the coincidence rate is the product of the two output intensities.
    Feeding the two ports differently is outside this model, which is why
    the signature accepts a single tabulated amplitude. Each chain pushes
    the pre-weighted input field ``sqrt(w) alpha`` on both ports through
    its elements, where ``w`` are the grid's positive quadrature weights.
    The elements act linearly, frequency by frequency, so every output
    field carries the factor ``sqrt(w)``, and each output intensity is the
    plain sum of its field's squared real and imaginary parts. The pushed
    fields take 32 n bytes per chain, so very large batches are best
    passed in blocks.
    """
    a = _real_or_complex(alpha)
    n = grid.size
    if a.shape != (n,):
        raise ValueError(f"alpha must be tabulated on the grid, expected {(n,)}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("alpha must be finite")
    nets = _chains(networks)
    om = grid.nodes
    fields = np.empty((len(nets), 2, n), dtype=complex)
    fields[...] = np.sqrt(grid.weights) * a
    for j, net in enumerate(nets):
        push_rows(net, fields[j], om)
    # each output intensity: one sum of the squared interleaved real and
    # imaginary parts of its weighted field, squared in place
    sq = fields.view(float)
    n12 = np.add.reduce(np.square(sq, out=sq), axis=-1)
    return n12[:, 0] * n12[:, 1]


def cp_rate_oracle(alpha: np.ndarray, grid: FrequencyGrid,
                   network: OpticalNetwork) -> float:
    """Coherent-pulse coincidence rate of one chain: ``cp_rate_oracle_batch`` of one."""
    return float(cp_rate_oracle_batch(alpha, grid, (network,))[0])


def cl_s_rate(mixture, grid: FrequencyGrid, tau1: float, tau2: float,
              theta: float) -> float:
    """Two-delay rate for a statistical mixture of symmetric pulse pairs.

    ``mixture`` is a sequence of ``(weight, alpha)`` entries with positive
    weights summing to one, each ``alpha`` tabulated on the grid and fed
    identically to both inputs. The rate is the weighted sum of each
    component's ``cp_rate_oracle`` on ``mhom_network(tau1, tau2, theta)``.
    A component's rate is its squared intensity minus a squared
    interference overlap, so the total is strictly positive at zero delays
    for any mixture. ``tau1``, ``tau2`` and ``theta`` must be finite real
    numbers.
    """
    tau1, tau2 = finite_real(tau1, "tau1"), finite_real(tau2, "tau2")
    theta = finite_real(theta, "theta")
    items = list(mixture)
    if not items:
        raise ValueError("mixture must contain at least one component")
    weights = np.array([float(wk) for wk, _ in items])
    if np.any(weights <= 0.0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {weights.sum():.12g}")
    net = mhom_network(tau1, tau2, theta)
    return float(sum(float(wk) * cp_rate_oracle(alpha, grid, net) for wk, alpha in items))


# ----- Coarse graining -----


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


def _box_average(f, points, window: float, n: int):
    """Mean of ``f`` over a box of width ``window`` around each point, per axis."""
    ((x,), w), _ = _window_rules(window, n)
    # the tensor product of the 1-D rule, one factor per axis
    nodes = np.meshgrid(*[x] * len(points), indexing="ij")
    weights = np.prod(np.meshgrid(*[w] * len(points), indexing="ij"), axis=0)
    out = _rule_average(f, points, [g.ravel() for g in nodes], weights.ravel())
    return out if out.ndim else float(out)


def box_average_curve(rate, tau, window: float, n: int = 129):
    """Plain sliding-box average of a rate function, no regime policy.

    Averages ``rate`` over ``[tau - window/2, tau + window/2]`` with an
    ``n``-point Gauss-Legendre rule; ``n`` above half the phase swept by
    the fastest fringe across the window gives near-exact averages.
    ``window`` must be a positive finite real and ``n`` a whole number
    from 2 to ``MAX_WINDOW_NODES``; other values raise an error naming
    the argument.
    """
    return _box_average(rate, (tau,), window, n)


def box_average_surface(rate2, tau1, tau2, window: float, n: int = 129):
    """Two-axis sliding-box average of a two-delay rate function.

    Same rule and same argument checks as ``box_average_curve``, on both axes.
    """
    return _box_average(rate2, (tau1, tau2), window, n)


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


def coarse_grain_curve(rate, tau, window: float, *, carrier: float,
                       envelope: float, n: int | None = None):
    """Average a rate function of one delay over its fluctuations of width ``window``.

    Outside the regime ``window_nodes`` guards, the average would either
    keep carrier fringes or wash out the envelope, so the call is rejected
    with a ``RegimeError`` naming the violated bound. ``n`` (at least 2)
    overrides the automatic Gauss-Legendre node count.
    """
    n = window_nodes(n, window, carrier, envelope)
    if not callable(rate):
        raise TypeError("rate must be callable on tau")
    return box_average_curve(rate, tau, window, n=n)


def coarse_grain_surface(rate2, tau1, tau2, window: float, *, carrier: float,
                         envelope: float, n: int | None = None):
    """Average a two-delay rate over independent fluctuations of both delays.

    Both delays jitter with the same window. Averaging over the pair is
    what removes every cross fringe; a single-axis average would leave
    carrier terms in the other delay untouched. Same regime bounds as
    ``coarse_grain_curve``.
    """
    n = window_nodes(n, window, carrier, envelope)
    if not callable(rate2):
        raise TypeError("rate2 must be callable on (tau1, tau2)")
    return box_average_surface(rate2, tau1, tau2, window, n=n)


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

    The same average as ``coarse_grain_surface`` of ``mhom_bp_analytic``
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
    dm, dp, w0 = spectrum.d_omega_minus, spectrum.d_omega_plus, spectrum.omega0
    t1, t2, box, triangle = _windowed_setup(tau1, tau2, window, spectrum, n)

    def g(x):
        return np.exp(-2.0 * dm * dm * x * x)

    def h(x):
        return np.exp(-8.0 * dp * dp * x * x) * np.cos(4.0 * w0 * x + 2.0 * theta)

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

    The same average as ``coarse_grain_surface`` of ``mhom_cp_analytic``
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
    w0, dw = pulse.omega0, pulse.d_omega
    a2 = pulse.total_intensity**2
    t1, t2, box, triangle = _windowed_setup(tau1, tau2, window, pulse, n)

    def env(x):
        return np.exp(-4.0 * dw * dw * x * x)

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
