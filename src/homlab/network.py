"""Two-port optical elements and chains, and the quadrature oracles that integrate them.

An ``OpticalNetwork`` is an ordered chain of elements applied input to
output, so the chain ``(A, B)`` has transfer ``B @ A``. Every element
acts as an in-place update of the two rows of whatever it is applied
to, and ``push_rows`` applies a chain that way, input first:
``transfer_at`` pushes the identity, giving the full transfer at each
frequency, and the pulse oracle pushes the pre-weighted input field
``sqrt(w) alpha`` on both ports (``w`` the quadrature weights), giving
only the two weighted output fields it integrates. Lossless chains are
unitary at every frequency; scalar losses make the transfer
sub-unitary but never amplifying.

Loss amplitudes are frequency-flat scalars. This encodes a white-noise
loss model where each path attenuation is evaluated at the carrier;
frequency-dependent loss profiles are rejected at construction.

The quadrature oracles integrate tabulated spectra on a ``FrequencyGrid``
through any chain, an independent check of the closed forms in ``rates``;
the generic window average of any rate function (``box_average_*``,
``coarse_grain_*``) checks its structured ones. No CLI mode loads this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .rates import LossParams, _rule_average, _window_rules, window_nodes
from .spectra import (CoherentSpectrum, GaussianJointSpectrum, finite_real, positive_real,
                      store_finite, validate_amplitude, whole_number)

__all__ = [
    "BalancedBS",
    "RelativeDelay",
    "AchromaticPhase",
    "ScalarLoss",
    "OpticalNetwork",
    "transfer_at",
    "hom_network",
    "mhom_network",
    "FrequencyGrid",
    "make_grid",
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
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Table entries per row block of the pair oracle's |psi|^2 and Q buffers
# (256 KB for a real table). The blocks bound a call's peak memory whatever
# the table size (test_bp_oracle_peak_memory_stays_below_the_table). Whether
# the buffers are faulted in again on every call depends on the heap state:
# about 95 minor faults per point in a standalone process, none in a
# long-running one such as the benchmark harness.
_ORACLE_BLOCK_ENTRIES = 1 << 15


# ----- Elements -----
#
# Every element is diagonal except the splitter, so each one acts as an
# in-place update of the two rows of an array of shape (2, ..., n): the
# rows of a transfer matrix, or the two fields of a pushed input.


@dataclass(frozen=True)
class BalancedBS:
    """Balanced beam splitter, real symmetric convention [[1, 1], [1, -1]]/sqrt(2)."""

    def _update_rows(self, rows, om) -> None:
        # indexing the two rows costs far less than unpacking the array
        r0, r1 = rows[0], rows[1]
        total = r0 + r1
        np.subtract(r0, r1, out=r1)
        r0[...] = total
        rows *= _INV_SQRT2


@dataclass(frozen=True)
class RelativeDelay:
    """Push-pull delay stage: port 1 picks up ``exp(-i omega tau)``, port 2 the conjugate."""

    tau: float

    def __post_init__(self) -> None:
        store_finite(self, "tau")

    def _update_rows(self, rows, om) -> None:
        # exp(i omega tau) from the real cos and sin of omega tau, which cost
        # about half of a complex exp of the same phases
        x = self.tau * om
        ph = np.empty(x.shape, dtype=complex)
        np.cos(x, out=ph.real)
        np.sin(x, out=ph.imag)
        rows[1] *= ph
        rows[0] *= np.conjugate(ph, out=ph)


@dataclass(frozen=True)
class AchromaticPhase:
    """Frequency-independent phase ``exp(i theta)`` on port 2."""

    theta: float

    def __post_init__(self) -> None:
        store_finite(self, "theta")

    def _update_rows(self, rows, om) -> None:
        rows[1] *= cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class ScalarLoss:
    """Independent flat attenuation of the two ports, |amp| <= 1 each."""

    amp1: complex
    amp2: complex

    def __post_init__(self) -> None:
        store_finite(self, "amp1", "amp2", rule=validate_amplitude)

    def _update_rows(self, rows, om) -> None:
        rows[0] *= self.amp1
        rows[1] *= self.amp2


_ELEMENT_TYPES = (BalancedBS, RelativeDelay, AchromaticPhase, ScalarLoss)


# ----- Network -----


@dataclass(frozen=True)
class OpticalNetwork:
    """Ordered element chain, first element closest to the sources."""

    elements: tuple

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        for el in elements:
            if not isinstance(el, _ELEMENT_TYPES):
                raise TypeError(f"unsupported network element {type(el).__name__}")
        object.__setattr__(self, "elements", elements)


def push_rows(network: OpticalNetwork, rows: np.ndarray, om: np.ndarray) -> np.ndarray:
    """Apply the chain, input first, to ``rows`` of shape ``(2, ..., n)`` in place.

    ``rows[i]`` holds output port ``i``; ``om`` (shape ``(n,)`` or
    broadcast against the trailing axes) is the frequency of each column.
    """
    for el in network.elements:
        el._update_rows(rows, om)
    return rows


def transfer_at(network: OpticalNetwork, omega) -> np.ndarray:
    """Input-to-output transfer matrix of the chain at frequency ``omega``.

    Returns an array of shape ``(2, 2) + shape(omega)``; annihilation
    operators map as ``out = S @ in`` entrywise in frequency. It is the
    identity pushed through the chain.
    """
    om = np.asarray(omega, dtype=float)
    out = np.zeros((2, 2) + om.shape, dtype=complex)
    out[0, 0] = out[1, 1] = 1.0
    return push_rows(network, out, om)


def hom_network(tau: float) -> OpticalNetwork:
    """Standard two-photon interferometer: push-pull delay, then a balanced splitter."""
    return OpticalNetwork((RelativeDelay(tau), BalancedBS()))


def mhom_network(tau1: float, tau2: float, theta: float,
                 loss: LossParams | None = None) -> OpticalNetwork:
    """Two-delay interferometer: delay, splitter, delay, achromatic phase, splitter.

    With ``loss`` given, flat attenuations are inserted before each delay
    stage: the pair ``(xi1, xi2)`` on the input paths and ``(chi1, chi2)``
    on the internal paths between the splitters.
    """
    chain: list = []
    if loss is not None:
        chain.append(ScalarLoss(loss.xi1, loss.xi2))
    chain.append(RelativeDelay(tau1))
    chain.append(BalancedBS())
    if loss is not None:
        chain.append(ScalarLoss(loss.chi1, loss.chi2))
    chain.append(RelativeDelay(tau2))
    chain.append(AchromaticPhase(theta))
    chain.append(BalancedBS())
    return OpticalNetwork(tuple(chain))


# ----- Quadrature grids -----


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid with trapezoid quadrature weights.

    The weights sum to the grid span, so ``integrate`` approximates the
    integral of a tabulated function over ``[nodes[0], nodes[-1]]``.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size < 16:
            raise ValueError(f"grid needs at least 16 nodes, got {nodes.size}")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("grid nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValueError("grid weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> float | complex:
        """Quadrature sum of values tabulated on the nodes (last axis)."""
        out = np.tensordot(np.asarray(values), self.weights, axes=([-1], [0]))
        if np.ndim(out):
            return out
        return complex(out) if np.iscomplexobj(out) else float(out)


def make_grid(center: float, half_width: float, n: int = 257) -> FrequencyGrid:
    """Build a uniform trapezoid grid over ``center +- half_width``.

    ``n`` is the node count; at least 16 nodes are required. For smooth
    integrands that decay inside the window (Gaussians sampled out to
    several standard deviations) the trapezoid rule on this grid is
    accurate to the truncated tail mass.
    """
    center, half_width = finite_real(center, "center"), positive_real(half_width, "half_width")
    n = whole_number(n, "n", "grid nodes", 16)
    nodes = np.linspace(center - half_width, center + half_width, n)
    step = 2.0 * half_width / (n - 1)
    weights = np.full(n, step)
    weights[0] = weights[-1] = 0.5 * step
    return FrequencyGrid(nodes, weights)


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

    ``mixture`` is a sequence of ``(weight, alpha)`` entries, each ``alpha``
    tabulated on the grid and fed identically to both inputs, and each
    weight a positive finite real (``mixture[i] weight`` when refused); the
    weights sum to one. The rate is the weighted sum of each component's
    ``cp_rate_oracle`` on ``mhom_network(tau1, tau2, theta)``. A component's
    rate is its squared intensity minus a squared interference overlap, so
    the total is strictly positive at zero delays for any mixture. ``tau1``,
    ``tau2`` and ``theta`` must be finite real numbers.
    """
    tau1, tau2 = finite_real(tau1, "tau1"), finite_real(tau2, "tau2")
    theta = finite_real(theta, "theta")
    items = list(mixture)
    if not items:
        raise ValueError("mixture must contain at least one component")
    weights = np.array([positive_real(wk, f"mixture[{i}] weight")
                        for i, (wk, _) in enumerate(items)])
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {weights.sum():.12g}")
    net = mhom_network(tau1, tau2, theta)
    return float(sum(float(wk) * cp_rate_oracle(alpha, grid, net) for wk, alpha in items))


# ----- Generic window average -----


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
