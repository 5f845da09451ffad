"""Spectral models for photon-pair and coherent-pulse interferometry.

Two source models are provided. ``GaussianJointSpectrum`` describes a
frequency-entangled photon pair through a Gaussian joint spectral
amplitude, parameterized by the spreads of the frequency-sum and
frequency-difference variables. ``CoherentSpectrum`` describes a
transform-limited coherent pulse with a Gaussian power spectrum.
A small uniform-grid quadrature type, ``FrequencyGrid``, backs the
numerical rate oracles elsewhere in the package.

All frequencies are angular. The classes are plain value types and all
evaluation methods broadcast over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import finite_real, store_finite, whole_number

__all__ = [
    "FrequencyGrid",
    "GaussianJointSpectrum",
    "CoherentSpectrum",
    "make_grid",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Output entries per block of ``blockwise``: a block's temporaries (128 KB
# each) stay in cache, while temporaries of a whole table are mapped and
# faulted in again on every call.
_BLOCK_ENTRIES = 1 << 14


def _require_positive(**values: float) -> None:
    """Refuse any of the named finite floats that is not positive."""
    for name, value in values.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def blockwise(f, *arrays, entries: int = _BLOCK_ENTRIES):
    """Evaluate ``f(*arrays)`` in row blocks into one preallocated output.

    ``f`` must be elementwise in its broadcast arguments. The output has
    their broadcast shape and is filled in blocks along axis 0 of about
    ``entries`` entries; only arguments whose first axis has the full
    length are sliced, so a term in a length-1 axis is still evaluated on
    that axis alone. Each block runs the same expression on a slice, so
    every value keeps its bits. 0-d input returns a ``float``.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    if not shape:
        return float(f(*arrays))
    cut = [np.ndim(a) == len(shape) and np.shape(a)[0] == shape[0] for a in arrays]
    rows = max(1, entries // max(1, math.prod(shape[1:])))
    out = None
    # an empty first axis still makes one call, which gives the output its dtype
    for lo in range(0, max(shape[0], 1), rows):
        block = f(*(a[lo:lo + rows] if c else a for a, c in zip(arrays, cut)))
        if out is None:
            out = np.empty(shape, dtype=np.result_type(block))
        out[lo:lo + rows] = block
    return out


# ----- Quadrature grid -----


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
    center, half_width = finite_real(center, "center"), finite_real(half_width, "half_width")
    _require_positive(half_width=half_width)
    n = whole_number(n, "n", "grid nodes")
    if n < 16:
        raise ValueError(f"need at least 16 grid nodes, got n = {n}")
    nodes = np.linspace(center - half_width, center + half_width, n)
    step = 2.0 * half_width / (n - 1)
    weights = np.full(n, step)
    weights[0] = weights[-1] = 0.5 * step
    return FrequencyGrid(nodes, weights)


# ----- Photon-pair joint spectrum -----


@dataclass(frozen=True)
class GaussianJointSpectrum:
    """Gaussian joint spectral model of a frequency-entangled photon pair.

    ``omega0`` is the carrier frequency of either photon (half the sum
    frequency). ``d_omega_plus`` is the standard deviation of the
    frequency-sum variable and ``d_omega_minus`` that of the
    frequency-difference variable. Strong frequency anticorrelation
    corresponds to ``d_omega_plus`` much smaller than ``d_omega_minus``.

    The joint density integrates to one over the frequency plane and is
    symmetric under exchange of its two arguments.
    """

    omega0: float
    d_omega_plus: float
    d_omega_minus: float

    def __post_init__(self) -> None:
        store_finite(self, "omega0", "d_omega_plus", "d_omega_minus")
        _require_positive(**vars(self))

    @property
    def local_spread(self) -> float:
        """Marginal spectral width of either photon.

        Equals ``sqrt(d_omega_minus**2 + 4 d_omega_plus**2) / 2``. In the
        anticorrelated limit this tends to ``d_omega_minus / 2``, which is
        the width seen by a single detector behind a spectrometer.
        """
        return float(np.sqrt(self.d_omega_minus**2 + 4.0 * self.d_omega_plus**2) / 2.0)

    @property
    def window_envelope(self) -> float:
        """Envelope scale of the two-delay pair rate; an averaging window stays below 0.2 / it."""
        return max(self.d_omega_minus, 2.0 * self.d_omega_plus)

    def joint_density(self, omega, omega_prime):
        """Joint probability density of the pair frequencies.

        Product of a Gaussian in the sum variable (spread
        ``2 d_omega_plus`` around ``2 omega0``) and a Gaussian in the
        difference variable (spread ``d_omega_minus`` around zero),
        normalized so the double integral over the plane is one.

        The arguments broadcast; the table is evaluated in row blocks by
        ``blockwise``, so tabulating an n x n grid peaks at about the
        table plus one block. Scalar arguments return a ``float``.
        """
        dp, dm = self.d_omega_plus, self.d_omega_minus

        def density(w, wp):
            s = w + wp - 2.0 * self.omega0
            d = w - wp
            return (
                np.exp(-(s * s) / (8.0 * dp * dp))
                / (_SQRT_2PI * dp)
                * np.exp(-(d * d) / (2.0 * dm * dm))
                / (_SQRT_2PI * dm)
            )

        return blockwise(density, np.asarray(omega, dtype=float),
                         np.asarray(omega_prime, dtype=float))

    def joint_amplitude(self, omega, omega_prime):
        """Real non-negative joint amplitude, the square root of the density.

        Takes the root of the block-evaluated ``joint_density`` table in
        place, so it adds no second table. Scalar arguments return a ``float``.
        """
        out = self.joint_density(omega, omega_prime)
        if isinstance(out, float):
            return math.sqrt(out)
        return np.sqrt(out, out=out)

    def difference_distribution(self, nu):
        """Density of the frequency-difference variable.

        Marginalizing the joint density over the sum variable leaves a
        centered normal density of standard deviation ``d_omega_minus``.
        """
        x = np.asarray(nu, dtype=float)
        dm = self.d_omega_minus
        out = np.exp(-(x * x) / (2.0 * dm * dm)) / (_SQRT_2PI * dm)
        return out if out.ndim else float(out)


# ----- Coherent pulse spectrum -----


@dataclass(frozen=True)
class CoherentSpectrum:
    """Gaussian spectrum of a coherent pulse.

    ``total_intensity`` is the mean photon number, the integral of the
    squared spectral amplitude. The amplitude itself is chosen real and
    non-negative.
    """

    omega0: float
    d_omega: float
    total_intensity: float = 1.0

    def __post_init__(self) -> None:
        store_finite(self, "omega0", "d_omega", "total_intensity")
        _require_positive(**vars(self))

    @property
    def window_envelope(self) -> float:
        """Envelope scale of the two-delay pulse rate; an averaging window stays below 0.2 / it."""
        return math.sqrt(2.0) * self.d_omega

    def frequency_density(self, omega):
        """Normalized power spectrum: a normal density at ``omega0``."""
        x = np.asarray(omega, dtype=float) - self.omega0
        dw = self.d_omega
        out = np.exp(-(x * x) / (2.0 * dw * dw)) / (_SQRT_2PI * dw)
        return out if out.ndim else float(out)

    def amplitude(self, omega):
        """Real spectral amplitude, normalized to ``total_intensity``."""
        out = np.sqrt(self.total_intensity * np.asarray(self.frequency_density(omega)))
        return out if out.ndim else float(out)
