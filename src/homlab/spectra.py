"""Source models, row-blocked tabulation and the argument rules of every layer.

Two source models are provided. ``GaussianJointSpectrum`` describes a
frequency-entangled photon pair through a Gaussian joint spectral
amplitude, parameterized by the spreads of the frequency-sum and
frequency-difference variables. ``CoherentSpectrum`` describes a
transform-limited coherent pulse with a Gaussian power spectrum.
``blockwise`` tabulates elementwise formulas in row blocks. The argument
rules (``finite_real``, ``positive_real``, ``whole_number``, ``store_finite``,
``validate_amplitude``) sit in this base module, which imports no other.

All frequencies are angular. The classes are plain value types and all
evaluation methods broadcast over numpy arrays.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianJointSpectrum",
    "CoherentSpectrum",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Output entries per block of ``blockwise``: a block's temporaries (128 KB
# each) stay in cache, while temporaries of a whole table are mapped and
# faulted in again on every call.
_BLOCK_ENTRIES = 1 << 14


# ----- Argument rules -----


def validate_amplitude(value, name: str) -> complex:
    """Coerce a loss amplitude to complex, enforcing flat scalars and |amp| <= 1."""
    # float and complex (numpy's float64 and complex128 among them) first:
    # the numbers ABC checks cost more than the rest of the validation
    if not isinstance(value, (float, complex)) and (
            isinstance(value, bool) or not isinstance(value, numbers.Number)):
        raise TypeError(
            f"{name} must be a frequency-flat scalar amplitude, got {type(value).__name__}"
        )
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite")
    if abs(z) > 1.0 + 1e-12:
        raise ValueError(f"{name} must satisfy |amp| <= 1, got |{z}| = {abs(z)}")
    return z


def finite_real(value, name: str) -> float:
    """``value`` as a finite float; a bool or a value that is not real raises ``TypeError``."""
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def positive_real(value, name: str) -> float:
    """``value`` as a positive finite float: ``finite_real``'s refusals, then any value <= 0."""
    value = finite_real(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def whole_number(value, name: str, unit: str, least: int) -> int:
    """``value`` as an ``int`` count of at least ``least`` ``unit``.

    A bool or a value that is not real raises ``TypeError``; a fraction,
    nan, an infinity or a count below ``least`` raises ``ValueError``. Both
    name the argument. Upper caps stay with callers.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a whole number of {unit}, got {type(value).__name__}")
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number of {unit}, got {value!r}")
    n = int(value)
    if n < least:
        raise ValueError(f"need at least {least} {unit}, got {name} = {n}")
    return n


def store_finite(record, *names: str, rule=finite_real) -> None:
    """Store each named field of a frozen record as the value ``rule`` returns for it."""
    for name in names:
        object.__setattr__(record, name, rule(getattr(record, name), name))


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
        store_finite(self, "omega0", "d_omega_plus", "d_omega_minus", rule=positive_real)

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
        store_finite(self, "omega0", "d_omega", "total_intensity", rule=positive_real)

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
