"""Two-port linear optical elements and frequency-resolved transfer matrices.

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
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .rates import LossParams

__all__ = [
    "BalancedBS",
    "RelativeDelay",
    "AchromaticPhase",
    "ScalarLoss",
    "OpticalNetwork",
    "transfer_at",
    "hom_network",
    "mhom_network",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


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
                 loss: "LossParams | None" = None) -> OpticalNetwork:
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
