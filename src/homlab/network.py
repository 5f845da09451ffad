"""Two-port linear optical elements and frequency-resolved transfer matrices.

An ``OpticalNetwork`` is an ordered chain of elements applied input to
output. ``transfer_at`` multiplies the element matrices at a given
frequency, last element leftmost, so the chain ``(A, B)`` has transfer
``B @ A``. Lossless chains are unitary at every frequency; scalar losses
make the transfer sub-unitary but never amplifying.

Loss amplitudes are frequency-flat scalars. This encodes a white-noise
loss model where each path attenuation is evaluated at the carrier;
frequency-dependent loss profiles are rejected at construction.
"""

from __future__ import annotations

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
    "element_to_dict",
    "element_from_dict",
    "network_to_jsonable",
    "network_from_jsonable",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def validate_amplitude(value, name: str) -> complex:
    """Coerce a loss amplitude to complex, enforcing flat scalars and |amp| <= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise TypeError(
            f"{name} must be a frequency-flat scalar amplitude, got {type(value).__name__}"
        )
    z = complex(value)
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        raise ValueError(f"{name} must be finite")
    if abs(z) > 1.0 + 1e-12:
        raise ValueError(f"{name} must satisfy |amp| <= 1, got |{z}| = {abs(z)}")
    return z


# ----- Elements -----
#
# Every element is diagonal except the splitter, so each one acts on the
# chain's transfer as an in-place update of its two output rows.


class _Element:
    """Behaviour shared by the chain elements."""

    def matrix(self, omega):
        """2x2 transfer matrix of this element alone, broadcast over ``omega``."""
        return transfer_at(OpticalNetwork((self,)), omega)


@dataclass(frozen=True)
class BalancedBS(_Element):
    """Balanced beam splitter, real symmetric convention [[1, 1], [1, -1]]/sqrt(2)."""

    def _update_rows(self, rows, om) -> None:
        r0, r1 = rows
        rows[0], rows[1] = (r0 + r1) * _INV_SQRT2, (r0 - r1) * _INV_SQRT2


@dataclass(frozen=True)
class RelativeDelay(_Element):
    """Push-pull delay stage: port 1 picks up ``exp(-i omega tau)``, port 2 the conjugate."""

    tau: float

    def __post_init__(self) -> None:
        tau = float(self.tau)
        if not np.isfinite(tau):
            raise ValueError("tau must be finite")
        object.__setattr__(self, "tau", tau)

    def _update_rows(self, rows, om) -> None:
        ph = np.exp(-1j * om * self.tau)
        rows[0] *= ph
        rows[1] *= np.conj(ph)


@dataclass(frozen=True)
class AchromaticPhase(_Element):
    """Frequency-independent phase ``exp(i theta)`` on port 2."""

    theta: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not np.isfinite(theta):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)

    def _update_rows(self, rows, om) -> None:
        rows[1] *= np.exp(1j * self.theta)


@dataclass(frozen=True)
class ScalarLoss(_Element):
    """Independent flat attenuation of the two ports, |amp| <= 1 each."""

    amp1: complex
    amp2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp1", validate_amplitude(self.amp1, "amp1"))
        object.__setattr__(self, "amp2", validate_amplitude(self.amp2, "amp2"))

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


def transfer_at(network: OpticalNetwork, omega) -> np.ndarray:
    """Input-to-output transfer matrix of the chain at frequency ``omega``.

    Returns an array of shape ``(2, 2) + shape(omega)``; annihilation
    operators map as ``out = S @ in`` entrywise in frequency. The product
    starts from the identity and each element, input first, updates its
    two rows in place.
    """
    om = np.asarray(omega, dtype=float)
    out = np.zeros((2, 2) + om.shape, dtype=complex)
    out[0, 0] = out[1, 1] = 1.0
    for el in network.elements:
        el._update_rows(out, om)
    return out


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


# ----- JSON-friendly description -----

_TAGS = {
    BalancedBS: "balanced_bs",
    RelativeDelay: "relative_delay",
    AchromaticPhase: "achromatic_phase",
    ScalarLoss: "scalar_loss",
}


def _encode_complex(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _decode_complex(value, name: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"{name} must be a number or a [re, im] pair")
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number or a [re, im] pair")
    return complex(float(value))


def element_to_dict(element) -> dict:
    """Tagged plain-dict form of an element, suitable for JSON."""
    tag = _TAGS.get(type(element))
    if tag is None:
        raise TypeError(f"unsupported network element {type(element).__name__}")
    if isinstance(element, BalancedBS):
        return {"type": tag}
    if isinstance(element, RelativeDelay):
        return {"type": tag, "tau": element.tau}
    if isinstance(element, AchromaticPhase):
        return {"type": tag, "theta": element.theta}
    return {
        "type": tag,
        "amp1": _encode_complex(element.amp1),
        "amp2": _encode_complex(element.amp2),
    }


def element_from_dict(data: dict):
    """Inverse of ``element_to_dict``; unknown tags or stray keys are rejected."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("element description must be a dict with a 'type' tag")
    tag = data["type"]
    extra = set(data) - {"type"}
    if tag == "balanced_bs":
        if extra:
            raise ValueError(f"unexpected keys for balanced_bs: {sorted(extra)}")
        return BalancedBS()
    if tag == "relative_delay":
        if extra != {"tau"}:
            raise ValueError("relative_delay needs exactly the key 'tau'")
        return RelativeDelay(float(data["tau"]))
    if tag == "achromatic_phase":
        if extra != {"theta"}:
            raise ValueError("achromatic_phase needs exactly the key 'theta'")
        return AchromaticPhase(float(data["theta"]))
    if tag == "scalar_loss":
        if extra != {"amp1", "amp2"}:
            raise ValueError("scalar_loss needs exactly the keys 'amp1' and 'amp2'")
        return ScalarLoss(
            _decode_complex(data["amp1"], "amp1"),
            _decode_complex(data["amp2"], "amp2"),
        )
    raise ValueError(f"unknown element type {tag!r}")


def network_to_jsonable(network: OpticalNetwork) -> list:
    return [element_to_dict(el) for el in network.elements]


def network_from_jsonable(items) -> OpticalNetwork:
    if not isinstance(items, (list, tuple)):
        raise ValueError("network description must be a list of tagged elements")
    return OpticalNetwork(tuple(element_from_dict(item) for item in items))
