"""Photon-coincidence models for one- and two-delay interferometers.

The package computes coincidence rates for a balanced two-port
interferometer and its two-delay extension, for an entangled photon-pair
input and for identical coherent pulses. Closed forms live in
``rates`` next to a quadrature oracle that recomputes every rate from
the transfer matrix and the tabulated spectra. ``sensing`` turns
fluctuation-averaged scan curves into recovered path-length offsets,
``qps`` maps two interferometric baselines into an emitter position on a
sphere, and ``figures``/``cli`` generate the standard plot datasets.
"""

from . import network, qps, rates, sensing, spectra
from .spectra import *
from .network import *
from .rates import *
from .sensing import *
from .qps import *
from .figures import FIGURE_PRESETS, build_figure

__version__ = "0.1.0"

__all__ = [
    *spectra.__all__,
    *network.__all__,
    *rates.__all__,
    *sensing.__all__,
    *qps.__all__,
    "FIGURE_PRESETS",
    "build_figure",
]
