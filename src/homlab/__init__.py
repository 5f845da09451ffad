"""Photon-coincidence models for one- and two-delay interferometers.

The package computes coincidence rates for a balanced two-port
interferometer and its two-delay extension, for an entangled photon-pair
input and for identical coherent pulses. Closed forms and window averages
live in ``rates``; ``network`` holds the interferometer chains and the
references: a quadrature oracle on their transfer matrices and a generic
window average. ``sensing`` turns averaged scan curves into recovered
path-length offsets, ``qps`` maps two interferometric baselines into an
emitter position on a sphere, and ``figures``/``cli`` generate plot datasets.

Submodules load on first use: ``import homlab`` imports neither numpy nor
any of them, and a name of ``__all__`` loads the modules up to the one that
exports it, in the order below.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it (None: all of its __all__)
_EXPORTS = {
    "spectra": None,
    "rates": None,
    "network": None,
    "sensing": None,
    "qps": None,
    "figures": ("FIGURE_PRESETS", "build_figure"),
}


def _exports():
    """Each exporting module with its exported names, imported one at a time."""
    for name, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{name}")
        yield module, module.__all__ if names is None else names


def __getattr__(name):
    if name == "__all__":
        value = [export for _, names in _exports() for export in names]
    elif name in _EXPORTS or name == "cli":  # ``from homlab import cli`` asks here first
        return import_module(f"{__name__}.{name}")
    else:
        module = next((module for module, names in _exports() if name in names), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__getattr__("__all__")})
