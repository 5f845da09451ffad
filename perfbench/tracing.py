"""Spans and counts recorded around the calls into each homlab layer.

The wrappers are installed from outside the package: each public
function is replaced where it is *bound*, because the modules import
names with ``from .x import y`` (``homlab.cli.surface_csv``,
``homlab.sensing.find_extrema`` and ``homlab.qps.find_extrema``,
``homlab.rates.transfer_at``, ...). Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op]``: the span name
``<layer>.<what>``, ``time.monotonic()`` stamps (CLOCK_MONOTONIC, so
stamps from a traced child line up with the parent's), the index of the
enclosing span or ``None``, and the op id. Spans stay in memory and are
written out once, at the end.
"""

from __future__ import annotations

import functools
import os
import pathlib
import time
from contextlib import contextmanager

LAYERS = ("spectra", "network", "rates", "sensing", "qps", "figures", "cli")

CLOSED_FORMS = (
    "hom_bp_analytic",
    "hom_cp_analytic",
    "hom_cp_coarse_analytic",
    "mhom_bp_analytic",
    "mhom_cp_analytic",
    "mhom_bp_coarse_analytic",
    "mhom_cp_coarse_analytic",
    "mhom_bp_loss_coarse",
    "mhom_cp_loss_coarse",
)


class Tracer:
    """In-memory span and count recorder with attribute patching."""

    def __init__(self, op=None):
        self.op = op
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span and counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----- counters -----


def _size(value) -> int:
    # numpy arrays carry .size; scalar results count as one point
    return int(getattr(value, "size", 1))


def _count_closed_form(tracer, args, kwargs, out):
    points = _size(out)
    tracer.add("rates.closed_form_points", points)
    if tracer.inside("rates.box_average"):
        tracer.add("rates.box_average_evals", points)


def _count_box_cells(tracer, args, kwargs, out):
    tracer.add("rates.box_average_cells", _size(out))


def _count_curve(tracer, args, kwargs, out):
    tracer.add("cli.values_formatted", 2 * args[0].axis.size)


def _count_surface(tracer, args, kwargs, out):
    surface = args[0]
    tracer.add("cli.values_formatted", 3 * surface.tau1_axis.size * surface.tau2_axis.size)


def _count_replace(tracer, args, kwargs, out):
    tracer.add("cli.files_written", 1)
    tracer.add("cli.bytes_written", os.stat(args[1]).st_size)


def _count_extract(tracer, args, kwargs, out):
    tracer.add("sensing.samples", args[0].axis.size)


def _count_bp_oracle(tracer, args, kwargs, out):
    tracer.add("rates.oracle_calls", 1)
    tracer.add("rates.oracle_cells", args[1].size ** 2)


def _count_cp_oracle(tracer, args, kwargs, out):
    tracer.add("rates.oracle_calls", 1)
    tracer.add("rates.oracle_cells", args[1].size)


def _count_transfer(tracer, args, kwargs, out):
    tracer.add("network.element_evals", len(args[0].elements) * _size(args[1]))


# ----- installation -----


def _patch_rates_users(tracer, modules) -> None:
    for module in modules:
        for name in CLOSED_FORMS:
            if hasattr(module, name):
                tracer.patch(module, name, "rates.closed_form", _count_closed_form)
        for name in ("sample_curve", "sample_surface"):
            if hasattr(module, name):
                tracer.patch(module, name, "rates.sample")


def install_cli(tracer: Tracer) -> None:
    """Wrap everything a ``homlab run``/``homlab figure`` process reaches."""
    import homlab.cli as cli
    import homlab.figures as figures
    import homlab.qps as qps
    import homlab.sensing as sensing

    tracer.patch(cli, "run_scenario", "cli.run")
    tracer.patch(cli, "run_figure", "cli.run")
    tracer.patch(cli, "curve_csv", "cli.format", _count_curve)
    tracer.patch(cli, "surface_csv", "cli.format", _count_surface)
    # file write and rename, timed at the stdlib boundary
    tracer.patch(pathlib.Path, "write_text", "cli.write")
    tracer.patch(os, "replace", "cli.write", _count_replace)
    tracer.patch(cli, "build_figure", "figures.build")
    tracer.patch(cli, "run_sensing", "sensing.run")
    tracer.patch(sensing, "scan_f", "sensing.scan")
    tracer.patch(sensing, "find_extrema", "sensing.extract", _count_extract)
    tracer.patch(qps, "find_extrema", "sensing.extract", _count_extract)
    tracer.patch(cli, "qps_scan", "qps.scan")
    tracer.patch(cli, "coarse_grain_surface", "rates.box_average", _count_box_cells)
    _patch_rates_users(tracer, (cli, figures, sensing, qps))


def install_library(tracer: Tracer) -> None:
    """Wrap the oracle path: tabulation, chain construction, transfer, quadrature."""
    import homlab.network as network
    import homlab.rates as rates
    import homlab.spectra as spectra

    tracer.patch(rates, "pair_grid", "spectra.tabulate")
    tracer.patch(rates, "pulse_grid", "spectra.tabulate")
    tracer.patch(spectra.GaussianJointSpectrum, "joint_amplitude", "spectra.tabulate")
    tracer.patch(spectra.CoherentSpectrum, "amplitude", "spectra.tabulate")
    tracer.patch(network, "hom_network", "network.chain_build")
    tracer.patch(network, "mhom_network", "network.chain_build")
    tracer.patch(rates, "bp_rate_oracle", "rates.oracle", _count_bp_oracle)
    tracer.patch(rates, "cp_rate_oracle", "rates.oracle", _count_cp_oracle)
    tracer.patch(rates, "transfer_at", "network.transfer", _count_transfer)


# ----- self times -----


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out
