"""The ROADMAP baseline rows, re-measured in every traced run.

Each row is a fixed input that does not depend on the seed, timed in
the benchmark process (or as a subprocess for the preset runs) with
``time.monotonic`` and reported as a per-layer number named
``baseline.*``. Best-of-N for the sub-second in-process rows, one
timing for the multi-second ones, median of three for subprocesses.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

_REPEATS = 3


def _best(fn, repeats: int = _REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        fn()
        times.append(time.monotonic() - t0)
    return min(times)


def baseline_rows(workdir: Path, env: dict) -> dict:
    """Time every baseline row; returns ``{metric: seconds}``."""
    from homlab import cli, network, rates
    from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum

    pair = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
    pulse = CoherentSpectrum(omega0=5.0, d_omega=0.5)
    rows = {}

    axis = np.linspace(-3.0, 3.0, 1001)
    a, b = axis[:, None], axis[None, :]
    rows["baseline.mhom_bp_analytic_1001_s"] = _best(
        lambda: rates.mhom_bp_analytic(a, b, np.pi / 2, pair))
    rows["baseline.mhom_cp_analytic_1001_s"] = _best(
        lambda: rates.mhom_cp_analytic(a, b, np.pi / 2, pulse))

    big = rates.sample_surface(lambda x, y: rates.mhom_bp_analytic(x, y, np.pi / 2, pair),
                               axis, axis, rates.bp_plateau())
    rows["baseline.surface_csv_1001_s"] = _best(lambda: cli.surface_csv(big), 1)
    small_axis = np.linspace(-3.0, 3.0, 121)
    small = rates.sample_surface(lambda x, y: rates.mhom_bp_analytic(x, y, 0.0, pair),
                                 small_axis, small_axis, rates.bp_plateau())
    rows["baseline.surface_csv_121_s"] = _best(lambda: cli.surface_csv(small))
    del big

    # the split 501^2 run: compute, format and write inside one run_scenario
    config = {"version": 1, "mode": "mhom", "source": "bp",
              "spectrum": {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0},
              "theta": "pi/2", "tau1": {"min": -3.0, "max": 3.0, "n": 501},
              "tau2": {"min": -3.0, "max": 3.0, "n": 501}}
    tracer = tracing.Tracer(op="baseline")
    tracing.install_cli(tracer)
    try:
        cli.run_scenario(config, workdir / "split501")
    finally:
        tracer.uninstall()
    shutil.rmtree(workdir / "split501", ignore_errors=True)
    split = {"rates.sample": 0.0, "cli.format": 0.0, "cli.write": 0.0}
    for name, start, end, _, _ in tracer.spans:
        if name in split:
            split[name] += end - start
    rows["baseline.run_501_compute_s"] = split["rates.sample"]
    rows["baseline.run_501_format_s"] = split["cli.format"]
    rows["baseline.run_501_write_s"] = split["cli.write"]

    grid = rates.pair_grid(pair, tau_max=4.0)
    psi = pair.joint_amplitude(grid.nodes[:, None], grid.nodes[None, :])
    net = network.mhom_network(0.4, -1.1, np.pi / 2)
    rows["baseline.bp_oracle_point_s"] = _best(
        lambda: rates.bp_rate_oracle(psi, grid, net), 5)
    pgrid = rates.pulse_grid(pulse, tau_max=4.0)
    alpha = pulse.amplitude(pgrid.nodes)
    rows["baseline.cp_oracle_point_s"] = _best(
        lambda: rates.cp_rate_oracle(alpha, pgrid, net), 5)

    fast = CoherentSpectrum(omega0=100.0, d_omega=0.5)
    cells = np.linspace(-3.0, 3.0, 61)
    rows["baseline.coarse_cp_61_s"] = _best(
        lambda: rates.coarse_grain_surface(
            lambda x, y: rates.mhom_cp_analytic(x, y, 0.0, fast),
            cells[:, None], cells[None, :], 0.25,
            carrier=fast.omega0, envelope=np.sqrt(2.0) * fast.d_omega), 1)

    for preset in ("fig2", "fig3", "fig7"):
        times = []
        for _ in range(_REPEATS):
            out = workdir / f"baseline_{preset}"
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-m", "homlab.cli", "figure", preset,
                            "--out", str(out)], env=env, cwd=workdir, check=True,
                           stdout=subprocess.DEVNULL)
            times.append(time.monotonic() - t0)
            shutil.rmtree(out, ignore_errors=True)
        rows[f"baseline.{preset}_s"] = statistics.median(times)
    return rows
