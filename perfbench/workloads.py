"""Seeded input generators, one per workload.

Every generator takes the workload seed and a scratch directory and
returns one *cycle*: a fixed list of op classes whose sizes never depend
on the seed, so the cost mix of a run is the same for every seed while
the physical parameters, the op order and the delay points change with
it. The program receives only what the generator writes (JSON configs
for the CLI workloads); the library workload receives the generated
grids, amplitudes and delay batches.

All configs stay inside the coarse-graining regime guard, inside the
sensing/positioning regimes of acceptance criteria 7 and 8, and below
the per-op memory cap noted on each workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass
class Op:
    """One unit of timed work.

    CLI ops carry ``argv`` (everything after ``python -m homlab.cli``,
    without ``--out``); library ops carry ``call``, a zero-argument
    callable whose result goes to ``check``. ``check`` returns the number
    of values the op delivered (CSV data rows or validated points) and
    raises ``checks.CheckFailed`` on a wrong output.
    """

    kind: str
    check: object
    argv: list = field(default_factory=list)
    call: object = None


def _write_config(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def _range(rng, n: int, half_lo: float, half_hi: float, scale: float = 1.0) -> dict:
    half = rng.uniform(half_lo, half_hi) * scale
    shift = rng.uniform(-0.1, 0.1) * half
    return {"min": round(shift - half, 6), "max": round(shift + half, 6), "n": n}


def _pair(rng) -> dict:
    return {
        "omega0": round(rng.uniform(3.0, 8.0), 6),
        "d_omega_plus": round(rng.uniform(0.1, 0.3), 6),
        "d_omega_minus": round(rng.uniform(0.8, 1.2), 6),
    }


def _pulse(rng) -> dict:
    return {"omega0": round(rng.uniform(3.0, 8.0), 6),
            "d_omega": round(rng.uniform(0.4, 0.7), 6)}


def _loss(rng) -> dict:
    return {key: round(rng.uniform(0.5, 1.0), 6) for key in ("xi1", "xi2", "chi1", "chi2")}


def _theta(rng):
    return "pi/2" if rng.uniform() < 0.5 else round(rng.uniform(0.0, math.pi), 6)


def _model(rng, source: str) -> dict:
    return {"spectrum": _pair(rng)} if source == "bp" else {"pulse": _pulse(rng)}


def _run_op(workdir: Path, index: int, kind: str, cfg: dict) -> Op:
    path = _write_config(workdir, f"op{index:02d}_{kind}", cfg)
    return Op(kind, check=lambda out, cfg=cfg: checks.check_run(cfg, out),
              argv=["run", path])


def _figure_op(preset: str) -> Op:
    return Op(preset, check=lambda out, p=preset: checks.check_figure(p, out),
              argv=["figure", preset])


def _shuffled(rng, ops: list) -> list:
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ----- cli_runs -----

CLI_RUNS_WHY = (
    "every CLI mode as users run it: big surfaces (CSV formatting), windowed coarse "
    "graining (box averaging), sensing and qps reports, presets"
)

# (mode, source, cells per axis) for the closed-form surfaces
_SURFACE_CLASSES = (
    ("mhom", "bp", 251),
    ("mhom", "bp", 451),
    ("mhom", "bp", 451),
    ("mhom", "cp", 451),
    ("mhom", "cp", 451),
    ("loss", "bp", 451),
    ("loss", "cp", 451),
    ("coarse", "bp", 451),
    ("coarse", "cp", 451),
    ("mhom", "cp", 701),
    ("mhom", "bp", 1001),
)

# (source, cells per axis, carrier * window) for the windowed coarse runs;
# window_n is left automatic, max(48, ceil(2 * carrier * window) + 16), so
# the product fixes the cost. Products sit a quarter off an integer so
# rounding the config values can neither move ceil() nor push
# carrier * window below the guard's 20.
_COARSE_CLASSES = (
    ("bp", 25, 20.25),
    ("bp", 33, 32.25),
    ("cp", 29, 32.25),
    ("bp", 31, 36.25),
    ("cp", 31, 40.25),
)

# Cost groups of one cycle (per op, spawn to exit, at the seed commit):
#   small, 8 ops (0.25-0.45 s): presets fig3/fig5/fig7, mhom bp 251^2, the
#     2-million-point coarse op, sense bp and cp, a large-r qps;
#   middle, 12 ops (0.6-1.0 s, the 9-million-point cp run up to 1.5 s):
#     eight 451^2 surfaces, about half of each
#     op CSV formatting, and four windowed coarse ops of 5.5-9 million
#     rate points, nearly all box averaging;
#   large, 2 ops (1.2-2.5 s): mhom cp 701^2 and mhom bp 1001^2.
# The median op and the tail rank are then inner ranks of the middle
# group. At the edge between two groups one op's noise, or the seed,
# moves them from one group's cost to the other's: ten-seed spreads of
# op_p50_s reached 0.35 of the median that way.


def _auto_nodes(product: float) -> int:
    return max(48, math.ceil(2.0 * product) + 16)


def coarse_config(rng, source: str, n: int, product: float) -> dict:
    """One in-regime windowed ``coarse`` config.

    The regime guard wants ``window * carrier >= 20`` and
    ``window * envelope <= 0.2``; the window is drawn in [0.15, 0.25]
    (carrier then lands in 80-267) and the envelope at 60-95 % of its
    bound, so every config passes the guard with margin.
    """
    window = rng.uniform(0.15, 0.25)
    carrier = product / window
    envelope = rng.uniform(0.6, 0.95) * 0.2 / window
    if source == "bp":
        d_minus = envelope
        model = {"spectrum": {"omega0": round(carrier, 6),
                              "d_omega_plus": round(rng.uniform(0.1, 0.45) * d_minus, 6),
                              "d_omega_minus": round(d_minus, 6)}}
    else:
        model = {"pulse": {"omega0": round(carrier, 6),
                           "d_omega": round(envelope / math.sqrt(2.0), 6)}}
    scale = 1.0 / envelope
    return {"version": 1, "mode": "coarse", "source": source, **model,
            "window": round(window, 6), "theta": _theta(rng),
            "tau1": _range(rng, n, 2.0, 3.0, scale),
            "tau2": _range(rng, n, 2.0, 3.0, scale)}


# the models acceptance criterion 7 validates the recovery tolerances on
_SENSE_PAIR = {"omega0": 5.0, "d_omega_plus": 0.2, "d_omega_minus": 1.0}
_SENSE_PULSE = {"omega0": 5.0, "d_omega": 0.5}


def _scenario(rng) -> dict:
    # criterion 7 draws: both offsets resolvable, features never merged
    return {"dl1_0": round(2.0 * rng.uniform(1.5, 4.0), 6),
            "dl2_0": round(rng.uniform(-4.0, 4.0), 6)}


def _target(rng, r_lo: float, r_hi: float) -> dict:
    return {"r": round(rng.uniform(r_lo, r_hi), 6),
            "gamma": round(rng.uniform(0.1, 1.4), 6),
            "vartheta": round(rng.uniform(0.0, 2.0 * math.pi), 6)}


def cli_runs(seed: int, workdir: Path) -> list:
    """Seeded ``run`` configs of every mode plus the fig3/fig5/fig7 presets.

    Why: users run the CLI, so every op pays interpreter start and
    ``import homlab.cli`` (about 0.25 s). On top of that, a 451^2 surface
    run spends about 0.3 s formatting CSV and a 1001^2 run writes 27 MB;
    a windowed coarse run spends nearly all its time averaging cells x
    window_n^2 rate points, which it holds at once (up to 0.4 GB RSS,
    below a 0.7 GB cap); ``sense`` and ``qps`` reach the sensing and
    positioning layers. The op sizes are fixed, so the mix is the same
    for every seed; the seed picks spectra, phases, losses, windows,
    delay ranges, scenarios, targets and the order.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for mode, source, n in _SURFACE_CLASSES:
        cfg = {"version": 1, "mode": mode, "source": source, **_model(rng, source),
               "tau1": _range(rng, n, 2.5, 3.5), "tau2": _range(rng, n, 2.5, 3.5)}
        if mode == "mhom":
            cfg["theta"] = _theta(rng)
        if mode == "loss":
            cfg["loss"] = _loss(rng)
        ops.append(_run_op(workdir, len(ops), f"{mode}_{source}_{n}", cfg))
    for source, n, product in _COARSE_CLASSES:
        cfg = coarse_config(rng, source, n, product)
        ops.append(_run_op(workdir, len(ops),
                           f"coarse_{source}_{n}_n{_auto_nodes(product)}", cfg))
    for kind, fields in (("sense_bp", {"source": "bp", "spectrum": dict(_SENSE_PAIR)}),
                         ("sense_cp", {"source": "cp", "pulse": dict(_SENSE_PULSE)})):
        cfg = {"version": 1, "mode": "sense", **fields, "scenario": _scenario(rng)}
        ops.append(_run_op(workdir, len(ops), kind, cfg))
    cfg = {"version": 1, "mode": "qps", "spectrum": dict(_SENSE_PAIR),
           "target": _target(rng, 20.0, 40.0), "stem": "qps_large_r"}
    ops.append(_run_op(workdir, len(ops), "qps_large_r", cfg))
    ops += [_figure_op(p) for p in ("fig3", "fig5", "fig7")]
    return _shuffled(rng, ops)


def cli_runs_warmup() -> Op:
    return _figure_op("fig5")


# ----- oracle_validate -----

ORACLE_VALIDATE_WHY = (
    "library validation of quadrature-oracle points against the closed forms; "
    "the only workload that reaches the oracle and transfer chains"
)

# grid node counts; the complex pair table is 1-6.6 MB, either side of a 4 MB L2
_ORACLE_TIERS = (257, 449, 641)
# points per batch, chosen so every op costs about 50 ms: a bp point costs
# about 1.6/7/20 ms by tier (the n^2 quadrature), a cp point 0.1-0.35 ms
# by chain length (per-element transfer work), nearly independent of n
_BP_POINTS = {257: 30, 449: 7, 641: 3}
_CP_POINTS = {"hom": 400, "mhom": 220, "mhom_loss": 150}
_CHAINS = ("hom", "mhom", "mhom_loss")


def _tau_max_for(half_width: float, nodes: int) -> float:
    # inverse of rates._resolved_nodes: the largest delay span resolved by `nodes`
    return 0.999 * (nodes - 1) * math.pi / (32.0 * half_width)


@dataclass
class OracleTable:
    """Tabulated grid and amplitude for one (source, tier)."""

    source: str
    model: object
    grid: object
    amplitude: np.ndarray
    tau_max: float


def oracle_tables(seed: int) -> dict:
    """Seeded spectra, their grids and amplitude tables, one per (source, tier)."""
    from homlab import rates, spectra

    rng = np.random.default_rng([seed, 4])
    tables = {}
    for nodes in _ORACLE_TIERS:
        pair = spectra.GaussianJointSpectrum(
            omega0=rng.uniform(3.0, 8.0), d_omega_plus=rng.uniform(0.1, 0.3),
            d_omega_minus=rng.uniform(0.8, 1.2))
        tau_max = _tau_max_for(6.0 * pair.local_spread, nodes)
        grid = rates.pair_grid(pair, tau_max=tau_max)
        psi = pair.joint_amplitude(grid.nodes[:, None], grid.nodes[None, :])
        tables["bp", nodes] = OracleTable("bp", pair, grid, psi, tau_max)

        pulse = spectra.CoherentSpectrum(
            omega0=rng.uniform(3.0, 8.0), d_omega=rng.uniform(0.4, 0.7),
            total_intensity=rng.uniform(0.5, 2.0))
        tau_max = _tau_max_for(6.0 * pulse.d_omega, nodes)
        grid = rates.pulse_grid(pulse, tau_max=tau_max)
        tables["cp", nodes] = OracleTable("cp", pulse, grid, pulse.amplitude(grid.nodes), tau_max)
    return tables


def _delays(rng, count: int, tau_max: float, chain: str) -> np.ndarray:
    # cubing concentrates points near the features while still reaching tau_max
    if chain == "hom":
        return tau_max * rng.uniform(-1.0, 1.0, size=(count, 1)) ** 3
    return 0.5 * tau_max * rng.uniform(-1.0, 1.0, size=(count, 2)) ** 3


def oracle_validate(seed: int, tables: dict) -> list:
    """Seeded delay batches for every (source, chain, tier).

    Why: no CLI mode reaches the quadrature oracle. Pulse points spend
    most of their time in ``network.transfer_at`` and pair points in the
    n^2 quadrature of ``bp_rate_oracle``, so this is where a structured
    transfer chain or a vectorized oracle shows, and the CLI workloads
    are where it must not regress. Chains are ``hom_network``,
    ``mhom_network`` and ``mhom_network`` with a balanced loss
    (xi1 = xi2, chi1 = chi2), checked against |xi chi|^4 times the
    lossless closed form.
    """
    from homlab.rates import LossParams

    rng = np.random.default_rng([seed, 5])
    ops = []
    for (source, nodes), table in sorted(tables.items()):
        for chain in _CHAINS:
            count = _BP_POINTS[nodes] if source == "bp" else _CP_POINTS[chain]
            delays = _delays(rng, count, table.tau_max, chain)
            thetas = rng.uniform(0.0, math.pi, size=count)
            loss = None
            if chain == "mhom_loss":
                xi, chi = rng.uniform(0.5, 1.0, size=2)
                loss = LossParams(xi1=xi, xi2=xi, chi1=chi, chi2=chi)
            batch = checks.OracleBatch(table, chain, delays, thetas, loss)
            ops.append(Op(f"{source}_{chain}_{nodes}", check=batch.check,
                          call=batch.evaluate))
    return _shuffled(rng, ops)
