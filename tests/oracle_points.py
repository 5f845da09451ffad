"""Median time and minor page faults per quadrature-oracle point.

Usage: ``python tests/oracle_points.py [--points k] [--rounds r] [--seed s]``

For each source (``bp`` photon pairs, ``cp`` coherent pulses), chain
(``hom``, ``mhom`` and ``mhom`` with a balanced flat loss) and grid size
(257, 449 and 641 nodes) it evaluates ``k`` points (default 60) in each of
``r`` rounds over all classes (default 3), the way ``perfbench/checks.py``
evaluates an oracle batch: each point builds its chain with
``hom_network``/``mhom_network`` and passes it to the scalar oracle. It
prints the median microseconds per point and the mean minor page faults per
call (``ru_minflt`` of this process, from ``resource.getrusage``). As in the
``oracle_validate`` workload, each grid spans six spectral widths, its node
count resolves the largest delay, and the delays are seeded and cubed
towards zero. One untimed point warms each class up in every round. This
checkout's ``src`` goes first on ``sys.path``. It is not collected by
pytest.
"""

import argparse
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from homlab import network, rates  # noqa: E402
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum  # noqa: E402

NODES = (257, 449, 641)
CHAINS = ("hom", "mhom", "mhom_loss")
SPECTRUM = GaussianJointSpectrum(omega0=5.0, d_omega_plus=0.2, d_omega_minus=1.0)
PULSE = CoherentSpectrum(omega0=5.0, d_omega=0.5, total_intensity=1.0)
LOSS = rates.LossParams(xi1=0.8, xi2=0.8, chi1=0.7, chi2=0.7)


def _tau_max(half_width: float, nodes: int) -> float:
    # the largest delay whose phases a grid of `nodes` nodes resolves
    return 0.999 * (nodes - 1) * math.pi / (32.0 * half_width)


def _table(source: str, nodes: int):
    """Grid, tabulated amplitude, scalar oracle and largest delay of one class."""
    if source == "bp":
        tau_max = _tau_max(6.0 * SPECTRUM.local_spread, nodes)
        grid = network.pair_grid(SPECTRUM, tau_max=tau_max)
        amp = SPECTRUM.joint_amplitude(grid.nodes[:, None], grid.nodes[None, :])
        return grid, amp, network.bp_rate_oracle, tau_max
    tau_max = _tau_max(6.0 * PULSE.d_omega, nodes)
    grid = network.pulse_grid(PULSE, tau_max=tau_max)
    return grid, PULSE.amplitude(grid.nodes), network.cp_rate_oracle, tau_max


def measure(table, chain: str, points: int, rng) -> tuple:
    """Nanoseconds of each point and the minor page faults of all of them."""
    grid, amp, oracle, tau_max = table
    delays = 0.5 * tau_max * rng.uniform(-1.0, 1.0, size=(points + 1, 2)) ** 3
    thetas = rng.uniform(0.0, math.pi, size=points + 1)
    loss = LOSS if chain == "mhom_loss" else None
    times, faults = [], 0
    for i, (t1, t2) in enumerate(delays):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter_ns()
        if chain == "hom":
            net = network.hom_network(2.0 * t1)
        else:
            net = network.mhom_network(t1, t2, thetas[i], loss)
        oracle(amp, grid, net)
        elapsed = time.perf_counter_ns() - start
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if i:  # the first point only warms the class up
            times.append(elapsed)
            faults += after - before
    return times, faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.points < 1 or args.rounds < 1:
        parser.error("--points and --rounds must be at least 1")
    rng = np.random.default_rng(args.seed)
    tables = {(source, nodes): _table(source, nodes) for source in ("bp", "cp") for nodes in NODES}
    classes = [(source, chain, nodes) for source in ("bp", "cp")
               for chain in CHAINS for nodes in NODES]
    times = {key: [] for key in classes}
    faults = dict.fromkeys(classes, 0)
    for _ in range(args.rounds):
        for key in classes:
            source, chain, nodes = key
            spent, faulted = measure(tables[source, nodes], chain, args.points, rng)
            times[key] += spent
            faults[key] += faulted
    print(f"{'class':<22}{'us/point':>10}{'faults/call':>13}")
    for key in classes:
        calls = args.rounds * args.points
        us = statistics.median(times[key]) / 1e3
        print(f"{'_'.join(map(str, key)):<22}{us:>10.1f}{faults[key] / calls:>13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
