"""Own peak memory, wall time and CPU time of one ``homlab`` run, from a small launcher.

Usage: ``python tests/peak_rss.py {CONFIG | figure PRESET} [--repeat k]
[--against OTHER/src] [--ceiling MB]``

Spawns ``python -m homlab.cli run CONFIG --out DIR`` (or ``figure PRESET``)
``k`` times (default 1), each into a fresh temporary directory, with this
checkout's ``src`` first on ``PYTHONPATH``. For each run it prints the
child's own ``ru_maxrss`` and CPU time (user plus system, both from
``os.wait4``), its wall time from spawn to exit and the SHA-256 of each CSV
it wrote. A spawned child reports the larger of its own peak and its
parent's high-water RSS at the spawn, so this launcher imports the standard
library only and keeps no data: the number it prints is the run's own peak.

With ``--against OTHER/src`` each of the ``k`` rounds runs this tree and the
other one, alternating which goes first, labels every line ``this`` or
``other`` and ends with each side's median and quartiles of wall and CPU
time: start-up changes can be sized this way on a machine whose speed drifts
between runs. With ``--ceiling MB`` every run whose own peak is above MB is
printed again with the ceiling. It exits with the first failing run's exit
code, else 1 if a run went above the ceiling. It is not collected by pytest;
``test_startup.py`` runs it as a child to hold large runs under their ceilings.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_once(command: list, src: Path, label: str = "") -> tuple[int, float, float, float]:
    """Spawn one run from ``src``, print its peak, times and CSV hashes;
    return its exit code, peak in MB, wall time and CPU time."""
    extra = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + extra if extra else "")}
    with tempfile.TemporaryDirectory(prefix="peak_rss_") as tmp:
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "homlab.cli", *command, "--out", str(out)]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
        # per-child rusage: ru_maxrss of this child alone, in KiB on Linux
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - t0
        cpu = usage.ru_utime + usage.ru_stime
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        peak = usage.ru_maxrss / 1024.0
        print(f"{label}peak_rss_mb {peak:.1f}  wall_s {seconds:.3f}"
              f"  cpu_s {cpu:.3f}  exit {code}")
        for path in sorted(out.glob("*.csv")) if out.is_dir() else ():
            print(f"  {_sha256(path)}  {path.name}")
    return code, peak, seconds, cpu


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", nargs="+", metavar="CONFIG | figure PRESET")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--against", type=Path, metavar="OTHER/src",
                        help="another tree's src directory, run in turn with this one")
    parser.add_argument("--ceiling", type=float, metavar="MB",
                        help="exit 1 if a run's own peak is above MB")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.against is not None and args.repeat < 2:
        parser.error("--against needs --repeat 2 or more for quartiles")
    if len(args.op) == 2 and args.op[0] == "figure":
        command = args.op
    elif len(args.op) == 1:
        command = ["run", str(Path(args.op[0]).resolve())]
    else:
        parser.error("expected CONFIG or figure PRESET")
    trees = [("", SRC)] if args.against is None else [("this  ", SRC),
                                                       ("other ", args.against.resolve())]
    codes, above, times = [], False, {label: [] for label, _ in trees}
    for i in range(args.repeat):
        for label, src in trees if i % 2 == 0 else trees[::-1]:
            code, peak, *wall_cpu = run_once(command, src, label)
            codes.append(code)
            times[label].append(wall_cpu)
            if args.ceiling is not None and peak > args.ceiling:
                above = True
                print(f"{label}peak_rss_mb {peak:.1f} is above the ceiling {args.ceiling:.1f}")
    if args.against is not None:
        for label, runs in times.items():
            for name, values in zip(("wall_s", "cpu_s"), zip(*runs)):
                q1, median, q3 = statistics.quantiles(values, n=4)
                print(f"{label}{name} median {median:.3f}  quartiles {q1:.3f} {q3:.3f}")
    return next((code for code in codes if code), int(above))


if __name__ == "__main__":
    sys.exit(main())
