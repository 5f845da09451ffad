"""Own peak memory and wall time of ``homlab run CONFIG``, from a small launcher.

Usage: ``python tests/peak_rss.py CONFIG [--repeat k]``

Spawns ``python -m homlab.cli run CONFIG --out DIR`` ``k`` times (default 1),
each into a fresh temporary directory, with this checkout's ``src`` first on
``PYTHONPATH``. For each run it prints the child's own ``ru_maxrss`` (from
``os.wait4``), its wall time from spawn to exit and the SHA-256 of each CSV
it wrote. A spawned child reports the larger of its own peak and its
parent's high-water RSS at the spawn, so this launcher imports the standard
library only and keeps no data: the number it prints is the run's own peak.
It exits with the first failing run's exit code. It is not collected by
pytest.
"""

import argparse
import hashlib
import os
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


def run_once(config: Path, env: dict) -> int:
    """Spawn one run, print its peak, wall time and CSV hashes; return its exit code."""
    with tempfile.TemporaryDirectory(prefix="peak_rss_") as tmp:
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "homlab.cli", "run", str(config), "--out", str(out)]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=env)
        # per-child rusage: ru_maxrss of this child alone, in KiB on Linux
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(f"peak_rss_mb {usage.ru_maxrss / 1024.0:.1f}  wall_s {seconds:.3f}  exit {code}")
        for path in sorted(out.glob("*.csv")) if out.is_dir() else ():
            print(f"  {_sha256(path)}  {path.name}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    config = args.config.resolve()
    codes = [run_once(config, env) for _ in range(args.repeat)]
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
