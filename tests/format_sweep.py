"""Byte identity of the CSV digit kernel with ``'%.12g' %``, over a large seeded sweep.

Usage: ``python tests/format_sweep.py [--values N] [--seed S] [--block B]``

Formats ``N`` seeded doubles (default 10**8) with ``homlab.cli._texts``, the
numpy kernel behind every CSV value, and with ``'%.12g' %``, in blocks of
``B`` values (default 2**18), and compares the texts. A quarter of each block
is spread over every binade from 5e-324 to 1e300, the rest over the kernel's
fast band 1e-4 <= |x| < 1e9 and a decade past each edge; signs are random.
Each block also draws 256 exact decimal ties (k + 0.5) 10**-j of 12-digit
``k`` and takes every power of ten from 1e-5 to 1e9 (the band edges and the
carries), and adds the +-64-ulp neighbourhood of each. It prints the first
mismatch (the value, then both texts) and exits 1, or prints the totals, the
share that took the ``%`` fallback and the run time, and exits 0. It is not
collected by pytest.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homlab import cli  # noqa: E402

POWERS = 10.0 ** np.arange(-5, 10)
ULPS = np.arange(-64, 65)


def kernel_text(x: np.ndarray) -> str:
    words = np.empty((x.size, 6), np.uint32)
    cli._texts(x, "\n", words)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def block(rng, size: int) -> np.ndarray:
    quarter = size // 4
    binades = np.ldexp(rng.uniform(1.0, 2.0, quarter), rng.integers(-1074, 997, quarter))
    band = 10.0 ** rng.uniform(-5.0, 10.0, size - quarter)
    ties = (rng.integers(10**11, 10**12, 256) + 0.5) / 10.0 ** rng.integers(3, 17, 256)
    edges = np.concatenate([ties, POWERS])[:, None].view(np.int64) + ULPS
    x = np.concatenate([binades, band, edges.ravel().view(np.float64)])
    return x * rng.choice([-1.0, 1.0], x.size)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10**8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--block", type=int, default=1 << 18)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    percent = cli._percent
    slow = [0]

    def counted(x, end):
        slow[0] += x.size
        return percent(x, end)

    cli._percent = counted
    start, drawn, total = time.perf_counter(), 0, 0
    while drawn < args.values:
        size = min(args.block, args.values - drawn)
        x = block(rng, size)
        got, want = kernel_text(x), ("%.12g\n" * x.size) % tuple(x.tolist())
        if got != want:
            for value, a, b in zip(x.tolist(), got.split("\n"), want.split("\n")):
                if a != b:
                    print(f"MISMATCH {value!r}: kernel {a!r}, %.12g {b!r}")
                    return 1
        drawn, total = drawn + size, total + x.size
    print(f"format_sweep: seed {args.seed}, {total} values ({drawn} drawn, "
          f"{total - drawn} in tie and edge neighbourhoods), 0 mismatches, "
          f"{slow[0] / total:.1%} through %, {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
