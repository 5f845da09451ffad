"""Fault corpus: every small ``homlab run`` config with one field broken at a time.

Usage: ``PYTHONPATH=src python tests/fault_corpus.py OUT.json [--against OLD.json]``

The corpus starts from ``test_cli.RUN_CONFIGS`` plus a small ``figure``
config. Each field, at the top level and inside every block, is set in turn
to each of ``VALUES`` or deleted, and every block gets one unknown key. The
optional fields a base config leaves out (``_OPTIONAL`` at the top level, the
record fields of ``_RECORDS`` in a block) are set to each value too. The
``figure`` subcommand runs too: ``homlab figure PRESET --theta V`` and
``--n V`` for every preset and each of ``FIGURE_FLAGS``. Beside the field
mutations, ``documents()`` varies the document as a whole (its shape, its
size, a repeated key) and ``document_runs`` also reads a directory and
``/dev/zero``, the last in a child whose address space is capped. Each other
config or command line runs through ``homlab.cli.main`` in a scratch
directory, and OUT.json maps its id to its exit code (or the exception that
escaped ``main``, argparse's ``SystemExit`` included), its stderr, the
warnings it raised and the SHA-256 of every file it wrote. Run it on two
trees and compare the two outputs to see what a change did to error
handling: with ``--against OLD.json`` (the output of the other tree) it
prints the id of every run whose record differs or is in only one of the
files, under it the old (``-``) and new (``+``) stderr of a run that kept
its exit code but changed its stderr, then one line per change of exit code
with its count (``0 -> 2: 36``) and the number of runs that kept their exit
code but changed their stderr, and exits 1 if any run differs. It is not
collected by pytest; ``test_fault_corpus.py`` runs the same corpus and
checks the rules every run must keep.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import homlab
from homlab.cli import _MAX_CONFIG_BYTES, _MODES, _REQUIRED, main
from homlab.figures import FIGURE_PRESETS
from homlab.qps import QpsTarget
from homlab.rates import LossParams
from homlab.sensing import SensingScenario
from homlab.spectra import CoherentSpectrum, GaussianJointSpectrum
from test_cli import RUN_CONFIGS

# "s" * 250 is a string no file name can hold with a suffix
VALUES = (None, True, "x", [1, 2], {}, -1.0, 0.0, 1e308, -1e308, 10**30, "pi/2",
          [0.5, 0.5], [2.0, 0.0], 5e-324, "s" * 250, "x\n", 1.0, float("nan"), float("inf"))
# values of the ``--theta`` and ``--n`` flags of ``homlab figure``
FIGURE_FLAGS = ("nan", "inf", "1e300", "-1", "0", "15", "16", "pi/2", "x")
_DELETE = object()
_UNKNOWN = "unknown_field"
# top-level fields each mode accepts besides the ones its base configs set:
# its optional fields other than the model blocks, which every base config names
_OPTIONAL = {mode: tuple(key for key, (_, default, *_) in table.items()
                         if default is not _REQUIRED and key not in ("spectrum", "pulse"))
             for mode, (table, _, _) in _MODES.items()}
# the library record each config block is built from
_RECORDS = {"spectrum": GaussianJointSpectrum, "pulse": CoherentSpectrum,
            "loss": LossParams, "scenario": SensingScenario, "target": QpsTarget}
# address space of the child that reads /dev/zero: five times what a refusal
# needs with one BLAS thread, far below what an unbounded read would take
_CHILD_BYTES = 512 << 20
# ``python -m homlab.cli`` that first caps its own address space at argv[1] bytes
_CAPPED_CLI = ("import resource, runpy, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)\n"
               "sys.argv[:2] = ['homlab']\n"
               "runpy.run_module('homlab.cli', run_name='__main__')\n")


def _bases() -> dict:
    bases = {name: {"version": 1, **cfg} for name, cfg in RUN_CONFIGS.items()}
    bases["figure_fig3"] = {"version": 1, "mode": "figure", "preset": "fig3", "n": 16}
    return bases


def _variant(base: dict, path: tuple, value) -> dict:
    cfg = json.loads(json.dumps(base))
    *parents, key = path
    block = cfg
    for parent in parents:
        block = block[parent]
    if value is _DELETE:
        del block[key]
    else:
        block[key] = value
    return cfg


def _optional(base: dict, block: tuple) -> list:
    """Fields the top level (``block == ()``) or a block of ``base`` accepts."""
    if not block:
        return list(_OPTIONAL[base["mode"]])
    record = _RECORDS.get(block[0])
    return [f.name for f in dataclasses.fields(record)] if record else []


def corpus() -> dict:
    """Config id -> config, for every broken variant of every base config."""
    out = {}
    for name, base in _bases().items():
        blocks = [()] + [(key,) for key, value in base.items() if isinstance(value, dict)]
        for block in blocks:
            present = base if not block else base[block[0]]
            for key in dict.fromkeys([*present, *_optional(base, block)]):
                for value in (*VALUES, _DELETE) if key in present else VALUES:
                    label = "deleted" if value is _DELETE else json.dumps(value)
                    out[f"{name}/{'.'.join((*block, key))}={label}"] = _variant(
                        base, (*block, key), value)
            out[f"{name}/{'.'.join((*block, _UNKNOWN))}"] = _variant(
                base, (*block, _UNKNOWN), 1)
    return out


def figure_runs() -> dict:
    """Run id -> ``homlab figure`` arguments, one flag value at a time."""
    return {f"figure {preset} {flag} {value}": ["figure", preset, flag, value]
            for preset in FIGURE_PRESETS for flag in ("--theta", "--n") for value in FIGURE_FLAGS}


def documents() -> dict:
    """Run id -> whole config document, as bytes: the shapes of the document
    itself that no field mutation makes, beside the ``hom_bp`` base."""
    text = json.dumps(_bases()["hom_bp"])
    pad = _MAX_CONFIG_BYTES - len(text)
    return {
        "document/[]": b"[]",
        "document/null": b"null",
        "document/empty": b"",
        "document/UTF-8 BOM": b"\xef\xbb\xbf" + text.encode(),
        "document/5001-digit integer": b"9" * 5001,
        "document/NaN literal": b"NaN",
        "document/200000-deep nesting": b"[" * 200_000 + b"]" * 200_000,
        "document/at the limit": (text + " " * pad).encode(),
        "document/one byte over the limit": (text + " " * (pad + 1)).encode(),
        "document/repeated key": (text[:-1] + ', "source": "bp"}').encode(),
        "document/repeated key in spectrum": text.replace(
            '"omega0": 5.0', '"omega0": 5.0, "omega0": 7.0', 1).encode(),
    }


def document_runs(config: str) -> dict:
    """Run id -> outcome of ``homlab run`` on each of ``documents()``, written to
    ``config`` in turn, on the current directory and on ``/dev/zero``."""
    records = {}
    for rid, document in documents().items():
        Path(config).write_bytes(document)
        records[rid] = run_one(["run", config])
    records["document/directory"] = run_one(["run", "."])
    records["document//dev/zero"] = run_capped(["run", "/dev/zero"])
    return records


def _written() -> dict:
    if not os.path.isdir("out"):
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path("out").iterdir())}


def run_capped(argv: list) -> dict:
    """Outcome of ``python -m homlab.cli ARGV --out out`` as ``run_one`` records
    it, in a child whose address space is capped at ``_CHILD_BYTES``: a run
    that reads its input without bound fails there, not on the machine."""
    shutil.rmtree("out", ignore_errors=True)
    src = str(Path(homlab.__file__).resolve().parent.parent)
    extra = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src + (os.pathsep + extra if extra else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, str(_CHILD_BYTES), *argv, "--out", "out"],
        env=env, capture_output=True, text=True, timeout=120)
    return {"exit": proc.returncode, "stderr": proc.stderr, "warnings": [], "files": _written()}


def run_one(argv: list) -> dict:
    """Outcome of ``homlab ARGV --out out``, run in the current directory."""
    shutil.rmtree("out", ignore_errors=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            result = main([*argv, "--out", "out"])
        except SystemExit as exc:  # argparse refusing a flag value
            result = f"SystemExit: {exc.code}"
        except Exception as exc:  # a bug escaping main is part of the record
            result = f"{type(exc).__name__}: {exc}"
    return {
        "exit": result,
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": _written(),
    }


def main_corpus(out_path: str) -> None:
    out_path = os.path.abspath(out_path)
    configs = corpus()
    records = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for cid, cfg in configs.items():
                Path("config.json").write_text(json.dumps(cfg), encoding="utf-8")
                records[cid] = run_one(["run", "config.json"])
            for rid, argv in figure_runs().items():
                records[rid] = run_one(argv)
            records.update(document_runs("config.json"))
        finally:
            os.chdir(here)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    counts = Counter(str(record["exit"]) for record in records.values())
    print(f"{len(records)} configs and command lines; exit codes: "
          + ", ".join(f"{code} x {n}" for code, n in counts.most_common()))


def differing(new: dict, old: dict) -> list:
    """Ids of the configs whose records differ between two corpus outputs."""
    return sorted(cid for cid in new.keys() | old.keys() if new.get(cid) != old.get(cid))


def listing(new: dict, old: dict, ids: list) -> list:
    """The differing ``ids``, each followed by its old and new stderr lines
    when it kept its exit code and changed its stderr."""
    lines = []
    for cid in ids:
        lines.append(cid)
        a, b = old.get(cid), new.get(cid)
        if a and b and a["exit"] == b["exit"] and a["stderr"] != b["stderr"]:
            lines += [f"  - {line}" for line in a["stderr"].splitlines()]
            lines += [f"  + {line}" for line in b["stderr"].splitlines()]
    return lines


def summary(new: dict, old: dict, ids: list) -> list:
    """Lines counting the differing ``ids`` by change of exit code, then the
    number that kept their exit code but changed their stderr."""
    none = {"exit": "absent", "stderr": ""}
    records = [(old.get(cid, none), new.get(cid, none)) for cid in ids]
    moves = Counter(f"{a['exit']} -> {b['exit']}" for a, b in records if a["exit"] != b["exit"])
    held = sum(a["exit"] == b["exit"] and a["stderr"] != b["stderr"] for a, b in records)
    return [f"{move}: {n}" for move, n in sorted(moves.items())] + [
        f"{held} kept their exit code and changed their stderr"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Run every broken config; optionally compare with an earlier output.")
    parser.add_argument("out", metavar="OUT.json")
    parser.add_argument("--against", metavar="OLD.json")
    args = parser.parse_args()
    main_corpus(args.out)
    if args.against:
        new, old = (json.loads(Path(path).read_text(encoding="utf-8"))
                    for path in (args.out, args.against))
        ids = differing(new, old)
        print("\n".join(listing(new, old, ids) + [f"{len(ids)} configs differ from {args.against}"]
                        + summary(new, old, ids)))
        sys.exit(1 if ids else 0)
