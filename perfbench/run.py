#!/usr/bin/env python3
"""Benchmark of the homlab package, measured from outside.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py`` for why each exists): ``cli_runs``
spawns ``python -m homlab.cli`` with ``PYTHONPATH=src`` for every op;
``oracle_validate`` calls the library in this process. Each is a closed
loop with one client and one op in flight. A run repeats one seeded cycle of ops a fixed number of times,
sized so that the ops take about ``--seconds`` at the seed commit; the
op mix and the sample count are therefore the same for every seed and
every commit, and a faster program simply finishes sooner.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
of at least two cycles untraced and then traced, and prints per-layer
self times, counts, the tracing overhead and the ROADMAP baseline rows.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for every metric's definition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

TRACE_CYCLES = 2
MAX_WALL_S = 150.0  # stop starting ops past this, to end well inside 180 s


@dataclass
class Spec:
    why: str
    cli: bool
    cycle_s: float  # op time of one cycle at the seed commit on a 2-core sandbox
    min_cycles: int
    setup_repeats: int  # set-ups per run; setup_s is their median
    make: object
    warmup: object


@dataclass
class OpResult:
    kind: str
    seconds: float
    rss_mb: float
    values: int = 0
    error: str | None = None
    started: float = 0.0  # time.monotonic() at spawn or call
    child_start: float | None = None  # a traced child's first time.monotonic()
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _specs() -> dict:
    import workloads as w

    def oracle_make(seed, workdir):
        return w.oracle_validate(seed, w.oracle_tables(seed))

    return {
        "cli_runs": Spec(w.CLI_RUNS_WHY, True, 15.0, 2, 7, w.cli_runs,
                         lambda seed, workdir, ops: w.cli_runs_warmup()),
        # a set-up here takes ~0.09 s against ~0.4 s on cli_runs, so its
        # median needs three times the set-ups for a similar ~2 s of samples
        "oracle_validate": Spec(w.ORACLE_VALIDATE_WHY, False, 1.2, 1, 21, oracle_make,
                                lambda seed, workdir, ops: ops[0]),
    }


# ----- running ops -----


def _child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_cli_op(op, workdir: Path, env: dict, trace_id: str | None = None) -> OpResult:
    """Spawn one CLI op, time it from spawn to exit, and check its output."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    tail = [*op.argv, "--out", str(out)]
    trace_path = workdir / "trace.json"
    if trace_id is None:
        argv = [sys.executable, "-m", "homlab.cli", *tail]
    else:
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(trace_path), trace_id, "--", *tail]
    err_path = workdir / "stderr.txt"
    with err_path.open("wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                cwd=workdir)
        # per-child rusage: ru_maxrss of this process alone
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = OpResult(op.kind, seconds, usage.ru_maxrss / 1024.0, started=t0)
    if proc.returncode != 0:
        text = err_path.read_text(errors="replace").strip().splitlines()
        result.error = f"exit {proc.returncode}: {text[-1] if text else ''}"
        return result
    try:
        result.values = op.check(out)
        if trace_id is not None:
            record = json.loads(trace_path.read_text(encoding="utf-8"))
            result.spans, result.counts = record["spans"], record["counts"]
            result.child_start = record["start"]
    except Exception as exc:  # any wrong or unreadable output fails this op only
        result.error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return result


def run_library_op(op, tracer=None) -> OpResult:
    """Call one library op in this process, time it, and check its result."""
    if tracer is not None:
        tracing.install_library(tracer)
    try:
        t0 = time.monotonic()
        values = op.call()
        seconds = time.monotonic() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = OpResult(op.kind, seconds, rss, started=t0)
    try:
        result.values = op.check(values)
    except Exception as exc:  # a wrong result fails this op only
        result.error = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        result.spans, result.counts = tracer.spans, tracer.counts
    return result


class Runner:
    """One workload's set-up and op loop."""

    def __init__(self, name: str, spec: Spec, seed: int, seconds: int, scratch: Path):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.env = _child_env()
        self.started = time.monotonic()
        self.ops: list = []
        self.workdir = scratch
        self.setup_times: list = []
        self.setup_errors: list = []

    def run_op(self, op, trace_id: str | None = None) -> OpResult:
        if self.spec.cli:
            return run_cli_op(op, self.workdir, self.env, trace_id)
        tracer = None if trace_id is None else tracing.Tracer(op=trace_id)
        return run_library_op(op, tracer)

    def setup(self, tracer=None) -> None:
        """Generate the seeded inputs and run one untimed warm-up op, several times."""
        for k in range(self.spec.setup_repeats):
            workdir = self.scratch / f"setup{k}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            traced = tracer is not None and k == self.spec.setup_repeats - 1
            if traced:
                tracing.install_library(tracer)
            try:
                t0 = time.monotonic()
                ops = self.spec.make(self.seed, workdir)
                self.workdir = workdir
                warm = self.run_op(self.spec.warmup(self.seed, workdir, ops))
                self.setup_times.append(time.monotonic() - t0)
            finally:
                if traced:
                    tracer.uninstall()
            if warm.error:
                self.setup_errors.append(f"warm-up {warm.kind}: {warm.error}")
        self.ops = ops

    def cycles(self, share: float = 1.0) -> int:
        return max(self.spec.min_cycles, round(share * self.seconds / self.spec.cycle_s))

    def out_of_time(self) -> bool:
        return time.monotonic() - self.started > MAX_WALL_S


# ----- statistics -----


def tail(times: list) -> tuple[int, float]:
    """Highest whole percentile with at least ten ops beyond it (nearest rank)."""
    n = len(times)
    if n <= 10:
        return 100, max(times)
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(times)[rank - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report(name: str, results: list, notes: list, metrics: dict, setup_errors: list) -> dict:
    failed = [r for r in results if r.error]
    for r in failed[:5]:
        notes.append(f"FAILED {r.kind}: {r.error}")
    for line in notes:
        print(f"[{name}] {line}")
    for key, m in metrics.items():
        value = m["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"[{name}] {key:38s} {shown} {m['unit']}")
    return {
        "correct": not failed and not setup_errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }


def _blas_note() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default)")
    return (f"OPENBLAS_NUM_THREADS={threads}, usable cpus={len(os.sched_getaffinity(0))}, "
            f"python {sys.version.split()[0]}")


# ----- timed run -----


def timed_run(runner: Runner) -> dict:
    runner.setup()
    results = []
    cycles = runner.cycles()
    for _ in range(cycles):
        for op in runner.ops:
            if runner.out_of_time():
                break
            results.append(runner.run_op(op))
    times = [r.seconds for r in results]
    pct, tail_s = tail(times)
    failed = sum(1 for r in results if r.error)
    total = sum(times)
    metrics = {
        "op_p50_s": _metric(statistics.median(times), "s"),
        "op_tail_s": _metric(tail_s, "s"),
        "values_per_s": _metric(sum(r.values for r in results) / total, "1/s"),
        "setup_s": _metric(statistics.median(runner.setup_times), "s"),
        "peak_rss_mb": _metric(max(r.rss_mb for r in results), "MB"),
    }
    notes = [
        f"why: {runner.spec.why}",
        f"seed {runner.seed}: {len(results)} ops, {cycles} cycles of {len(runner.ops)}, "
        f"closed loop, 1 client; {_blas_note()}",
        f"op_tail_s is p{pct} of {len(results)} ops",
        "op p50 by class: " + ", ".join(
            f"{kind} {statistics.median(r.seconds for r in results if r.kind == kind):.3f}s"
            for kind in sorted({r.kind for r in results})),
        f"{'error_rate':38s} {failed / len(results):.6g} share ({failed} of {len(results)} "
        "ops failed; in the JSON as failed/attempted)",
        *runner.setup_errors,
    ]
    return _report(runner.name, results, notes, metrics, runner.setup_errors)


# ----- traced run -----

# (metric, span name, self time or total duration)
SPAN_METRICS = (
    ("cli.import_s", "cli.import", "total"),
    ("cli.self_s", "cli.run", "self"),
    ("cli.format_s", "cli.format", "total"),
    ("cli.write_s", "cli.write", "total"),
    ("figures.build_s", "figures.build", "self"),
    ("sensing.scan_s", "sensing.scan", "self"),
    ("sensing.extract_s", "sensing.extract", "total"),
    ("qps.scan_s", "qps.scan", "self"),
    ("rates.sample_s", "rates.sample", "total"),
    ("rates.closed_form_s", "rates.closed_form", "self"),
    ("rates.box_average_s", "rates.box_average", "total"),
    ("rates.oracle_s", "rates.oracle", "self"),
    ("network.transfer_s", "network.transfer", "total"),
    ("network.chain_build_s", "network.chain_build", "total"),
)

COUNT_METRICS = (
    "cli.values_formatted",
    "cli.bytes_written",
    "cli.files_written",
    "sensing.samples",
    "rates.closed_form_points",
    "rates.box_average_cells",
    "rates.box_average_evals",
    "rates.oracle_calls",
    "rates.oracle_cells",
    "network.element_evals",
    "bench.points",
)


def _span_sums(results: list) -> tuple[dict, dict, dict]:
    """Per-span-name self and total time, plus the op time no span covers.

    For a traced child the uncovered time splits into start-up (spawn to
    the launcher's first statement: exec, interpreter start) and
    teardown (end of the last span to exit: trace write, interpreter
    shutdown); whatever is left sits between spans.
    """
    selfs, totals = {}, {}
    gaps = {"uncovered": 0.0, "startup": 0.0, "teardown": 0.0}
    for r in results:
        own = tracing.self_times(r.spans)
        for span, s in zip(r.spans, own):
            selfs[span[0]] = selfs.get(span[0], 0.0) + s
            totals[span[0]] = totals.get(span[0], 0.0) + span[2] - span[1]
        gaps["uncovered"] += r.seconds - sum(own)
        if r.child_start is not None and r.spans:
            gaps["startup"] += r.child_start - r.started
            gaps["teardown"] += r.started + r.seconds - max(s[2] for s in r.spans)
    return selfs, totals, gaps


def _code_digest() -> str:
    """Digest of the package and benchmark sources; counts may change only with them."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "homlab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def traced_run(runner: Runner) -> dict:
    setup_tracer = None if runner.spec.cli else tracing.Tracer(op="setup")
    runner.setup(setup_tracer)
    untraced, traced, per_cycle = [], [], []
    cycles = max(TRACE_CYCLES, runner.cycles(0.5))
    for c in range(cycles):
        counts = {}
        for i, op in enumerate(runner.ops):
            if runner.out_of_time():
                break
            untraced.append(runner.run_op(op))
            result = runner.run_op(op, trace_id=f"{c}.{i}")
            traced.append(result)
            for key, value in result.counts.items():
                counts[key] = counts.get(key, 0) + value
            counts["bench.points"] = counts.get("bench.points", 0) + result.values
        per_cycle.append(counts)

    notes = [f"why: {runner.spec.why}",
             f"seed {runner.seed}: {len(traced)} traced ops ({cycles} cycles of "
             f"{len(runner.ops)}), each paired with an untraced run; {_blas_note()}"]
    errors = list(runner.setup_errors)
    if any(counts != per_cycle[0] for counts in per_cycle):
        errors.append("count metrics differ between cycles of the same inputs")
    digest_path = STATE / f"counts-{runner.name}-{runner.seed}-{_code_digest()}.json"
    if digest_path.exists():
        if json.loads(digest_path.read_text()) != per_cycle[0]:
            errors.append(f"count metrics differ from the earlier run in {digest_path.name}")
    else:
        digest_path.write_text(json.dumps(per_cycle[0], sort_keys=True))

    selfs, totals, gaps = _span_sums(traced)
    metrics = {}
    for metric, span, how in SPAN_METRICS:
        source = selfs if how == "self" else totals
        metrics[metric] = _metric(source.get(span, 0.0) / cycles, "s")
    tabulate = 0.0
    if setup_tracer is not None:
        tabulate = sum(e - s for n, s, e, _, _ in setup_tracer.spans if n == "spectra.tabulate")
    metrics["spectra.tabulate_s"] = _metric(tabulate, "s")
    for layer in tracing.LAYERS:
        own = sum(v for k, v in selfs.items() if k.split(".")[0] == layer)
        metrics[f"self.{layer}_s"] = _metric(own / cycles, "s")
    op_total = sum(r.seconds for r in traced)
    metrics["self.uncovered_s"] = _metric(gaps["uncovered"] / cycles, "s")
    metrics["trace.startup_s"] = _metric(gaps["startup"] / cycles, "s")
    metrics["trace.teardown_s"] = _metric(gaps["teardown"] / cycles, "s")
    metrics["trace.op_s"] = _metric(op_total / cycles, "s")
    metrics["trace.covered_share"] = _metric(1.0 - gaps["uncovered"] / op_total, "share")
    traced_p50 = statistics.median(r.seconds for r in traced)
    untraced_p50 = statistics.median(r.seconds for r in untraced)
    metrics["trace.op_p50_s"] = _metric(traced_p50, "s")
    metrics["trace.untraced_op_p50_s"] = _metric(untraced_p50, "s")
    metrics["trace.overhead_s"] = _metric(traced_p50 - untraced_p50, "s")
    first = per_cycle[0]
    for key in COUNT_METRICS:
        metrics[key] = _metric(first.get(key, 0), "count")
    cells = first.get("rates.box_average_cells", 0)
    metrics["rates.box_average_evals_per_cell"] = _metric(
        first.get("rates.box_average_evals", 0) // cells if cells else 0, "count")
    metrics["rates.oracle_computed_bytes"] = _metric(16 * first.get("rates.oracle_cells", 0), "B")
    notes.append("per-layer times and counts are per cycle; spectra.tabulate_s is the "
                 "traced set-up (once per run)")

    probe_dir = runner.scratch / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    for key, value in probe.baseline_rows(probe_dir, runner.env).items():
        metrics[key] = _metric(value, "s")

    trace_file = STATE / f"trace-{runner.name}-{runner.seed}.json"
    spans = [s for r in traced for s in r.spans]
    if setup_tracer is not None:
        spans += setup_tracer.spans
    trace_file.write_text(json.dumps({"workload": runner.name, "seed": runner.seed,
                                      "spans": spans, "counts_per_cycle": per_cycle}))
    notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return _report(runner.name, untraced + traced, notes, metrics, errors)


# ----- entry point -----


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "homlab" / "cli.py").is_file():
        print(f"perfbench: no homlab package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    specs = _specs()
    names = list(specs) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in specs]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(specs)} or all", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    scratch = STATE / f"tmp-{os.getpid()}"
    try:
        for name in names:
            shutil.rmtree(scratch, ignore_errors=True)
            runner = Runner(name, specs[name], args.seed, args.seconds, scratch)
            result = traced_run(runner) if args.trace else timed_run(runner)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
