"""The benchmark's hooks into the package bind, patch and unpatch cleanly.

``perfbench/checks.py`` imports closed forms by name and
``perfbench/tracing.py`` wraps functions where the package modules bind
them. A refactor that drops one of those names fails here rather than in
a benchmark run.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("checks", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import checks
    import tracing

    yield checks, tracing
    for name in ("checks", "tracing"):
        sys.modules.pop(name, None)


def test_bench_checks_bind_their_closed_forms(bench_modules):
    checks, _ = bench_modules
    from homlab import rates

    for name in ("mhom_bp_loss_coarse", "mhom_cp_loss_coarse",
                 "mhom_bp_coarse_analytic", "mhom_cp_coarse_analytic"):
        assert getattr(checks, name) is getattr(rates, name)


def test_bench_tracing_installs_and_restores_every_patch(bench_modules):
    _, tracing = bench_modules
    import homlab.cli as cli

    tracer = tracing.Tracer()
    try:
        tracing.install_cli(tracer)
        tracing.install_library(tracer)
        patched = list(tracer._patches)
        assert any(owner is cli and attr == "coarse_grain_surface"
                   for owner, attr, _ in patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def _module_aliases(tree) -> dict:
    """Names a benchmark file binds to homlab modules, mapped to the module names."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "homlab":
                    aliases[alias.asname or "homlab"] = alias.name if alias.asname else "homlab"
        elif isinstance(node, ast.ImportFrom) and node.module == "homlab":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"homlab.{alias.name}"
    return aliases


def _dotted(node):
    """``(base name, [attr, ...])`` of a ``name.attr.attr`` expression, else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    return (node.id, chain) if isinstance(node, ast.Name) else None


def _bench_references():
    """``(where, module, [attr, ...])`` for every homlab name the benchmark reaches.

    Covers ``from homlab.x import y``, attribute chains on names bound to
    homlab modules (``rates.X``, ``homlab.cli.main``) and the
    ``tracer.patch(owner, "name", ...)`` calls that wrap a name by string.
    """
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homlab."):
                for alias in node.names:
                    yield where, node.module, [alias.name]
                continue
            if isinstance(node, ast.Attribute):
                ref, name = _dotted(node), None
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "patch" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                ref, name = _dotted(node.args[0]), node.args[1].value
            else:
                continue
            if ref is not None and ref[0] in aliases:
                yield where, aliases[ref[0]], ref[1] + ([name] if name else [])


def test_every_name_the_benchmark_reaches_resolves():
    import homlab

    for info in pkgutil.iter_modules(homlab.__path__):
        importlib.import_module(f"homlab.{info.name}")
    references = list(_bench_references())
    reached = {".".join([module, *chain]) for _, module, chain in references}
    # the walk sees each kind of reference the benchmark makes
    assert {"homlab.qps.qps_forward", "homlab.rates.bp_rate_oracle",
            "homlab.cli.coarse_grain_surface", "homlab.cli.main"} <= reached
    missing = []
    for where, module, chain in references:
        obj = importlib.import_module(module)
        try:
            for name in chain:
                obj = getattr(obj, name)
        except AttributeError:
            missing.append(f"{where}: {'.'.join([module, *chain])}")
    assert not missing, "perfbench reaches names the package no longer has:\n" + "\n".join(missing)
