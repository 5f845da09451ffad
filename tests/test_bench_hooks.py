"""The benchmark's hooks into the package bind, patch and unpatch cleanly.

``perfbench/checks.py`` imports closed forms by name and
``perfbench/tracing.py`` wraps functions where the package modules bind
them. A refactor that drops one of those names fails here rather than in
a benchmark run.
"""

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
