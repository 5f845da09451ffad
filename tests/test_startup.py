"""What a ``homlab`` process loads and how it exits, each checked in a fresh child.

A CLI run imports only the layers its mode uses, never the chains, the
quadrature oracles and the generic window average of ``network``; a bare
``import homlab`` imports no submodule, ``import homlab.rates`` (or a
``rates`` name read off the package) only ``spectra`` besides; and the
process entry points (``python -m homlab.cli`` and the ``[project.scripts]``
entry) answer exactly as an in-process ``main`` does; and the largest runs
keep their own peak memory under a ceiling.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homlab.cli as cli
from test_cli import _PAIR, RUN_CONFIGS

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _child(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


# Runs ``main`` on its arguments, then prints the exit code, the homlab modules
# loaded and whether ``fractions`` was.
_FOOTPRINT_CHILD = """
import contextlib, io, json, sys
from homlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "homlab"),
                  "fractions" in sys.modules]))
"""
_BASE = ["homlab", "homlab.cli", "homlab.rates", "homlab.spectra"]
# run (a RUN_CONFIGS name, or a figure preset) -> the layers it adds to _BASE
FOOTPRINTS = {
    "mhom_bp": [], "loss_cp": [], "coarse_bp": [], "coarse_cp_window": [],
    "sense_bp": ["homlab.sensing"], "qps": ["homlab.qps", "homlab.sensing"],
    "figure": ["homlab.figures"],
}


@pytest.mark.parametrize("name", FOOTPRINTS)
def test_each_mode_loads_only_its_layers(tmp_path, name):
    if name == "figure":
        argv = ["figure", "fig5", "--n", "16"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": 1, **RUN_CONFIGS[name]}), encoding="utf-8")
        argv = ["run", str(config)]
    child = _child(_FOOTPRINT_CHILD, *argv, "--out", str(tmp_path / "out"))
    assert child.returncode == 0, child.stderr
    code, modules, fractions = json.loads(child.stdout)
    assert code == 0
    assert modules == sorted([*_BASE, *FOOTPRINTS[name]])
    if name != "figure":
        assert not fractions


# The homlab and numpy modules loaded after a bare import, then the homlab
# modules loaded after ``from homlab import cli``.
_IMPORT_CHILD = """
import json, sys
import homlab
bare = sorted(m for m in sys.modules if m.split(".")[0] in ("homlab", "numpy"))
from homlab import cli
print(json.dumps([bare, sorted(m for m in sys.modules if m.split(".")[0] == "homlab")]))
"""


def test_bare_import_loads_no_submodule_and_no_numpy():
    child = _child(_IMPORT_CHILD)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [["homlab"], _BASE]


def test_rates_loads_no_chain_or_oracle_layer():
    for load in ("import homlab.rates", "import homlab; homlab.LossParams"):
        child = _child(f"import json, sys\n{load}\nprint(json.dumps("
                       "sorted(m for m in sys.modules if m.startswith('homlab'))))")
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == ["homlab", "homlab.rates", "homlab.spectra"], load


# Whether ``network`` is loaded after ``import homlab.cli``, then after reading
# the name the benchmark tracer wraps, and whether that name is ``network``'s.
_TRACED_NAME_CHILD = """
import json, sys
import homlab.cli as cli
before = "homlab.network" in sys.modules
value = cli.coarse_grain_surface
after = "homlab.network" in sys.modules
print(json.dumps([before, after, value is sys.modules["homlab.network"].coarse_grain_surface]))
"""


def test_cli_serves_the_traced_reference_without_loading_network():
    child = _child(_TRACED_NAME_CHILD)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [False, True, True]


# The package API from a fresh start: the star import first, then the rest.
_PACKAGE_CHILD = """
import json, sys
namespace = {}
exec("from homlab import *", namespace)
import homlab
from homlab import figures, network, qps, rates, sensing, spectra
modules = (spectra, rates, network, sensing, qps)
expected = [*(name for module in modules for name in module.__all__),
            "FIGURE_PRESETS", "build_figure"]
star = sorted(name for name in namespace if name != "__builtins__")
print(json.dumps({
    "all_in_order": homlab.__all__ == expected,
    "star_is_all": star == sorted(expected),
    "star_objects": all(namespace[name] is getattr(homlab, name) for name in expected),
    "dir": sorted({*expected, "figures", "network", "qps", "rates", "sensing", "spectra"}
                  - set(dir(homlab))),
    "submodules": all(getattr(homlab, name) is sys.modules["homlab." + name]
                      for name in ("figures", "network", "qps", "rates", "sensing", "spectra")),
    "missing": not hasattr(homlab, "no_such_name"),
}))
"""


def test_lazy_package_api_from_a_fresh_process():
    child = _child(_PACKAGE_CHILD)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {
        "all_in_order": True, "star_is_all": True, "star_objects": True, "dir": [],
        "submodules": True, "missing": True,
    }


def _entry_point() -> tuple[str, str]:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["homlab"]
    module, _, func = entry.partition(":")
    return module, func


# A config per exit code of a finished run: 0 written, 2 bad config, 3 regime.
EXIT_CONFIGS = {
    0: {"version": 1, **RUN_CONFIGS["mhom_bp"]},
    2: {"version": 1, **RUN_CONFIGS["mhom_bp"], "theta": "x"},
    3: {"version": 1, "mode": "coarse", "source": "cp", "pulse": {"omega0": 5.0, "d_omega": 0.5},
        "window": 0.2, "tau1": {"min": -1.0, "max": 1.0, "n": 5},
        "tau2": {"min": -1.0, "max": 1.0, "n": 5}},
}


@pytest.mark.parametrize("code", sorted(EXIT_CONFIGS))
def test_process_entry_points_answer_as_main_does(tmp_path, monkeypatch, capsys, code):
    (tmp_path / "config.json").write_text(json.dumps(EXIT_CONFIGS[code]), encoding="utf-8")
    argv = ["run", "config.json", "--out", "out"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert gc.get_freeze_count() == 0
    module, func = _entry_point()
    # the entry must return through the frozen exit path, or this child exits 1
    script = (f"import gc, sys\nfrom {module} import {func}\ntry:\n    {func}()\n"
              "finally:\n    if not gc.get_freeze_count():\n        sys.exit('not frozen')")
    for child in (subprocess.run([sys.executable, "-m", "homlab.cli", *argv], env=ENV,
                                 cwd=tmp_path, capture_output=True, text=True, timeout=120),
                  _child(script, *argv, cwd=tmp_path)):
        assert (child.returncode, child.stdout, child.stderr) == (
            code, captured.out, captured.err)


# The largest run of each tabulation path, and the ceiling on its own peak in
# MB: its peak with every closed form filled in row blocks, plus 5 %.
CEILINGS = {
    "coarse_cp_window_1448": (154.0, {
        "mode": "coarse", "source": "cp", "pulse": {"omega0": 500.0, "d_omega": 0.5},
        "window": 0.08, "theta": 0.3, "tau1": {"min": -3.0, "max": 3.0, "n": 1448},
        "tau2": {"min": -3.0, "max": 3.0, "n": 1448}}),
    "sense_bp_2097152": (96.0, {**RUN_CONFIGS["sense_bp"], "n": 1 << 21}),
    "qps_2097152": (87.0, {
        "mode": "qps", "target": {"r": 30.0, "gamma": 0.6, "vartheta": 1.1},
        "spectrum": _PAIR, "n": 1 << 21}),
}


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_largest_runs_keep_their_own_peak_under_a_ceiling(tmp_path, name):
    ceiling, config = CEILINGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": 1, **config}), encoding="utf-8")
    # a child's peak includes its parent's RSS at the spawn, so the run is spawned
    # by the standard-library launcher, never from this process
    child = subprocess.run([sys.executable, str(ROOT / "tests" / "peak_rss.py"), str(path),
                            "--ceiling", str(ceiling)],
                           env=ENV, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr
