"""Every run of the fault corpus (``tests/fault_corpus.py``) keeps the CLI's rules.

Each broken config and ``homlab figure`` command line runs through
``homlab.cli.main`` in an empty directory. Every run must exit 0, 2 or 3 (or
be refused by argparse), with no exception escaping ``main``; a run that
fails leaves nothing behind; every exit-2 line names schema paths; and a run
that exits 0 raises no warning, except the out-of-regime ``sense`` scans
listed below. Each whole document of the corpus (``document_runs``) ends
with its own exit code and names the file or the path it refuses.
"""

import json
import os
import re
from dataclasses import fields

from fault_corpus import _RECORDS, corpus, document_runs, figure_runs, run_one
from homlab.cli import _MAX_CONFIG_BYTES, _MODES, _parse_range

# ``sense`` scans outside their regime (|tau1| * width <= 1) exit 0 with a
# RegimeWarning as the only sign; a new warning, or one of these mended,
# fails the test.
WARNING_RUNS = {f"{base}/scenario.dl1_0={value}"
                for base in ("sense_bp", "sense_cp", "sense_cp_loss") for value in ("-1.0", "1.0")}
_ERROR_LINE = re.compile(r"error: (.+?): .*\n")


def _schema_paths(cfg: dict) -> set:
    """The paths an exit-2 line of ``cfg`` may name: the envelope, the fields
    of its mode, the bounds of its ranges and the fields of its records."""
    paths = {"config", "version", "mode"}
    mode = cfg.get("mode")
    if isinstance(mode, str) and mode in _MODES:
        for key, (parse, *_) in _MODES[mode][0].items():
            paths.add(key)
            names = (("min", "max", "n") if parse is _parse_range
                     else [f.name for f in fields(_RECORDS[key])] if key in _RECORDS else ())
            paths.update(f"{key}.{name}" for name in names)
    return paths


def test_every_corpus_run_keeps_the_cli_rules(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    runs = {cid: (["run", str(config)], _schema_paths(cfg), cfg)
            for cid, cfg in corpus().items()}
    runs.update((rid, (argv, {"--theta", "--n"}, None)) for rid, argv in figure_runs().items())
    assert len(runs) == 6115
    problems, warned = [], set()
    for rid, (argv, paths, cfg) in runs.items():
        if cfg is not None:
            config.write_text(json.dumps(cfg), encoding="utf-8")
        outcome = run_one(argv)
        code, stderr = outcome["exit"], outcome["stderr"]
        if code not in (0, 2, 3, "SystemExit: 2"):
            problems.append(f"{rid}: outcome {code!r}")
        if code != 0 and os.listdir("."):
            problems.append(f"{rid}: exit {code!r} left {sorted(os.listdir('.'))}")
        if code == 2:
            line = _ERROR_LINE.fullmatch(stderr)
            if line is None or not set(line.group(1).split(", ")) <= paths:
                problems.append(f"{rid}: exit-2 line {stderr!r} names no schema path")
        if code == 0 and outcome["warnings"]:
            warned.add(rid)
    assert not problems, f"{len(problems)} runs break a rule, first: " + "; ".join(problems[:10])
    assert warned == WARNING_RUNS


def test_every_whole_document_ends_with_its_exit_code(tmp_path, monkeypatch):
    config = str(tmp_path / "config.json")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    outcomes = document_runs(config)
    # run id -> exit code and the path its error line names; the file's by default
    special = {"document/[]": (2, "config"), "document/null": (2, "config"),
               "document/NaN literal": (2, "config"), "document/at the limit": (0, None),
               "document/repeated key": (2, "source"),
               "document/repeated key in spectrum": (2, "spectrum.omega0"),
               "document/directory": (1, None), "document//dev/zero": (2, "/dev/zero")}
    assert len(outcomes) == 13 and set(special) <= set(outcomes)
    for rid, outcome in outcomes.items():
        code, named = special.get(rid, (2, config))
        stderr = outcome["stderr"]
        assert outcome["exit"] == code and not outcome["warnings"], (rid, outcome)
        if code == 2:
            line = _ERROR_LINE.fullmatch(stderr)
            assert line is not None and line.group(1) == named, (rid, stderr)
        elif code == 1:
            assert stderr.startswith("i/o error: cannot read configuration ."), stderr
        assert bool(outcome["files"]) == (code == 0), (rid, outcome["files"])
    for rid in ("document/one byte over the limit", "document//dev/zero"):
        assert f"longer than {_MAX_CONFIG_BYTES} bytes" in outcomes[rid]["stderr"]
