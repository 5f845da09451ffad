"""Lines of ``src/homlab`` that a pytest run never executes.

Usage: ``python tests/line_coverage.py [PYTEST ARGS...]``

Runs ``python -m pytest PYTEST ARGS`` from the repository root in a child
process whose ``PYTHONPATH`` starts with a temporary directory, then
``src``. That directory holds a ``sitecustomize.py`` (in place of any
other on the path), which every Python process started with that path
imports: it traces the lines the process
runs in ``src/homlab`` files (``sys.settrace`` and ``threading.settrace``)
and writes them to a hit file of its own when it exits. So the CLI
processes the tests spawn are traced too. The hits of every process are
merged and compared with each module's executable lines, taken from
``co_lines()`` of its compiled code objects; a statement whose first line
carries ``# pragma: no cover`` is skipped with its whole block. The
script prints ``file:line: source`` for every line that never ran and
exits 1 if there is one, or if pytest failed. Standard library only; it
is not collected by pytest.
"""

import ast
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homlab"
PRAGMA = "# pragma: no cover"

# Imports nothing beyond os, sys, threading and atexit, so a traced process
# loads the same modules as an untraced one does (tests check that).
_SITECUSTOMIZE = """\
import atexit, os, sys, threading

_PACKAGE = {package!r}
_HITS = {hits!r}
_lines_of = {{}}  # co_filename -> the set of lines hit, or None outside the package


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        lines = _lines_of[filename]
    except KeyError:
        inside = os.path.realpath(filename).startswith(_PACKAGE)
        lines = _lines_of[filename] = set() if inside else None
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _write():
    sys.settrace(None)
    name = "%d-%s.hits" % (os.getpid(), os.urandom(4).hex())
    with open(os.path.join(_HITS, name), "w") as fh:
        for filename, lines in _lines_of.items():
            if lines:
                fh.write("%s\\t%s\\n" % (os.path.realpath(filename), " ".join(map(str, lines))))


atexit.register(_write)
sys.settrace(_trace)
threading.settrace(_trace)
"""


def executable_lines(path: Path) -> set:
    """Lines of ``path`` that compile to instructions, less its ``PRAGMA`` blocks."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    text = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and PRAGMA in text[node.lineno - 1]:
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def merged_hits(hits_dir: Path) -> dict:
    """Real path -> every line any traced process ran there."""
    hits = {}
    for hit_file in hits_dir.glob("*.hits"):
        for entry in hit_file.read_text().splitlines():
            filename, _, lines = entry.partition("\t")
            hits.setdefault(filename, set()).update(map(int, lines.split()))
    return hits


def main(argv=None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    package = os.path.realpath(PACKAGE) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        site_dir, hits_dir = Path(tmp, "site"), Path(tmp, "hits")
        site_dir.mkdir()
        hits_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(package=package, hits=str(hits_dir)), encoding="utf-8")
        path = [str(site_dir), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        status = subprocess.run([sys.executable, "-m", "pytest", *pytest_args],
                                cwd=ROOT, env=env).returncode
        hits = merged_hits(hits_dir)
        processes = len(list(hits_dir.glob("*.hits")))
    unrun = 0
    for module in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(os.path.realpath(module), set())
        text = module.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(module) - ran):
            print(f"{module.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} unrun lines in src/homlab, from the hits of {processes} processes; "
          f"pytest exited {status}")
    return 1 if unrun or status else 0


if __name__ == "__main__":
    sys.exit(main())
