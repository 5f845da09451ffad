"""Traced stand-in for ``python -m homlab.cli``.

Usage: ``python perfbench/launch.py TRACE_OUT OP_ID -- <homlab arguments>``

Times the import of ``homlab.cli``, installs the layer wrappers, calls
``homlab.cli.main(argv)`` and, after it returns, writes the spans and
counts of this one process to ``TRACE_OUT`` as JSON. The exit code is
``main``'s, so the traced op runs under the same conditions as the
untraced one.
"""

import json
import sys
import time

START = time.monotonic()

import tracing  # noqa: E402  (stdlib only; its import cost stays outside cli.import)


def main() -> int:
    trace_out, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py TRACE_OUT OP_ID -- ARGS...")
    tracer = tracing.Tracer(op=op_id)
    with tracer.span("cli.import"):
        import homlab.cli
    tracing.install_cli(tracer)
    try:
        with tracer.span("cli.main"):
            code = homlab.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"start": START, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
