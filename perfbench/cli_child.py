"""Traced stand-in for ``python -m stripcoef``: same arguments, same stdout.

Run as ``python -X importtime perfbench/cli_child.py <stripcoef args>``.
It times the stripcoef import, wraps the layer functions, runs
``stripcoef.cli.main`` and reports its spans as one JSON line on stderr.
"""

import json
import sys
import time

from tracing import SPANS_MARKER, Recorder, install

if __name__ == "__main__":
    rec = Recorder()
    span = rec.begin("import.stripcoef")
    import stripcoef.cli

    rec.end(span)
    install(rec)
    try:
        code = stripcoef.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(SPANS_MARKER + json.dumps(rec.spans), file=sys.stderr)
    raise SystemExit(code)
