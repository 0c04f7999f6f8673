"""``repro serve`` with the layer probes installed.

Usage: ``python perfbench/traced_serve.py SPANS.json serve CATALOG ...``

Wraps the probed layer functions (``probes.LAYERS``), runs the program's
own CLI entry point with the remaining arguments, and after the CLI has
drained and returned (on SIGTERM) writes the recorded spans to
``SPANS.json``.
"""

from __future__ import annotations

import sys

from probes import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
