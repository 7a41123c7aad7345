"""Traced stand-in for the ``paswipt`` console script.

Usage: python3 benchmarks/clishim.py SPANS_FILE CLI_ARG...

Does what the console script does (import ``paswipt.cli`` and call
``main``), with the import timed as a span and the CLI's collaborators
wrapped by the tracer.  The spans go to SPANS_FILE when main returns.
"""

import sys

from tracer import Tracer


def run(spans_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("import"):
        import paswipt.cli
    tracer.install()
    try:
        return paswipt.cli.main(argv)
    finally:
        tracer.restore()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
