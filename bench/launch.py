"""Run one hardylab CLI invocation with spans recorded.

Usage: python bench/launch.py SPANS_JSON [hardylab arguments...]

Behaves like `python -m hardylab.cli ARGS` (same stdout, stderr, files
and exit code) and also writes the spans of cli.run and of the library
functions it reaches to SPANS_JSON.
"""

import sys

from spans import Tracer

import hardylab.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.run", hardylab.cli.run)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
