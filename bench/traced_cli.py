"""The multider CLI with layer spans: traced_cli.py TRACE_FILE [multider arguments...]

Installs the span wrappers in this fresh process, runs `multider.cli.main`
on the remaining arguments, writes the spans to TRACE_FILE and exits with the
CLI's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import multider.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return multider.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
