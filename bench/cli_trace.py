"""Run the dyadembed CLI with the benchmark's tracer installed.

    python3 bench/cli_trace.py DUMP_DIR verify --theorem ... (CLI arguments)

The CLI process and each of its pool workers write their span and counter
aggregates to DUMP_DIR/trace-<pid>.json when they exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from dyadembed import cli  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer(dump_dir=Path(sys.argv[1]))
    tracing.install(tracer)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
