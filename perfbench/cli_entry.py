"""Start one ``qlct2d`` command the way its console script does.

    python3 perfbench/cli_entry.py <subcommand> [args...]

With PERFBENCH_TRACE=<path> in the environment, the tracer's wrappers
are installed first and the spans are written to <path> on exit;
without it nothing is wrapped.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qlct2d.cli

    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return qlct2d.cli.main(sys.argv[1:])
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return qlct2d.cli.main(sys.argv[1:])
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
