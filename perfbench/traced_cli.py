"""Run one taubench command line under the tracer.

    python3 perfbench/traced_cli.py TRACE_FILE [taubench arguments ...]

Gives the same stdout, stderr and exit code as `python3 -m taubench.cli`, and
writes the spans, the counts and the time spent importing `taubench.cli` to
TRACE_FILE.
"""

import sys
import time

from tracer import Tracer


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install_import_hook()
    start = time.perf_counter()
    import taubench.cli

    import_s = time.perf_counter() - start
    try:
        code = taubench.cli.run(argv)
    finally:
        tracer.dump(trace_path, import_s=import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
