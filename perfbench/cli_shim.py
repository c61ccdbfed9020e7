"""Run one traced `coxtw` invocation: python cli_shim.py SINK SPANS ARGS...

Imports coxtw.cli (timed), installs the tracer in this same interpreter,
calls coxtw.cli.main(ARGS), then writes the per-layer counters and the
import time to SINK (JSON) and the spans to SPANS, and exits with main's
code.  stdout is left to the invocation, so it can be compared as usual.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    sink, spans, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    import coxtw.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = coxtw.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write_spans(spans)
        with open(sink, "w") as out:
            json.dump({"counters": tracer.counters(), "import_s": import_s}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
