"""Child processes of the benchmark that need a fresh interpreter.

    python3 bench/child.py imports
        Print, as JSON, the seconds spent importing numpy, then
        scipy.interpolate, then plap (each after the ones before it).

    python3 bench/child.py cli <spans.jsonl> <plap CLI arguments...>
        Run ``plap.cli.main`` traced: one span for ``cli.main`` and the spans
        of ``spans.Tracer.patch`` inside it.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if argv[0] == "imports":
        t0 = time.perf_counter()
        import numpy  # noqa: F401

        t1 = time.perf_counter()
        import scipy.interpolate  # noqa: F401

        t2 = time.perf_counter()
        import plap  # noqa: F401

        t3 = time.perf_counter()
        print(json.dumps({"numpy": t1 - t0, "scipy_interpolate": t2 - t1, "plap": t3 - t2}))
        return 0

    spans_path, cli_args = argv[1], argv[2:]
    import plap.cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer

    tracer = Tracer()
    with tracer.span("cli.main"), tracer.patch():
        code = plap.cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
