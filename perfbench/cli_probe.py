"""Traced stand-in for ``python -m morsekit.cli``.

Usage: python perfbench/cli_probe.py OUT_JSON analyze|pde FILE

Times ``import morsekit.cli`` and ``main([...])`` separately, records the
layer spans of the call, writes ``{"import_s", "main_s", "layers"}`` to
OUT_JSON and exits with main's exit code.  The report goes to stdout as
it does from the real command line.
"""
import json
import sys
import time

from tracer import Tracer


def main() -> int:
    t0 = time.perf_counter()
    import morsekit.cli

    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    rc = morsekit.cli.main(sys.argv[2:])
    t2 = time.perf_counter()
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t2 - t1,
                   "layers": tracer.aggregate()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
