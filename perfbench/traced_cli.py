"""Run one ``repro`` command line with its layers traced.

Usage: ``python traced_cli.py SPANS_JSON OP -- <repro arguments>``

Behaves like ``python -m repro <arguments>`` (same imports in the same
order, same stdout, stderr and exit code) and on the way out writes the
spans recorded in this process to SPANS_JSON.
"""

import time

FIRST_NS = time.monotonic_ns()

import sys  # noqa: E402

from tracer import OVERHEAD_LAYER, Tracer, install  # noqa: E402


def main() -> int:
    spans_path, op, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON OP -- ARGS...")
    tracer = Tracer(op)
    # The tracer's own start-up, so it is not counted as program time.
    tracer.spans.append({
        "name": OVERHEAD_LAYER, "start": FIRST_NS, "end": time.monotonic_ns(),
        "parent": None, "op": op, "attrs": {},
    })
    install(tracer)
    code: object = 1
    try:
        import repro.__main__

        code = repro.__main__.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, op=op, first_ns=FIRST_NS)
    return code  # type: ignore[return-value]


if __name__ == "__main__":
    sys.exit(main())
