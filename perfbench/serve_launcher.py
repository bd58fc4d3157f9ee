"""Server launcher: ``python -m perfbench.serve_launcher --out FILE [--trace 1] ARGS``.

Runs ``repro.serving``'s own CLI with ARGS. With ``--trace 1`` it first
wraps the serving, batcher, kernel and registry callables listed in
:mod:`perfbench.layers`. On SIGINT the server drains and exits through
its own shutdown path; the launcher then writes its peak RSS and the
in-memory spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args, rest = parser.parse_known_args()
    # The server stops on KeyboardInterrupt. A benchmark started in the
    # background of a shell inherits SIGINT ignored, and Python then
    # raises nothing on it, so restore the handler explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    if args.trace:
        import repro.serving.__main__  # noqa: F401  (load before wrapping)

        tracer.install(layers.SERVER_TARGETS + layers.KERNEL_TARGETS)
    from repro.serving.__main__ import main as serve_main

    code = serve_main(rest)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "spans": tracer.spans,
                "missing": tracer.missing,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
