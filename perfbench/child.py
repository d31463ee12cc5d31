"""Entry point of one benchmarked degenkraw CLI invocation.

    python perfbench/child.py SPAWN_NS REPORT TRACE INVOCATION -- CLI_ARGS...

Does what ``python -m degenkraw.cli CLI_ARGS`` does, and also times set-up:
SPAWN_NS is the parent's CLOCK_MONOTONIC reading, in nanoseconds, just
before it spawned this process.  Set-up ends once ``degenkraw.cli`` is
imported and the ``--params`` config is loaded.  With TRACE=1 the layer
spans of ``layers.TARGETS`` are recorded after set-up.  Timing, spans and
cache counts go to the REPORT file (JSON, plus REPORT.npz for the spans),
so stdout carries exactly the CLI's bytes.  The exit code is the CLI's.
"""

import json
import sys
import time


def _params_path(cli_args):
    if "--params" in cli_args:
        return cli_args[cli_args.index("--params") + 1]
    return None


def run(argv) -> int:
    spawn_ns, report_path, trace, invocation, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SPAWN_NS REPORT TRACE INVOCATION -- CLI_ARGS...")
    import degenkraw.cli as cli
    from degenkraw.config import load_config

    load_config(_params_path(cli_args))
    report = {"setup_s": (time.monotonic_ns() - int(spawn_ns)) / 1e9}
    tracer = None
    if trace == "1":
        from layers import Tracer

        tracer = Tracer(invocation)
        tracer.install()
    try:
        code = cli.main(cli_args)  # looked up now, so the traced binding is used
    finally:
        sys.stdout.flush()
        if tracer is not None:
            report["trace"] = tracer.summary()
            tracer.write_spans(report_path + ".npz")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
