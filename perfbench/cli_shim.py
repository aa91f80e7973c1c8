"""One drasp4 command in a fresh interpreter, as the console script runs it.

    python3 perfbench/cli_shim.py REPORT TRACE COMMAND [ARG ...]

The console script calls ``drasp4.cli:main`` and exits with its return
value; this does the same and times the call of ``main``.  Untraced, a
timer signal times the host-speed kernel (hostspeed.py) every few
milliseconds from the start; the time of ``main`` leaves those samples out,
and the report gives them and the time they took.
The command's stdout and exit status pass through unchanged.  The report is
JSON written to REPORT; a traced command also writes its spans to REPORT
with ``.spans.json`` appended.
"""

import os
import sys
import time

import hostspeed

SAMPLER = hostspeed.Sampler()
if sys.argv[2:3] == ["0"]:
    SAMPLER.start()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import drasp4  # noqa: E402

import json  # noqa: E402
import resource  # noqa: E402

import tracer as tracing  # noqa: E402


def main(argv):
    path, traced, command = argv[0], argv[1] == "1", argv[2:]
    from drasp4 import cli
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(drasp4, cli)
    paused = SAMPLER.paused
    started = time.perf_counter()
    try:
        return cli.main(command)
    finally:
        main_s = time.perf_counter() - started - (SAMPLER.paused - paused)
        SAMPLER.stop()
        sys.stdout.flush()
        report = {"main_s": main_s,
                  "paused": SAMPLER.paused, "speed": SAMPLER.samples,
                  "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            report["trace"] = tracing.summary(tracer)
            report["coeff"] = tracing.coefficient_facts(drasp4,
                                                        tracer.outputs)
            with open(path + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
