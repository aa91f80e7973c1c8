"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE REPORT
    python3 perfbench/worker.py --probe REPORT

The engine is imported first thing, so that the parent can time set-up from
its launch of this process to the moment ``import drasp4`` returns; in a
probe (``--probe``, which stops after the import) a timer signal times the
host-speed kernel (hostspeed.py) during the import, and the report gives
the time those samples took.  A pass generates its inputs, runs every
operation back to back in this one process, and only afterwards renders,
digests and self-checks the results, so that checking neither warms the
engine's caches between operations nor shows up in a traced pass.  During
an untraced pass the timer times the kernel every few milliseconds; each
operation's time leaves those samples out, and the report gives the pass's
scale factor.  The report is JSON written to REPORT; a traced pass also
writes its spans to REPORT with ``.spans.json`` appended.
"""

import os
import sys
import time

import hostspeed

PROBE = sys.argv[1:2] == ["--probe"]
SETUP_SAMPLER = hostspeed.Sampler()
if PROBE:
    SETUP_SAMPLER.start()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import drasp4  # noqa: E402  (timed set-up ends here)

IMPORT_DONE = time.monotonic()
SETUP_SAMPLER.stop()

import json  # noqa: E402
import resource  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_pass(name, seed, traced):
    labels, thunks, render, check = workloads.run_in_process(drasp4, name,
                                                             seed)
    tracer = None
    if traced:
        __import__("drasp4.cli")  # its import time is a layer metric
        tracer = tracing.Tracer()
        tracer.install(drasp4)
    perf = time.perf_counter
    sampler = hostspeed.Sampler()
    if tracer is None:
        sampler.start()
    results = []
    for k, thunk in enumerate(thunks):
        if tracer is not None:
            tracer.op_id = k
        paused = sampler.paused
        t0 = perf()
        try:
            value = thunk()
            error = None
        except Exception as exc:  # an operation's failure is a result
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append((perf() - t0 - (sampler.paused - paused), value, error))
    sampler.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"rss_kb": rss_kb,
              "scale": (hostspeed.scale(sampler.samples)
                        if sampler.samples else None)}
    if tracer is not None:
        # Snapshot before checking, which calls wrapped functions too.
        report["trace"] = tracing.summary(tracer)
        report["coeff"] = tracing.coefficient_facts(
            drasp4, [v for _, v, _ in results if v is not None])
    ops = []
    for k, (latency, value, error) in enumerate(results):
        digest = None
        if error is None:
            try:
                digest = workloads.digest_json(render(value))
                error = check(k, value)
            except Exception as exc:  # a failed check fails the operation
                error = f"check raised {type(exc).__name__}: {exc}"
        ops.append([labels[k], latency, digest, error])
    report["ops"] = ops
    report["checks"] = workloads.fixed_checks(drasp4, name)
    if tracer is None:
        # A hook would slow the host-speed kernel as much as the engine, and
        # the scaled times would hide it.
        hooked = sys.gettrace() is not None or sys.getprofile() is not None
        report["checks"].append(
            ("no_trace_hook", "the engine installed a trace or profile hook"
             if hooked else None))
    return report, tracer


def main(argv):
    if argv[0] == "--probe":
        write(argv[1], {"import_done": IMPORT_DONE,
                        "paused": SETUP_SAMPLER.paused,
                        "speed": SETUP_SAMPLER.samples})
        return 0
    name, seed, traced, path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    report, tracer = run_pass(name, seed, traced)
    if tracer is not None:
        write(path + ".spans.json", tracer.spans)
    write(path, report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
