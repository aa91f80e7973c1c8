"""The drasp4 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Workloads (see workloads.py for why each was chosen):
dra_random, dra_high_degree, gwa_native, cli_cold.

Untraced (``--trace 0``) the run starts a few import-only interpreters to
time set-up, then repeats passes of the workload, each in a fresh
interpreter (cli_cold: one fresh interpreter per command, one after
another), for as long as another pass fits in ``--seconds``; there is
always at least one.  Each pass also times the host-speed kernel while it
runs, and its times are scaled to a fixed host speed (hostspeed.py).  Each
operation's time is its median over the passes; set-up is the median over
the import-only interpreters, scaled likewise.  Traced (``--trace 1``) the
run makes one untraced pass and one traced pass and reports the per-layer
metrics, unscaled, and the tracing overhead.

Every operation's output is digested (canonical JSON, or stdout for the
CLI) and self-checked; where reference digests recorded from a known-good
commit exist for the seed (always for the seed-free workloads), a differing
digest fails the operation.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with run facts and every digest, goes to ``.perfbench_runs/``.
``--record-reference`` stores this run's digests as the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_runs"
REFERENCE_DIR = HERE / "reference"

SETUP_PROBES = 7
# Every child process is stopped by this many seconds after the start, so
# that the run ends well within three minutes.
HARD_LIMIT_S = 165.0
CLI_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run, each with the end-to-end metric and
# workload it is expected to move, so that later changes can cite them.
# ---------------------------------------------------------------------------

_ADD = ("wall_s, op_p50_ms, op_p90_ms on dra_random and dra_high_degree; "
        "little on gwa_native")
_MUL = "wall_s on gwa_native, then dra_random"
_ROOM = "room for a coroot-denominator scalar field (ROADMAP 4)"
_WEYL = "setup_s on all; wall_s on gwa_native (classical share)"
_AMB = ("wall_s on dra_high_degree; op_p90_ms on dra_random; nothing on "
        "gwa_native")
_RED = "wall_s on dra_high_degree (quotient straightening, ROADMAP 2)"
_DRA = "wall_s, op_p50_ms on dra_random; wall_s on dra_high_degree"
_CACHE = ("share a per-element or per-pair cache (ROADMAP 3) could hit; "
          "peak_rss_mb moves with any cache")
_GWA = "wall_s on gwa_native"
_CLI = "op_p50_ms on cli_cold"
_SETUP = "setup_s on every workload, mostly cli_cold"


def _timed(group, moves, time_kind="self_s"):
    """A wrapped group's call count and its self (or inclusive) time."""
    return [(f"{group}.calls", "count", "lower", moves),
            (f"{group}.{time_kind}", "s", "lower", moves)]


# (name, unit, better, which end-to-end metric on which workload it should
# move).  ``.self_s`` is self time, ``.s`` inclusive time.
LAYER_METRICS = [
    *_timed("scalars.add", _ADD),
    *_timed("scalars.mul", _MUL),
    *_timed("scalars.shift", _MUL),
    *_timed("scalars.gcd", _MUL),
    ("scalars.share", "ratio", "lower", _ROOM),
    ("scalars.den_coroot_frac", "ratio", "higher", _ROOM),
    ("scalars.den_coroot_frac.base", "count", "higher", _ROOM),
    ("scalars.imag_frac", "ratio", "lower", _ROOM),
    ("scalars.imag_frac.base", "count", "higher", _ROOM),
    *_timed("weyl.mul", _WEYL),
    *_timed("ambient.mul", _AMB),
    ("ambient.mul.terms_out", "count", "lower", _AMB),
    *_timed("ambient.red", _RED),
    ("ambient.red.kept_frac.I", "ratio", "higher", _RED),
    ("ambient.red.kept_frac.I.base", "count", "lower", _RED),
    ("ambient.red.kept_frac.II", "ratio", "higher", _RED),
    ("ambient.red.kept_frac.II.base", "count", "lower", _RED),
    *_timed("ambient.ad_e", _RED),
    *_timed("dra.diamond", _DRA),
    *_timed("dra.apply_p", _DRA, "s"),
    *[m for root in ("a", "b", "ba", "b2a")
      for m in _timed(f"dra.apply_p_root.{root}", _DRA)],
    ("dra.apply_p.repeat_frac", "ratio", "higher", _CACHE),
    ("dra.diamond.pair_repeat_frac", "ratio", "higher", _CACHE),
    ("dra.diamond.pair_repeat_frac.base", "count", "higher", _CACHE),
    *_timed("gwa.mul", _GWA),
    *_timed("gwa.sigma", _GWA),
    *_timed("gwa.basepoly_mul", _GWA),
    *_timed("gwa.phi", "op_p50_ms on cli_cold (gwa-check, verify appendix)",
            "s"),
    *_timed("parser.evaluate", _CLI, "s"),
    *[(f"cli.main.{cmd}.s", "s", "lower", _CLI)
      for cmd in ("nf", "diamond", "project", "theta", "sigma", "limit",
                  "verify", "gwa-check")],
    *[(f"verify.{suite}.s", "s", "lower", _CLI)
      for suite in ("presentation", "lemma32", "normalized", "appendix",
                    "limit", "triangular", "sigma_commute", "gwa_iso",
                    "weyl_example")],
    *[(f"setup.{mod}_s", "s", "lower", _SETUP)
      for mod in ("scalars", "weyl", "sp4", "ambient", "dra", "gwa",
                  "parser", "verify", "cli")],
    ("trace.wall_s", "s", "lower", "wall_s of the traced pass"),
    ("trace.untraced_wall_s", "s", "lower",
     "wall_s of the untraced pass of the same run"),
    ("trace.overhead_s", "s", "lower",
     "tracing overhead: trace.wall_s - trace.untraced_wall_s"),
    ("trace.spans", "count", "lower", "spans recorded in the traced pass"),
]

END_TO_END = [
    # (name, unit)
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    # Measure the engine's default projector truncation margin.
    env.pop("DRASP4_MAX_PROJECTOR_K", None)
    return env


def spawn(argv, report: Path, clock, timeout=None, traced=False):
    """Run one child to completion; returns (launch time, end time,
    CompletedProcess or None on time-out).  ``report``, the file the child
    writes, is removed first, so that a stale one is never read."""
    report.unlink(missing_ok=True)
    Path(str(report) + ".spans.json").unlink(missing_ok=True)
    limit = clock.left() if timeout is None else min(timeout, clock.left())
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + argv
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        return launched, time.monotonic(), None
    return launched, time.monotonic(), proc


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:300] if lines else ""


def read_report(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def read_spans(path: Path) -> list:
    spans = read_report(path)
    return spans if isinstance(spans, list) else []


def probe_setups(clock, scratch: Path) -> list:
    """Scaled set-up times of SETUP_PROBES import-only interpreters, started
    one after another; each times the host-speed kernel while it imports."""
    path = scratch / "probe.json"
    speed, setups = [], []
    for _ in range(SETUP_PROBES):
        launched, _, proc = spawn(
            [str(HERE / "worker.py"), "--probe", str(path)], path, clock,
            timeout=CLI_TIMEOUT_S)
        report = read_report(path) if proc is not None \
            and proc.returncode == 0 else None
        if report is not None and report["speed"]:
            setups.append(report["import_done"] - launched - report["paused"])
            speed.extend(report["speed"])
    if not setups:
        return []
    factor = hostspeed.scale(speed)
    return [t * factor for t in setups]


def in_process_pass(name, seed, traced, clock, scratch: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    path = scratch / f"pass-{int(traced)}.json"
    launched, ended, proc = spawn(
        [str(HERE / "worker.py"), name, str(seed), str(int(traced)),
         str(path)], path, clock, traced=traced)
    report = read_report(path) if proc is not None and proc.returncode == 0 \
        else None
    out = {"duration": ended - launched, "ops": [],
           "checks": [], "rss_mb": None, "wall": None, "expected": wl.ops,
           "latency": {}, "work": {}, "scale": None,
           "traces": [], "coeffs": [], "imports": [], "spans": []}
    if report is None:
        why = "time-out" if proc is None else \
            f"worker exited {proc.returncode}: {last_line(proc.stderr)}"
        out["error"] = why
        return out
    out["ops"] = report["ops"]
    out["checks"] = report["checks"]
    out["rss_mb"] = report["rss_kb"] / 1024
    out["wall"] = sum(op[1] for op in report["ops"])
    if report["scale"] is not None:
        out["scale"] = report["scale"]
        out["latency"] = {op[0]: op[1] * out["scale"] for op in report["ops"]}
        out["work"] = out["latency"]
    if traced:
        out["traces"].append(report["trace"])
        out["coeffs"].append(report["coeff"])
        out["imports"].append(tracer.importtime_seconds(proc.stderr))
        out["spans"] = read_spans(Path(str(path) + ".spans.json"))
    return out


def cli_pass(seed, traced, clock, scratch: Path) -> dict:
    commands = workloads.cli_command_order(seed)
    out = {"duration": 0.0, "ops": [], "checks": [],
           "rss_mb": None, "wall": 0.0, "expected": len(commands),
           "latency": {}, "work": {}, "scale": None,
           "traces": [], "coeffs": [], "imports": [], "spans": []}
    started = time.monotonic()
    rss = []
    speed = []
    for k, argv in enumerate(commands):
        label = workloads.cli_label(argv)
        path = scratch / f"cli-{int(traced)}-{k}.json"
        launched, ended, proc = spawn(
            [str(HERE / "cli_shim.py"), str(path), str(int(traced))]
            + list(argv), path, clock, timeout=CLI_TIMEOUT_S, traced=traced)
        latency = ended - launched
        if proc is None:
            out["latency"][label] = latency
            out["ops"].append([label, latency, None, "time-out"])
            continue
        report = read_report(path)
        if report is not None:
            latency -= report["paused"]
            speed.extend(report["speed"])
        out["latency"][label] = latency
        digest = workloads.digest_text(proc.stdout)
        error = None
        if proc.returncode != workloads.CLI_EXPECTED_EXIT:
            error = (f"exit status {proc.returncode}, expected "
                     f"{workloads.CLI_EXPECTED_EXIT}: "
                     f"{last_line(proc.stderr)}")
        elif report is None:
            error = "command wrote no report"
        out["ops"].append([label, latency, digest, error])
        if report is None:
            continue
        out["wall"] += report["main_s"]
        out["work"][label] = report["main_s"]
        rss.append(report["rss_kb"] / 1024)
        if traced:
            out["traces"].append(report["trace"])
            out["coeffs"].append(report["coeff"])
            out["imports"].append(tracer.importtime_seconds(proc.stderr))
            spans = read_spans(Path(str(path) + ".spans.json"))
            for s in spans:
                s[4] = k
            out["spans"].extend(spans)
    out["duration"] = time.monotonic() - started
    out["rss_mb"] = max(rss) if rss else None
    if speed:
        out["scale"] = hostspeed.scale(speed)
        for key in ("latency", "work"):
            out[key] = {label: t * out["scale"]
                        for label, t in out[key].items()}
    return out


def run_pass(name, seed, traced, clock, scratch):
    if workloads.WORKLOADS[name].in_process:
        return in_process_pass(name, seed, traced, clock, scratch)
    return cli_pass(seed, traced, clock, scratch)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def load_reference(name) -> dict:
    try:
        with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_key(name, seed) -> str:
    return "*" if name in workloads.SEED_FREE else str(seed)


def judge(name, seed, passes) -> dict:
    """Count attempted and failed operations; a digest that differs from
    the recorded reference fails its operation."""
    ref = load_reference(name).get(reference_key(name, seed))
    attempted = failed = compared = 0
    errors = []
    for p in passes:
        attempted += p["expected"] + len(p["checks"])
        seen = 0
        for label, _, digest, error in p["ops"]:
            seen += 1
            if error is None and ref is not None and label in ref:
                compared += 1
                if digest != ref[label]:
                    error = (f"digest {digest} differs from reference "
                             f"{ref[label]}")
            if error is not None:
                failed += 1
                errors.append(f"{label}: {error}")
        missing = p["expected"] - seen
        if missing > 0:
            failed += missing
            errors.append(f"{missing} operations not run: "
                          f"{p.get('error', 'pass stopped early')}")
        for label, error in p["checks"]:
            if error is not None:
                failed += 1
                errors.append(f"{label}: {error}")
    return {"attempted": attempted, "failed": failed, "compared": compared,
            "reference": ref is not None, "errors": errors}


def digests(passes) -> dict:
    """Each operation's digest (from the first pass that completed it) and
    one digest over all of them, for comparing two commits on any seed."""
    ops = {}
    for p in passes:
        for label, _, digest, _ in p["ops"]:
            if digest is not None:
                ops.setdefault(label, digest)
    combined = hashlib.sha256(
        "".join(f"{k}={ops[k]};" for k in sorted(ops)).encode()).hexdigest()
    return {"combined": combined[:20], "ops": ops}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_op(passes, key) -> dict:
    """Each operation's median scaled time over the passes, from the
    per-pass ``{label: seconds}`` map ``key``."""
    times = {}
    for p in passes:
        for label, t in p[key].items():
            times.setdefault(label, []).append(t)
    return {label: statistics.median(ts) for label, ts in times.items()}


def end_to_end(passes, probes) -> dict:
    work = per_op(passes, "work")
    lat = list(per_op(passes, "latency").values())
    rss = [p["rss_mb"] for p in passes if p["rss_mb"] is not None]
    if not probes or not work or len(lat) < 2 or not rss:
        return {}
    return {
        "setup_s": statistics.median(probes),
        "wall_s": sum(work.values()),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": statistics.quantiles(lat, n=10,
                                          method="inclusive")[8] * 1000,
        "peak_rss_mb": statistics.median(rss),
    }


# Metric name suffix -> field of a group's (calls, total_s, self_s).
STAT_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def _sum_stats(traces) -> dict:
    total = {}
    for t in traces:
        for k, (calls, s, self_s) in t["stats"].items():
            acc = total.setdefault(k, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += s
            acc[2] += self_s
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(traced, plain) -> dict:
    traces = traced["traces"]
    stats = _sum_stats(traces)

    def stat(group, field):
        return stats.get(group, (0, 0.0, 0.0))[field]

    def summed(key):
        return sum(t[key] for t in traces)

    def side(key, s):
        return sum(t[key].get(s, 0) for t in traces)

    m = {}
    for name, _, _, _ in LAYER_METRICS:
        group, _, kind = name.rpartition(".")
        field = STAT_FIELDS.get(kind)
        if field is not None:
            m[name] = stat(group, field)
    wall = traced["wall"] or 0.0
    scalars_self = sum(v[2] for k, v in stats.items()
                       if k.startswith("scalars."))
    m["scalars.share"] = _ratio(scalars_self, wall)
    coeff = {k: sum(c[k] for c in traced["coeffs"])
             for k in ("coeffs", "imag", "den_sampled", "den_split")}
    m["scalars.den_coroot_frac"] = _ratio(coeff["den_split"],
                                          coeff["den_sampled"])
    m["scalars.den_coroot_frac.base"] = coeff["den_sampled"]
    m["scalars.imag_frac"] = _ratio(coeff["imag"], coeff["coeffs"])
    m["scalars.imag_frac.base"] = coeff["coeffs"]
    m["ambient.mul.terms_out"] = summed("amb_terms_out")
    for s in ("I", "II"):
        base = side("red_in", s)
        m[f"ambient.red.kept_frac.{s}"] = _ratio(side("red_out", s), base)
        m[f"ambient.red.kept_frac.{s}.base"] = base
    m["dra.apply_p.repeat_frac"] = _ratio(summed("apply_p_repeats"),
                                          stat("dra.apply_p", 0))
    m["dra.diamond.pair_repeat_frac"] = _ratio(summed("pair_repeats"),
                                               summed("pair_total"))
    m["dra.diamond.pair_repeat_frac.base"] = summed("pair_total")
    for mod in ("scalars", "weyl", "sp4", "ambient", "dra", "gwa", "parser",
                "verify", "cli"):
        vals = [imp[mod] for imp in traced["imports"] if mod in imp]
        m[f"setup.{mod}_s"] = statistics.median(vals) if vals else 0.0
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = plain["wall"] or 0.0
    m["trace.overhead_s"] = wall - (plain["wall"] or 0.0)
    m["trace.spans"] = len(traced["spans"])
    return m


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """Digest of the engine's sources, which identifies the program also
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def run_facts(seed) -> dict:
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu_model(),
            "loadavg_start": list(os.getloadavg()),
            "git_commit": git_commit(), "source_digest": source_digest()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description="drasp4 benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's digests as the reference")
    return ap.parse_args(argv)


def record_reference(name, seed, ops: dict) -> None:
    ref = load_reference(name)
    ref[reference_key(name, seed)] = ops
    REFERENCE_DIR.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(ref[k], sort_keys=True)}"
             for k in sorted(ref)]
    with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def print_report(name, args, facts, passes, probes, verdict, dig, metrics):
    traced = bool(args.trace)
    print(f"drasp4 benchmark: workload={name} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    print(f"  why: {workloads.WORKLOADS[name].why}")
    print(f"  facts: nproc={facts['nproc']} python={facts['python']} "
          f"cpu={facts['cpu']!r} loadavg {facts['loadavg_start'][0]:.2f}"
          f" -> {facts['loadavg_end'][0]:.2f} commit={facts['git_commit']} "
          f"source={facts['source_digest']}")
    fail_frac = verdict["failed"] / max(verdict["attempted"], 1)
    print(f"  attempted={verdict['attempted']} failed={verdict['failed']} "
          f"fail_frac={fail_frac:.4f} ratio")
    for line in verdict["errors"][:10]:
        print(f"    FAIL {line}")
    ref = (f"{verdict['compared']} digests compared with the reference"
           if verdict["reference"] else "no reference recorded for this seed")
    print(f"  outputs: combined digest {dig['combined']}; {ref}")
    if not traced:
        n = len(per_op(passes, "latency"))
        each = f"each op's median of {len(passes)} passes, scaled"
        notes = {
            "setup_s": f"median of {len(probes)} set-ups, scaled",
            "wall_s": f"sum over {n} ops, {each}",
            "op_p50_ms": f"{n} ops, {each}",
            "op_p90_ms": f"{n} ops, {n - int(0.9 * n)} beyond"
                         + ("" if n >= 100 else "; fewer than 100 ops"),
            "peak_rss_mb": "ru_maxrss, median of passes",
        }
        for key, unit in END_TO_END:
            print(f"  {key:<12} {metrics[key]:>12.4f} {unit:<3} "
                  f"({notes[key]})")
    else:
        units = {n: u for n, u, _, _ in LAYER_METRICS}
        for key in sorted(metrics):
            print(f"  {key:<36} {metrics[key]:>14.6g} {units[key]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    name = args.workload
    if not (ROOT / "src" / "drasp4" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    clock = Clock()
    facts = run_facts(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"work-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        deadline = time.monotonic() + args.seconds
        probes = probe_setups(clock, scratch)
        if not probes:
            print("error: the engine does not import", file=sys.stderr)
            return 1
        if args.trace:
            plain = run_pass(name, args.seed, False, clock, scratch)
            traced = run_pass(name, args.seed, True, clock, scratch)
            passes = [plain, traced]
        else:
            passes = [run_pass(name, args.seed, False, clock, scratch)]
            while (time.monotonic() + passes[-1]["duration"] <= deadline
                   and clock.left() > 2 * passes[-1]["duration"]):
                passes.append(run_pass(name, args.seed, False, clock,
                                       scratch))
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
    facts["loadavg_end"] = list(os.getloadavg())
    verdict = judge(name, args.seed, passes)
    dig = digests(passes)
    if args.trace:
        metrics = per_layer(passes[1], passes[0])
        if passes[1]["wall"] is None or passes[0]["wall"] is None:
            metrics = {}
    else:
        metrics = end_to_end(passes, probes)
    if not metrics:
        print("error: no pass completed; " + "; ".join(verdict["errors"][:3]),
              file=sys.stderr)
        return 1
    if args.record_reference:
        record_reference(name, args.seed, dig["ops"])
    units = dict(END_TO_END) if not args.trace else \
        {n: u for n, u, _, _ in LAYER_METRICS}
    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {"workload": name, "trace": args.trace,
              "seconds": args.seconds, "facts": facts,
              "passes": len(passes),
              "pass_wall_s": [p["wall"] for p in passes],
              "pass_scale": [p["scale"] for p in passes],
              "errors": verdict["errors"],
              "digests": dig, "result": result}
    stem = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": passes[1]["spans"]}, fh)
    print_report(name, args, facts, passes, probes, verdict, dig, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
