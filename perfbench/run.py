#!/usr/bin/env python3
"""cliquecert benchmark: seeded CLI workloads run as a closed loop.

Usage, from the root of a checkout (nothing to install; stdlib only):

    python3 perfbench/run.py --workload helly-proof --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One operation is one in-process call of ``cliquecert.cli.main(argv)`` with
stdout captured and the JSON report parsed: what a user of the
``cliquecert`` binary runs, minus interpreter start-up, which ``setup_s``
measures in fresh interpreters.  One client, no threads: the next
operation starts when the previous one has returned.  Each operation
reads its input file afresh.

``--trace 0`` runs the timed loop for ``--seconds`` and prints the
end-to-end metrics, with times scaled to a reference host speed by probes
taken between operations (see ``probe.py``).  ``--trace 1`` runs the
operations of a fixed number of cases, each once untraced and once with
spans recorded (see ``tracer.py``), and prints the per-layer metrics and
the tracing overhead; a fixed set of operations, not a time limit, keeps
its counts deterministic.  The spans are written under ``.bench_out/``.

Every output is checked (``checks.py``); a run whose operations all
succeed and pass their checks reports ``correct: true``.  The last line of
stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"
sys.path.insert(0, str(HERE))

from checks import ERROR_EXITS, Checker, pinned  # noqa: E402
from probe import REF_S, HostClock  # noqa: E402
from workloads import WORKLOADS, Op, Pool, make_pool  # noqa: E402

# Each run holds at least this many operations, so latency_p90_s has at
# least ten samples beyond it; a run stops early only at HARD_STOP_S.
MIN_OPS = 100
HARD_STOP_S = 150.0
# Fresh interpreters started per run to measure set-up; the median counts.
SETUP_REPS = 21
# Cases whose operations the traced run records, per workload: whole
# slot cycles.
TRACE_CASES = {"helly-proof": 50, "nerve-extract": 18, "hill-climb": 40}
# The pinned corpus: the first cases of this seed, checked on every
# untraced run against pins.json.
PIN_SEED = 1903
PIN_CASES = {"helly-proof": 10, "nerve-extract": 3, "hill-climb": 8}

# Prints the set-up time, then the median of three host speed probes
# taken in the same interpreter afterwards.
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import cliquecert.cli as cli\n"
    "cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "import statistics, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import probe\n"
    "print(repr(t), repr(statistics.median(probe.probe() for _ in range(3))))\n"
)
WALL_TIME = re.compile(r'"wall_time_s": [-+0-9.eE]+')


@dataclass
class Result:
    """One finished operation.  ``index`` is its position in the pool;
    ``start`` is when it began, on the perf_counter clock; ``problem`` is
    set by ``judge`` when the output fails a check."""

    op: Op
    index: int
    code: Optional[int]
    start: float
    seconds: float
    text: str
    problem: Optional[str] = None


def call(cli, argv: list[str]) -> tuple:
    """One operation: run the CLI in-process, capture and parse its report."""
    out, err = io.StringIO(), io.StringIO()
    report = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    text = out.getvalue()
    if code is None:
        sys.stderr.write(err.getvalue())
    elif text.strip():
        with contextlib.suppress(ValueError):
            report = json.loads(text.strip().splitlines()[-1])
    return code, text, report


def run_one(cli, op, index: int) -> Result:
    """Time one operation; a ``nerve`` operation's hypergraph is then
    written where the operations after it read it."""
    t0 = perf_counter()
    code, text, report = call(cli, list(op.argv))
    result = Result(op, index, code, t0, perf_counter() - t0, text)
    if op.emit and report is not None:
        with open(op.emit, "w") as fh:
            json.dump(report["outcome"]["hypergraph"], fh)
    return result


def run_ops(cli, ops, *, seconds: float = 0.0, min_ops: int = 0, cycle: int = 1,
            clock: Optional[HostClock] = None) -> tuple[list[Result], float]:
    """Run ``ops`` in a cycle, one after the other, until ``seconds`` have
    passed, ``min_ops`` are done and the count is a multiple of ``cycle``;
    or once through when seconds is 0.  A ``clock`` probes host speed
    between operations.  Returns the results and the wall time of the
    loop."""
    results: list[Result] = []
    start = perf_counter()
    while True:
        i = len(results)
        if clock:
            clock.tick()
        results.append(run_one(cli, ops[i % len(ops)], i % len(ops)))
        elapsed = perf_counter() - start
        if seconds <= 0 and i + 1 == len(ops):
            break
        done = elapsed >= seconds and i + 1 >= min_ops and (i + 1) % cycle == 0
        if seconds > 0 and (done or elapsed >= HARD_STOP_S):
            if clock:
                clock.tick()
            break
    return results, perf_counter() - start


def run_traced(cli, ops, tracer) -> tuple[list[Result], list[Result]]:
    """Run each operation untraced and traced, alternating which goes
    first, so both see the same host conditions."""
    plain: list[Result] = []
    traced: list[Result] = []
    for i, op in enumerate(ops):
        for traced_now in (i % 2 == 1, i % 2 == 0):
            if not traced_now:
                plain.append(run_one(cli, op, i))
                continue
            tracer.op = i
            tracer.install()
            try:
                traced.append(run_one(cli, op, i))
            finally:
                tracer.uninstall()
    return plain, traced


def judge(pool: Pool, results: list[Result]) -> dict[int, dict]:
    """Check every result; returns the pinned fields per operation index.

    The first result of an operation is checked; a repeat must pin the
    same fields as the first, or it counts as wrong.
    """
    checker = Checker(pool.cases)
    first: dict[int, dict] = {}
    for r in results:
        if r.code is None or r.code in ERROR_EXITS:
            continue
        try:
            pin = pinned(r.op, r.code, r.text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            pin = {"malformed": repr(exc)}
        if r.index not in first:
            r.problem = checker.check(r.op, r.code, r.text)
            first[r.index] = pin
        elif pin != first[r.index]:
            r.problem = "repeat of the operation gave different results"
        if r.problem:
            print(f"wrong: {' '.join(r.op.argv)}: {r.problem}", file=sys.stderr)
    return first


def tally(results: list[Result]) -> dict:
    n = len(results)
    errors = sum(r.code is None or r.code in ERROR_EXITS for r in results)
    wrong = sum(r.problem is not None for r in results)
    return {
        "ops": n,
        "decided": sum(r.code == 0 for r in results),
        "errors": errors,
        "wrong": wrong,
        "failed": errors + wrong,
    }


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def measure_setup() -> tuple[list[float], list[float]]:
    """Import cliquecert.cli and build its parser in fresh interpreters.
    Returns the wall times and the probe times the interpreters took
    afterwards."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    wall, probes = [], []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE)], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, probe_s = map(float, done.stdout.split())
        wall.append(seconds)
        probes.append(probe_s)
    return wall, probes


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model,
    }


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    print(f"  {'metric':<38} {'value':>16} {'unit':<6} samples")
    for name, value, unit, samples in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<38} {text:>16} {unit:<6} {samples}")


def run_pin_corpus(cli, workload: str) -> tuple[int, list]:
    """Run the pinned corpus of one workload; returns the number of failed
    operations and the pinned fields of each."""
    workdir = OUT / f"pins-{workload}"
    pool = make_pool(workload, PIN_SEED, str(workdir.relative_to(ROOT)))
    try:
        results, _ = run_ops(cli, pool.case_ops(PIN_CASES[workload]))
        first = judge(pool, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tally(results)["failed"], [first.get(i) for i in range(len(results))]


def check_pins(cli, workload: str) -> bool:
    """True if the pinned corpus passes its checks and matches pins.json."""
    failed, got = run_pin_corpus(cli, workload)
    want = json.loads(PINS.read_text())[workload] if PINS.exists() else None
    if got != want:
        print(f"pins: {workload} results differ from {PINS.name}", file=sys.stderr)
    return failed == 0 and got == want


def write_pins(cli) -> int:
    pins = {}
    for workload in WORKLOADS:
        failed, pins[workload] = run_pin_corpus(cli, workload)
        if failed:
            print(f"pins: {workload} fails its checks; not written", file=sys.stderr)
            return 1
    PINS.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(w)}: [\n" + ",\n".join(json.dumps(p, sort_keys=True) for p in ps) + "\n]"
            for w, ps in pins.items()
        )
        + "\n}\n"
    )
    print(f"wrote {PINS}")
    return 0


def untraced_run(cli, pool: Pool, seconds: float) -> tuple[bool, dict, dict]:
    setup_wall, setup_probes = measure_setup()
    # The set-up runs take a few seconds, within one host speed phase, so
    # one scale for all of them is steadier than one per interpreter.
    setup_s = statistics.median(setup_wall) * REF_S / statistics.median(setup_probes)
    # The pinned corpus runs first, which also warms the interpreter up.
    pins_ok = check_pins(cli, pool.workload)
    clock = HostClock()
    results, wall = run_ops(cli, pool.ops, seconds=seconds, min_ops=MIN_OPS,
                            cycle=pool.cycle, clock=clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    judge(pool, results)
    t = tally(results)
    n = t["ops"]
    raw = [r.seconds for r in results]
    latencies = [r.seconds * clock.scale(r.start, r.start + r.seconds) for r in results]
    metrics = {
        "setup_s": (setup_s, "s", len(setup_wall)),
        "ops_per_s": (n / sum(latencies), "1/s", n),
        "latency_p50_s": (nearest_rank(latencies, 0.5), "s", n),
        "latency_p90_s": (nearest_rank(latencies, 0.9), "s", n),
        "decided_frac": (t["decided"] / n, "frac", n),
        "error_frac": (t["errors"] / n, "frac", n),
        "wrong_frac": (t["wrong"] / n, "frac", n),
        "ok_frac": ((n - t["failed"]) / n, "frac", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    print_table("end-to-end, times at the reference host speed", [(k, *v) for k, v in metrics.items()])
    print_table(f"unscaled wall times ({len(clock.took)} probes, median "
                f"{statistics.median(clock.took) * 1e3:.3f} ms against {REF_S * 1e3:g} ms)", [
        ("wall.setup_s", statistics.median(setup_wall), "s", len(setup_wall)),
        ("wall.ops_per_s", n / wall, "1/s", n),
        ("wall.latency_p50_s", nearest_rank(raw, 0.5), "s", n),
        ("wall.latency_p90_s", nearest_rank(raw, 0.9), "s", n),
    ])
    print(f"pinned corpus: {'match' if pins_ok else 'MISMATCH'}")
    # error_frac and wrong_frac read 0 on a correct run; ok_frac carries
    # both in the result line.
    shown = {k: v for k, v in metrics.items() if k not in ("error_frac", "wrong_frac")}
    return t["failed"] == 0 and pins_ok, t, shown


def traced_metrics(tracer, plain: list[Result], traced: list[Result]) -> dict:
    """The tracer's layer metrics plus report size and tracing overhead.
    Report bytes leave out the wall-time field, which varies run to run."""
    layer = tracer.layer_metrics()
    layer["cli.report_bytes"] = sum(
        len(WALL_TIME.sub('"wall_time_s": 0', r.text).encode()) for r in traced
    )
    layer["trace.ops"] = len(traced)
    layer["trace.ops_per_s_ratio"] = sum(r.seconds for r in plain) / sum(r.seconds for r in traced)
    return layer


def traced_run(cli, pool: Pool, seed: int) -> tuple[bool, dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = run_traced(cli, pool.case_ops(TRACE_CASES[pool.workload]), tracer)
    judge(pool, plain + traced)
    t = tally(plain + traced)
    layer = traced_metrics(tracer, plain, traced)
    units = {"_per_s": "1/s", "_s": "s", "_calls": "count", "_ratio": "ratio", "_bytes": "bytes"}
    metrics = {}
    for name, value in layer.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit, len(traced))
    print_table(f"per-layer, over the {len(traced)} traced operations", [(k, *v) for k, v in metrics.items()])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{pool.workload}-{seed}.json"
    tracer.write(str(path), {"workload": pool.workload, "seed": seed, "env": environment()})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return t["failed"] == 0, t, metrics


def smoke(cli) -> int:
    """Every workload at toy size: all output checks, each checker shown
    to reject a corrupted output, and traced counts repeated exactly."""
    from tracer import DETERMINISTIC, Tracer

    ok = True
    for workload in WORKLOADS:
        workdir = OUT / f"smoke-{workload}"
        pool = make_pool(workload, 0, str(workdir.relative_to(ROOT)), toy=True)
        results, _ = run_ops(cli, pool.ops)
        judge(pool, results)
        t = tally(results)
        kinds = sorted({(r.op.kind, r.code) for r in results})
        print(f"{workload}: {t['ops']} ops, {t['failed']} failed, checked {kinds}")
        ok &= t["failed"] == 0
        checker = Checker(pool.cases)
        for r in results:
            if r.code == 0:
                bad = _corrupt(r.text)
                if checker.check(r.op, r.code, bad) is None:
                    print(f"  checker accepted a corrupted {r.op.kind} output")
                    ok = False
        counts = []
        for _ in range(2):
            tracer = Tracer()
            layer = traced_metrics(tracer, *run_traced(cli, pool.ops, tracer))
            counts.append({k: layer[k] for k in DETERMINISTIC})
        same = counts[0] == counts[1]
        print(f"  traced counts repeat exactly: {same}")
        ok &= same
        shutil.rmtree(workdir, ignore_errors=True)
        if workload == "helly-proof":
            ok &= {4, 0} <= {r.code for r in results}
        pins_ok = check_pins(cli, workload)
        print(f"  pinned corpus: {'match' if pins_ok else 'MISMATCH'}")
        ok &= pins_ok
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def _corrupt(text: str) -> str:
    """Break one checked field of a report so its check must fail."""
    report, lines = json.loads(text.strip().splitlines()[-1]), text.strip().splitlines()[:-1]
    out = report["outcome"]
    if "point" in out:
        out["point"] = [c - 10**6 for c in out["point"]]
    elif "hypergraph" in out:
        out["hypergraph"]["edges"] = out["hypergraph"]["edges"][1:] or [[0] * out["hypergraph"]["k"]]
    elif "omega" in out:
        out["omega"] += 1
    elif "kind" in out:
        out["kind"] = "certificate"
    else:
        record = json.loads(lines[0])
        record["omega_ratio"] = "0/1"
        lines[0] = json.dumps(record)
    return "\n".join(lines + [json.dumps(report)]) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-size check of every workload")
    ap.add_argument("--write-pins", action="store_true", help="record the pinned corpus")
    args = ap.parse_args()
    if not (args.workload or args.smoke or args.write_pins):
        ap.error("--workload is required")

    os.chdir(ROOT)
    if not (SRC / "cliquecert" / "cli.py").is_file():
        print(f"no cliquecert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cliquecert.cli as cli
    if args.smoke:
        return smoke(cli)
    if args.write_pins:
        return write_pins(cli)

    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    workdir = OUT / args.workload
    try:
        pool = make_pool(args.workload, args.seed, str(workdir.relative_to(ROOT)))
        if args.trace:
            correct, t, metrics = traced_run(cli, pool, args.seed)
        else:
            correct, t, metrics = untraced_run(cli, pool, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": t["ops"],
        "failed": t["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
