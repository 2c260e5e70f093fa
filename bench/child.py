"""Run one workload in this (fresh) process and print a JSON summary line.

Started by ``run.py``; not meant to be run by hand.  It imports trapgas from
the checkout's ``src``, runs one untimed warm-up invocation of the workload's
command on a reduced input, then repeats the timed invocation through
``trapgas.cli.main`` with tables written to memory, checking every output
against the stored reference.

With ``--trace 1`` it alternates untraced and traced invocations (at least
one untraced and two traced), and checks that traced output is identical to
untraced output and that every work counter repeats exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import speed
import workloads as wl

SRC = os.path.join(os.path.dirname(wl.BENCH_DIR), "src")
sys.path.insert(0, SRC)

import trapgas  # noqa: E402
import trapgas.cli  # noqa: E402

from tracer import Tracer  # noqa: E402

# The self-check compares these across traced invocations; times are excluded.
_COUNTER_SUFFIXES = (".calls", ".terms", ".terms_max", ".frequencies", "_frac")


def run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = trapgas.cli.main(argv)
    return code, out.getvalue()


def write_config(name: str, sections: dict) -> str:
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    path = os.path.join(wl.OUT_DIR, f"{name}-{os.getpid()}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(wl.ini_text(sections))
    return path


class Runner:
    def __init__(self, workload: str, variant: int):
        self.workload = workload
        self.ref = wl.load_ref(workload, variant)
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.first_output = None
        self.identical = True
        self.last_text = ""

    def invoke(self, argv: list, sampler=None) -> float:
        """Time one invocation, then check its output; returns the wall time.

        With a ``speed.Sampler``, the sampler runs during the invocation only
        and the time its probes took is not counted."""
        with sampler or contextlib.nullcontext():
            t0 = perf_counter()
            try:
                code, text = run_cli(argv)
            except Exception:  # an unexpected crash fails every row of this invocation
                traceback.print_exc()
                code, text = -1, ""
            wall = perf_counter() - t0
        if sampler is not None:
            wall -= sampler.spent_s
        # validate exits 3 when a check fails; its report still says which
        if code != 0 and not (self.workload == "validate" and code == 3):
            n = len(self.ref["rows"])
            result = {"attempted": n, "failed": n, "max_rel_err": 0.0}
        else:
            result = wl.check_output(self.workload, text, self.ref)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.max_rel_err = max(self.max_rel_err, result["max_rel_err"])
        comparable = wl.comparable(self.workload, text)
        if self.first_output is None:
            self.first_output = comparable
        elif comparable != self.first_output:
            self.identical = False
        self.last_text = text
        return wall


def check_seconds(text: str) -> dict:
    try:
        return {f"checks.{c['name']}.s": float(c["seconds"]) for c in json.loads(text)["checks"]}
    except (ValueError, KeyError, TypeError):
        return {}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--variant", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if os.path.dirname(os.path.abspath(trapgas.__file__)) != os.path.join(SRC, "trapgas"):
        print(f"trapgas imported from {trapgas.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    cfg = write_config(f"{args.workload}-{args.variant}", wl.config_sections(args.workload, args.variant))
    warm_cfg = write_config(f"{args.workload}-warmup", wl.warmup_sections(args.workload))
    try:
        argv = wl.cli_argv(args.workload, cfg)
        code, _ = run_cli(wl.cli_argv(args.workload, warm_cfg))
        if code != 0:
            print(f"warm-up invocation exited {code}", file=sys.stderr)
            return 1
        runner = Runner(args.workload, args.variant)
        summary = trace_run(runner, argv, args) if args.trace else timed_run(runner, argv, args)
    finally:
        os.remove(cfg)
        os.remove(warm_cfg)

    summary.update(
        attempted=runner.attempted,
        failed=runner.failed,
        max_rel_err=runner.max_rel_err,
        identical=runner.identical,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(summary))
    return 0


def timed_run(runner: Runner, argv: list, args) -> dict:
    walls, factors = [], []
    start = perf_counter()
    while len(walls) < wl.MIN_REPS[args.workload] or perf_counter() - start < args.seconds:
        sampler = speed.Sampler()
        walls.append(runner.invoke(argv, sampler))
        factors.append(speed.speed_factor(sampler.samples))
    return {"walls": walls, "speed_factors": factors}


def trace_run(runner: Runner, argv: list, args) -> dict:
    tracer = Tracer(wl.TARGETS.get(args.workload, 1e-10))
    untraced, traced, counters, times, checks = [], [], [], [], []
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < args.seconds:
        if len(untraced) <= len(traced):
            untraced.append(runner.invoke(argv))
            checks.append(check_seconds(runner.last_text))
            continue
        tracer.install()
        try:
            tracer.begin_invocation()
            wall = runner.invoke(argv)
            c, t = tracer.end_invocation(wall)
        finally:
            tracer.uninstall()
        traced.append(wall)
        counters.append({k: v for k, v in c.items() if k.endswith(_COUNTER_SUFFIXES)})
        times.append(t)
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(wl.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    layer = dict(counters[0])
    for name in {k for t in times for k in t}:
        layer[name] = statistics.median(t.get(name, 0.0) for t in times)
    for name in {k for c in checks for k in c}:
        layer[name] = statistics.median(c.get(name, 0.0) for c in checks)
    layer["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {
        "walls": untraced,
        "traced_walls": traced,
        "per_layer": layer,
        "counters_repeat": all(c == counters[0] for c in counters[1:]),
    }


if __name__ == "__main__":
    sys.exit(main())
