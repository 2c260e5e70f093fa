"""Time-to-accuracy benchmark for trapgas's exact spectral route.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

  correlator-precise  correlator --mode spectral, l_max = 256, 9 separations;
                      every gamma within 1e-10 relative of its reference
  spectral-sweep      green --mode trapped-spectral over 5 frequencies x 81
                      points; every G_re within 1e-9 relative
  validate            the 11 cross-validation checks; every check passes

With ``--trace 0`` it measures set-up time in fresh interpreters, then runs
the workload in one fresh child process and reports ``wall_s``, ``setup_s``
and ``peak_rss_mb``; the two times are scaled to a reference machine speed
(see speed.py).  With ``--trace 1`` it reports per-layer metrics from a
traced child instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the checkout holds no trapgas sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import speed
import workloads as wl

ROOT = os.path.dirname(wl.BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
# Each run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0

_SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import trapgas.cli
trapgas.cli.load_config(sys.argv[1] or None)
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(start: float) -> float:
    return max(1.0, DEADLINE_S - (perf_counter() - start))


def measure_setup(workload: str, variant: int, env: dict, start: float) -> tuple:
    """Set-up times of fresh interpreters that import trapgas.cli and load the
    workload's config, and the machine-speed factor sampled meanwhile.  The
    first interpreter, which may compile bytecode, is not counted."""
    path = ""
    sections = wl.config_sections(workload, variant)
    if sections:
        os.makedirs(wl.OUT_DIR, exist_ok=True)
        path = os.path.join(wl.OUT_DIR, f"setup-{workload}-{variant}-{os.getpid()}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(wl.ini_text(sections))
    try:
        samples = []
        with speed.Sampler() as sampler:
            for _ in range(SETUP_SAMPLES + 1):
                proc = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, path], env=env, cwd=ROOT,
                                      capture_output=True, text=True, timeout=remaining(start))
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
                samples.append(float(proc.stdout.strip()))
        return samples[1:], speed.speed_factor(sampler.samples)
    finally:
        if path:
            os.remove(path)


def run_child(args, variant: int, env: dict, start: float) -> dict:
    cmd = [sys.executable, os.path.join(wl.BENCH_DIR, "child.py"), "--workload", args.workload,
           "--variant", str(variant), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining(start))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_metric_names() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "trapgas", "cli.py")):
        print(f"no trapgas sources under {SRC}; run from the root of a trapgas checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_names()
    variant = wl.variant_of(args.workload, args.seed)
    env = child_env()

    try:
        setup, setup_speed = ([], 1.0) if args.trace else measure_setup(args.workload, variant, env, start)
        res = run_child(args, variant, env, start)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    correct = res["failed"] == 0 and res["identical"]
    head = (f"# {args.workload} seed={args.seed} variant={variant}"
            f"{' (held out)' if variant == wl.HELD_OUT and args.workload != 'validate' else ''}: "
            f"fail_frac={res['failed'] / res['attempted']:.3g} ({res['failed']}/{res['attempted']} rows), "
            f"max_rel_err={res['max_rel_err']:.3g}, outputs identical across invocations: {res['identical']}")
    print(head)
    walls = res["walls"]
    if args.trace:
        correct = correct and res["counters_repeat"]
        print(f"# untraced wall_s {statistics.median(walls):.4f} s (n={len(walls)}), traced "
              f"{statistics.median(res['traced_walls']):.4f} s (n={len(res['traced_walls'])}); "
              f"counters repeat exactly: {res['counters_repeat']}")
        values = {m["name"]: (res["per_layer"].get(m["name"], 0), m["unit"]) for m in per_layer}
    else:
        # Times are rescaled to the machine speed at which the probe takes
        # speed.REFERENCE_S (see speed.py and README.md).
        scaled = [w * f for w, f in zip(walls, res["speed_factors"])]
        values = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(setup) * setup_speed, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        }
        print(f"# measured: wall median {statistics.median(walls):.4f} s of n={len(walls)} invocations "
              f"(min {min(walls):.4f}, max {max(walls):.4f}), speed factor median "
              f"{statistics.median(res['speed_factors']):.4f}; setup median {statistics.median(setup):.4f} s "
              f"of n={len(setup)}, speed factor {setup_speed:.4f}; peak_rss_mb {res['peak_rss_mb']:.1f} MiB")
        values = {m["name"]: values[m["name"]] for m in end_to_end}
    for name, (value, unit) in values.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
