"""kerrcat benchmark: one workload, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload outcome-grid --seed 1 --seconds 60 --trace 0

The workload runs in a fresh interpreter (bench/worker.py) with BLAS/OpenMP
pinned to one thread; the worker also times ``import kerrcat.cli`` in fresh
interpreters spread over the run.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last stdout line is the JSON
result; the lines before it are a human-readable summary.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from tracer import LAYER_METRICS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# per-layer metrics measured outside the spans, and their units
EXTRA_LAYER_UNITS = {"setup.scipy_s": "s", "cli.csv_bytes": "B", "trace.overhead_s": "s",
                     "trace.spans": "count"}


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KERRCAT_")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH])
    return env


def run_worker(argv: list[str], root: str, env: dict, timeout: float):
    """Run the worker in its own session; on timeout stop it and its children."""
    p = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise
    return p.returncode, out, err


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kerrcat", "cli.py")):
        print("bench: src/kerrcat/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        rc, out, err = run_worker(
            [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], root, child_env(root), DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if rc != 0 or not out.strip():
        print(f"bench: worker failed ({rc}):\n{err[-4000:]}", file=sys.stderr)
        return 2
    w = json.loads(out.strip().splitlines()[-1])
    setup, scipy = w["setup"], w["scipy"]

    t = w["tally"]
    failed_frac = (t["known"] + t["failed"] + t["missing"]) / t["expected"]
    wall_s = statistics.median(w["walls"])
    print(f"workload {args.workload}  seed {args.seed}  passes {len(w['walls'])}  "
          f"commands {w['attempted']}  failed commands {w['failed_ops']}")
    print(f"  setup_s      {statistics.median(setup):.4f} s   (median of {len(setup)} fresh "
          f"interpreters: {', '.join(f'{s:.2f}' for s in setup)})")
    print(f"  wall_s       {wall_s:.4f} s   (passes: {', '.join(f'{s:.3f}' for s in w['walls'])})")
    print(f"  peak_rss_mib {w['peak_rss_mib']:.1f} MiB")
    print(f"  failed_frac  {failed_frac:.6f}   ({t['known'] + t['failed'] + t['missing']} of "
          f"{t['expected']} values: {t['known']} documented baseline defects, "
          f"{t['failed']} other misses, {t['missing']} not produced)")
    for name, c in sorted(w["per_command"].items()):
        print(f"    {name:22s} {c['passed']}/{c['expected']} within tolerance"
              + (f", {c['known']} documented misses" if c["known"] else ""))
    for name, rc in sorted(w["exit_codes"].items()):
        print(f"  {name} exited with {rc}")
    for text in w["problems"]:
        print(f"  problem: {text}")

    if args.trace:
        layers = dict(w["layers"], **{"setup.scipy_s": statistics.median(scipy)})
        units = dict({name: unit for name, (unit, _) in LAYER_METRICS.items()},
                     **EXTRA_LAYER_UNITS)
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in units.items()}
        print(f"  spans: {w['layers']['trace.spans']} written to "
              f"{os.path.relpath(w['spans_file'], root)}")
        print(f"  tracing overhead: {w['layers']['trace.overhead_s']:.3f} s")
        print("  absent seams: " + (", ".join(w["absent"]) or "none"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {"value": w["peak_rss_mib"], "unit": "MiB"},
            "pass_frac": {"value": 1.0 - failed_frac, "unit": "fraction"},
        }
    print(json.dumps({"correct": bool(w["correct"]), "attempted": w["attempted"],
                      "failed": w["failed_ops"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
