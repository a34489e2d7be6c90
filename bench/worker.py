"""Run one workload's commands in this interpreter through ``kerrcat.cli.main``.

run.py starts this script as a fresh interpreter (kerrcat's ``src`` and this
directory on ``PYTHONPATH``, BLAS/OpenMP pinned to one thread) and reads the
JSON object it prints as its last line.  Command outputs go to
``out/<workload>/`` next to this file.

Set-up is probed in fresh interpreters (``-X importtime``): ``SETUP_FIRST``
before the first pass and, untraced, one more per ``PROBE_SPACING_S`` seconds
of the run, taken between passes, so that the median spans the whole run.
Untraced (``--trace 0``) the workload repeats while another pass is predicted
to end within ``--seconds``.  Traced (``--trace 1``) it runs one untraced and
one traced pass and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracer
from workloads import COMMANDS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_FIRST = 5
PROBE_SPACING_S = 5.0
PROBE_TIMEOUT_S = 60.0
PROBE = ("import time; t = time.perf_counter(); import kerrcat.cli; "
         "print(time.perf_counter() - t)")


def scipy_import_s(importtime: str) -> float:
    """Cumulative import time of the outermost scipy modules in -X importtime output."""
    done = []          # (level, name, cumulative_us, children)
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue   # the header line
        raw = parts[2]
        name = raw.strip()
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while done and done[-1][0] > level:
            children.insert(0, done.pop())
        done.append((level, name, cumulative, children))

    def outer(nodes):
        total = 0
        for _, name, cumulative, children in nodes:
            if name == "scipy" or name.startswith("scipy."):
                total += cumulative
            else:
                total += outer(children)
        return total

    return outer(done) * 1e-6


def probe_setup() -> tuple[float, float]:
    """(import kerrcat.cli seconds, scipy's share) in one fresh interpreter."""
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE],
                       capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError(f"import kerrcat.cli failed:\n{p.stderr[-2000:]}")
    return float(p.stdout.strip().splitlines()[-1]), scipy_import_s(p.stderr)


def lru_caches(package: str) -> list:
    """cache_clear of every memoized function in the package's modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for obj in vars(mod).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                found[id(obj)] = clear
    return list(found.values())


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError:
        return None


def run_pass(cli, names, caches, out_dir):
    """Run each command as a separate CLI invocation would: caches cleared first.

    Returns (seconds spent inside the commands, {name: (exit code, output)}).
    """
    results, busy = {}, 0.0
    for name in names:
        cmd = COMMANDS[name]
        d = os.path.join(out_dir, name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        argv = [a.replace("{out}", d) for a in cmd.argv]
        for clear in caches:
            clear()
        out = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
        busy += time.perf_counter() - t
        if rc != 0:
            text = None
        elif cmd.output == "-":
            text = check.verify_table(out.getvalue())
        else:
            text = read_text(os.path.join(d, cmd.output))
        results[name] = (rc, text)
    return busy, results


def check_results(results, refs_dir) -> tuple[check.Tally, dict]:
    total, per_command = check.Tally(), {}
    known = check.read_known(os.path.join(refs_dir, "known.csv"))
    for name, (_, text) in sorted(results.items()):
        with open(os.path.join(refs_dir, f"{name}.csv"), encoding="utf-8", newline="") as fh:
            t = check.check_output(name, COMMANDS[name], text, fh.read(),
                                   known.get(name, frozenset()))
        per_command[name] = {k: getattr(t, k)
                             for k in ("expected", "passed", "known", "failed", "missing")}
        total += t
    return total, per_command


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    probes = [probe_setup() for _ in range(SETUP_FIRST)]
    probed_until = time.perf_counter()

    import kerrcat.cli as cli
    caches = lru_caches("kerrcat")
    rng = random.Random(args.seed)
    names = list(WORKLOADS[args.workload])
    out = os.path.join(BENCH, "out", args.workload)

    def one_pass():
        rng.shuffle(names)
        return run_pass(cli, names, caches, out)

    shutil.rmtree(out, ignore_errors=True)
    wall, res = one_pass()
    # Read after the first pass: later passes in the same process can raise the
    # high-water mark by ~15 MiB, depending on command order, through glibc's
    # adaptive mmap threshold, which a fresh kerrcat process does not inherit.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, passes = [wall], [res]
    report = {}
    if args.trace:
        tr = tracer.Tracer()
        inst = tracer.install(tr)
        try:
            wall_t, res_t = one_pass()
        finally:
            inst.uninstall()
        passes.append(res_t)
        layers, absent = tracer.layer_metrics(tr, inst.installed)
        layers["cli.csv_bytes"] = sum(len(text.encode()) for n, (_, text) in res_t.items()
                                      if text is not None and COMMANDS[n].output != "-")
        layers["trace.overhead_s"] = wall_t - wall
        layers["trace.spans"] = len(tr.name)
        spans_file = os.path.join(BENCH, "out", f"trace-{args.workload}.csv")
        tr.write(spans_file)
        report.update(layers=layers, absent=sorted(set(absent) | set(inst.absent)),
                      spans_file=spans_file)
    else:
        while True:
            while len(probes) < SETUP_FIRST + \
                    (time.perf_counter() - probed_until) / PROBE_SPACING_S:
                probes.append(probe_setup())
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
            wall, res = one_pass()
            walls.append(wall)
            passes.append(res)

    tally, per_command = check_results(passes[0], os.path.join(BENCH, "refs"))
    if any(p != passes[0] for p in passes[1:]):
        tally.note("traced outputs differ from untraced outputs" if args.trace
                   else "outputs differ between passes")
    report.update(
        setup=[p[0] for p in probes],
        scipy=[p[1] for p in probes],
        walls=walls,
        peak_rss_mib=peak_rss_mib,
        attempted=sum(len(p) for p in passes),
        failed_ops=sum(1 for p in passes for rc, text in p.values() if rc != 0 or text is None),
        exit_codes={n: str(rc) for n, (rc, _) in passes[0].items() if rc != 0},
        tally={k: getattr(tally, k) for k in ("expected", "passed", "known", "failed", "missing")},
        problems=tally.problems,
        correct=tally.ok,
        per_command=per_command,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
