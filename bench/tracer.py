"""Span tracer for the benchmark.

Spans are recorded from the benchmark's side only: ``install`` rebinds, in the
running process, the functions through which kerrcat's modules call each
other (every module's public functions, plus the underscore names other
modules import: ``_pipeline``, the ``_Pipeline`` methods, ``_max_phi`` and
``_pair_sum_log``) and numpy's ``hermgauss``, which the phase-noise average
calls.  No source file is edited.  A seam that no longer exists is reported
as absent rather than raising.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass

MODULES = ("states", "kerr", "conditioning", "metrics", "noise", "cli")
PRIVATE_SEAMS = (("metrics", "_pipeline"), ("metrics", "_max_phi"), ("states", "_pair_sum_log"))
PIPELINE_CLASS = ("metrics", "_Pipeline")
HERMGAUSS = ("numpy.polynomial.hermite", "hermgauss")


class Tracer:
    """Keeps spans in memory: name, start, end (ns) and parent span index."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.t0 = clock()
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def enter(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def set(self, i: int, key: str, value) -> None:
        self.attrs.setdefault(i, {})[key] = value

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` recorded as a span; hooks get (tracer, span, args, kwargs[, result])."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.enter(name)
            try:
                if on_call is not None:
                    self._hook(i, on_call, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.exit(i)
                self.set(i, "error", type(exc).__name__)
                raise
            self.exit(i)
            if on_return is not None:
                self._hook(i, on_return, args, kwargs, result)
            return result

        return traced

    def _hook(self, i, hook, *args):
        try:
            hook(self, i, *args)
        except Exception as exc:  # a hook must never change the traced program
            self.set(i, "hook_error", repr(exc))

    def self_ns(self) -> list[int]:
        """Span duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("id", "parent", "name", "start_ns", "end_ns", "attrs"))
            for i, name in enumerate(self.name):
                a = self.attrs.get(i)
                w.writerow((i, self.parent[i], name, self.start[i] - self.t0,
                            self.end[i] - self.t0, json.dumps(a) if a else ""))


# --------------------------------------------------------------------------
# hooks: counts recorded at the seam where the work happens
# --------------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _pair_terms(tr, i, args, kwargs):
    tr.set(i, "terms", len(_arg(args, kwargs, 2, "amps")) ** 2)


def _outcome_terms(tr, i, args, kwargs):
    tr.set(i, "terms", len(args[1]) ** 2)            # (self, lq, aq, amps)


def _nodes(tr, i, args, kwargs):
    tr.set(i, "nodes", int(_arg(args, kwargs, 0, "deg")))


def _f_min(tr, i, args, kwargs):
    tr.set(i, "f_min", float(_arg(args, kwargs, 2, "f_min")))


def _curve_points(tr, i, args, kwargs, result):
    tr.set(i, "points", len(result))
    p = tr.parent[i]
    f_min = tr.attrs.get(p, {}).get("f_min") if p >= 0 else None
    if f_min is not None:
        tr.set(i, "accepted", sum(1 for pt in result if pt.fidelity >= f_min))


HOOKS = {
    "states._pair_sum_log": (_pair_terms, None),
    "metrics._Pipeline._log_density_of": (_outcome_terms, None),
    "numpy.hermgauss": (_nodes, None),
    "metrics.window_from_threshold": (_f_min, None),
    "metrics.fidelity_curve": (None, _curve_points),
}


@dataclass
class Installation:
    installed: set[str]
    absent: list[str]
    _undo: list

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()


def _seam_functions(package: str):
    """(span name, owner object, attribute) for every seam, plus absent names."""
    seams, absent = [], []
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module(f"{package}.{short}")
        except ImportError:
            absent.append(f"{short}.*")
    for short, mod in mods.items():
        for attr, obj in sorted(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == mod.__name__:
                seams.append((f"{short}.{attr}", mod, attr))
    for short, attr in PRIVATE_SEAMS:
        if short in mods and hasattr(mods[short], attr):
            seams.append((f"{short}.{attr}", mods[short], attr))
        else:
            absent.append(f"{short}.{attr}")
    short, cls_name = PIPELINE_CLASS
    cls = getattr(mods.get(short), cls_name, None)
    if inspect.isclass(cls):
        for attr, obj in sorted(vars(cls).items()):
            if inspect.isfunction(obj):
                seams.append((f"{short}.{cls_name}.{attr}", cls, attr))
    else:
        absent.append(f"{short}.{cls_name}")
    hmod = importlib.import_module(HERMGAUSS[0])
    seams.append(("numpy.hermgauss", hmod, HERMGAUSS[1]))
    return seams, absent


def install(tracer: Tracer, package: str = "kerrcat") -> Installation:
    """Rebind every seam to a traced wrapper, in its module and wherever another
    package module imported it by name."""
    seams, absent = _seam_functions(package)
    pkg_mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == package or name.startswith(package + "."))]
    undo, installed = [], set()
    for span, owner, attr in seams:
        orig = vars(owner)[attr]
        on_call, on_return = HOOKS.get(span, (None, None))
        wrapped = tracer.wrap(span, orig, on_call, on_return)
        undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped)
        if not inspect.isclass(owner):
            for mod in pkg_mods:
                for name, obj in list(vars(mod).items()):
                    if obj is orig and mod is not owner:
                        undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        installed.add(span)
    return Installation(installed, absent, undo)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

PIPE = "metrics._Pipeline"
OUTCOME = f"{PIPE}._log_density_of"
WINDOW = "metrics.window_from_threshold"
CURVE = "metrics.fidelity_curve"
SUCCESS = "metrics.success_probability"

# metric name -> (unit, spans it needs)
LAYER_METRICS = {
    "kerr.coefficients.calls": ("count", ["kerr.kerr_coefficients"]),
    "kerr.coefficients.self_s": ("s", ["kerr.kerr_coefficients"]),
    "states.pair_sum.calls": ("count", ["states._pair_sum_log"]),
    "states.pair_sum.self_s": ("s", ["states._pair_sum_log"]),
    "states.pair_sum.terms": ("count", ["states._pair_sum_log"]),
    "states.p_marginal.calls": ("count", ["states.p_marginal_density"]),
    "states.p_marginal.self_s": ("s", ["states.p_marginal_density"]),
    "states.superposition.calls": ("count", ["states.superposition"]),
    "states.superposition.self_s": ("s", ["states.superposition"]),
    "conditioning.condition_on_x.calls": ("count", ["conditioning.condition_on_x"]),
    "conditioning.x_outcome_density.calls": ("count", ["conditioning.x_outcome_density"]),
    "metrics.pipeline.builds": ("count", [f"{PIPE}.__init__"]),
    "metrics.pipeline.hits": ("count", ["metrics._pipeline", f"{PIPE}.__init__"]),
    "metrics.pipeline.build_s": ("s", [f"{PIPE}.__init__"]),
    "metrics.outcome.evals": ("count", [OUTCOME]),
    "metrics.outcome.terms": ("count", [OUTCOME]),
    "metrics.outcome.self_s": ("s", [OUTCOME]),
    "metrics.outcome.degenerate": ("count", [f"{PIPE}.conditioned"]),
    "metrics.fidelity_terms.self_s": ("s", [f"{PIPE}.fidelity_terms"]),
    "metrics.max_phi.calls": ("count", ["metrics._max_phi"]),
    "metrics.max_phi.self_s": ("s", ["metrics._max_phi"]),
    "metrics.window.scan_points": ("count", [WINDOW, CURVE]),
    "metrics.window.bisect_evals": ("count", [WINDOW, CURVE, OUTCOME]),
    "metrics.window.self_s": ("s", [WINDOW]),
    "metrics.window.accepted_ratio": ("fraction", [WINDOW, CURVE]),
    "metrics.success_prob.density_evals": ("count", [SUCCESS, f"{PIPE}.density"]),
    "metrics.success_prob.self_s": ("s", [SUCCESS]),
    "noise.phase_avg.calls": ("count", ["noise.phase_noise_avg_fidelity"]),
    "noise.phase_avg.self_s": ("s", ["noise.phase_noise_avg_fidelity"]),
    "noise.quad_rule.calls": ("count", ["numpy.hermgauss"]),
    "noise.quad_rule.nodes": ("count", ["numpy.hermgauss"]),
    "noise.quad_rule.self_s": ("s", ["numpy.hermgauss"]),
    "noise.lossy.self_s": ("s", ["noise.lossy_fidelity"]),
    "cli.self_s": ("s", ["cli.main"]),
}


def layer_metrics(tr: Tracer, installed: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the recorded spans; metrics whose seams are gone
    read 0 and are listed as absent."""
    self_ns = tr.self_ns()
    calls: dict[str, int] = {}
    self_by: dict[str, int] = {}
    incl_by: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    in_window = [False] * len(tr.name)
    in_curve = [False] * len(tr.name)
    in_success = [False] * len(tr.name)
    pipeline_builds = degenerate = bisect = success_evals = scanned = 0
    for i, name in enumerate(tr.name):
        p = tr.parent[i]
        if p >= 0:
            pn = tr.name[p]
            in_window[i] = in_window[p] or pn == WINDOW
            in_curve[i] = in_curve[p] or pn == CURVE
            in_success[i] = in_success[p] or pn == SUCCESS
        calls[name] = calls.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0) + self_ns[i]
        incl_by[name] = incl_by.get(name, 0) + tr.end[i] - tr.start[i]
        for key, value in tr.attrs.get(i, {}).items():
            if isinstance(value, (int, float)):
                attr_sum[name, key] = attr_sum.get((name, key), 0) + value
        if name == f"{PIPE}.__init__" and p >= 0 and tr.name[p] == "metrics._pipeline":
            pipeline_builds += 1
        elif name == f"{PIPE}.conditioned" and \
                tr.attrs.get(i, {}).get("error") == "DegenerateStateError":
            degenerate += 1
        elif name == OUTCOME and in_window[i] and not in_curve[i]:
            bisect += 1
        elif name == f"{PIPE}.density" and in_success[i]:
            success_evals += 1
        elif name == CURVE and in_window[i]:
            scanned += tr.attrs.get(i, {}).get("points", 0)

    def c(n):
        return calls.get(n, 0)

    def s(*names):
        return sum(self_by.get(n, 0) for n in names) * 1e-9

    accepted = attr_sum.get((CURVE, "accepted"), 0)
    values = {
        "kerr.coefficients.calls": c("kerr.kerr_coefficients"),
        "kerr.coefficients.self_s": s("kerr.kerr_coefficients"),
        "states.pair_sum.calls": c("states._pair_sum_log"),
        "states.pair_sum.self_s": s("states._pair_sum_log"),
        "states.pair_sum.terms": attr_sum.get(("states._pair_sum_log", "terms"), 0),
        "states.p_marginal.calls": c("states.p_marginal_density"),
        "states.p_marginal.self_s": s("states.p_marginal_density"),
        "states.superposition.calls": c("states.superposition"),
        "states.superposition.self_s": s("states.superposition"),
        "conditioning.condition_on_x.calls": c("conditioning.condition_on_x"),
        "conditioning.x_outcome_density.calls": c("conditioning.x_outcome_density"),
        "metrics.pipeline.builds": c(f"{PIPE}.__init__"),
        "metrics.pipeline.hits": c("metrics._pipeline") - pipeline_builds,
        "metrics.pipeline.build_s": incl_by.get(f"{PIPE}.__init__", 0) * 1e-9,
        "metrics.outcome.evals": c(OUTCOME),
        "metrics.outcome.terms": attr_sum.get((OUTCOME, "terms"), 0),
        "metrics.outcome.self_s": s(OUTCOME),
        "metrics.outcome.degenerate": degenerate,
        "metrics.fidelity_terms.self_s": s(f"{PIPE}.fidelity_terms"),
        "metrics.max_phi.calls": c("metrics._max_phi"),
        "metrics.max_phi.self_s": s("metrics._max_phi"),
        "metrics.window.scan_points": scanned,
        "metrics.window.bisect_evals": bisect,
        "metrics.window.self_s": s(WINDOW),
        "metrics.window.accepted_ratio": accepted / scanned if scanned else 0.0,
        "metrics.success_prob.density_evals": success_evals,
        "metrics.success_prob.self_s": s(SUCCESS),
        "noise.phase_avg.calls": c("noise.phase_noise_avg_fidelity"),
        "noise.phase_avg.self_s": s("noise.phase_noise_avg_fidelity"),
        "noise.quad_rule.calls": c("numpy.hermgauss"),
        "noise.quad_rule.nodes": attr_sum.get(("numpy.hermgauss", "nodes"), 0),
        "noise.quad_rule.self_s": s("numpy.hermgauss"),
        "noise.lossy.self_s": s("noise.lossy_fidelity", "noise.lossy_final_state"),
        "cli.self_s": s("cli.main"),
    }
    absent = [m for m, (_, needs) in LAYER_METRICS.items()
              if not all(n in installed for n in needs)]
    for m in absent:
        values[m] = 0
    return values, absent
