"""Compare a command's output table with its reference, value by value."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from workloads import Command, Tol

MAX_PROBLEMS = 5


@dataclass
class Tally:
    """Outcome of checking every expected value of one or more commands.

    ``known`` values are cells listed in refs/known.csv (documented baseline
    defects) that miss their tolerance but stay inside the column's envelope;
    ``failed`` values miss with no such excuse; ``missing`` values were never
    produced (non-zero exit, absent file, malformed row).
    """

    expected: int = 0
    passed: int = 0
    known: int = 0
    failed: int = 0
    missing: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def missed(self) -> int:
        return self.known + self.failed + self.missing

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.missing == 0 and not self.problems

    def note(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def __iadd__(self, other: "Tally") -> "Tally":
        for name in ("expected", "passed", "known", "failed", "missing"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for text in other.problems:
            self.note(text)
        return self


def parse_table(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def verify_table(stdout: str) -> str:
    """``kerrcat verify`` prints one "ok"/"FAIL" line per check; tabulate them."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("ok", "FAIL"))]
    return "check,ok\n" + "".join(f"{i},{1.0 if ln.startswith('ok') else 0.0}\n"
                                  for i, ln in enumerate(lines))


def within(value: float, ref: float, tol: Tol, peak: float) -> bool:
    diff = math.remainder(value - ref, 2.0 * math.pi) if tol.phase else value - ref
    return abs(diff) <= tol.atol + tol.rtol * abs(ref) + tol.peak * peak


def read_known(path: str) -> dict[str, set[tuple[int, str]]]:
    """refs/known.csv: command -> {(data row number, column)} of the cells that
    miss their tolerance at the baseline because of a documented defect."""
    known: dict[str, set[tuple[int, str]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            known.setdefault(r["command"], set()).add((int(r["row"]), r["column"]))
    return known


def check_output(name: str, cmd: Command, text: str | None, ref_text: str,
                 known: frozenset | set = frozenset()) -> Tally:
    """Check ``text`` (None when the command produced nothing) against the reference.

    ``known`` holds the (data row number, column) cells that may miss their
    tolerance inside the column's ``cmd.known`` envelope; a miss anywhere else
    is a failure.
    """
    ref = parse_table(ref_text)
    header, rows = ref[0], ref[1:]
    value_cols = [i for i, h in enumerate(header) if h in cmd.values]
    key_cols = [i for i in range(len(header)) if i not in value_cols]
    t = Tally(expected=len(rows) * len(value_cols))

    def unproduced(reason: str) -> Tally:
        t.missing = t.expected
        t.note(f"{name}: {reason}")
        return t

    if text is None:
        return unproduced("no output")
    out = parse_table(text)
    if not out or out[0] != header:
        return unproduced("header differs from the reference")
    if len(out) - 1 > len(rows):
        t.note(f"{name}: {len(out) - 1 - len(rows)} rows more than the reference")
    peaks = {i: max((abs(float(r[i])) for r in rows), default=0.0) for i in value_cols}
    for k, r in enumerate(rows):
        o = out[k + 1] if k + 1 < len(out) else None
        if o is None or len(o) != len(header) or any(o[i] != r[i] for i in key_cols):
            t.missing += len(value_cols)
            t.note(f"{name}: row {k + 1} missing or keyed differently")
            continue
        for i in value_cols:
            col = header[i]
            try:
                v = float(o[i])
            except ValueError:
                v = math.nan
            ref_v = float(r[i])
            if math.isfinite(v) and within(v, ref_v, cmd.rows.get(r[0], cmd.values[col]),
                                           peaks[i]):
                t.passed += 1
            elif (k + 1, col) in known and math.isfinite(v) and \
                    within(v, ref_v, cmd.known[col], peaks[i]):
                t.known += 1
            else:
                t.failed += 1
                t.note(f"{name}: {col} at row {k + 1} is {o[i]}, reference {r[i]}")
    return t
