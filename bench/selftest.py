"""Self-tests of the benchmark's checker and tracer.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import COMMANDS  # noqa: E402

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _ref(name: str) -> str:
    with open(os.path.join(REFS, f"{name}.csv"), encoding="utf-8", newline="") as fh:
        return fh.read()


def test_perturbed_value_is_failed():
    ref = _ref("table1")
    assert check.check_output("table1", COMMANDS["table1"], ref, ref).ok
    rows = check.parse_table(ref)
    rows[4][1] = repr(float(rows[4][1]) + 1e-7)          # max_fidelity_n60, tolerance 1e-9
    text = "".join(",".join(r) + "\n" for r in rows)
    t = check.check_output("table1", COMMANDS["table1"], text, ref)
    assert (t.failed, t.passed, t.expected) == (1, 7, 8)
    assert not t.ok


class FailingCli:
    @staticmethod
    def main(argv):
        return 2


def test_nonzero_exit_fails_every_value():
    with tempfile.TemporaryDirectory() as out:
        _, results = worker.run_pass(FailingCli, ["table1", "fig5"], [], out)
    assert results["table1"] == (2, None)
    tally, per_command = worker.check_results(results, REFS)
    assert tally.passed == 0 and tally.missed == tally.missing == tally.expected == 8 + 93
    assert not tally.ok


def test_nonzero_exit_of_documented_defect_command_is_incorrect():
    # The documented baseline misses excuse wrong values, not absent ones.
    for name, expected in (("fig5", 93), ("pdist_post_n4096_x0", 1453)):
        with tempfile.TemporaryDirectory() as out:
            _, results = worker.run_pass(FailingCli, [name], [], out)
        tally, _ = worker.check_results(results, REFS)
        assert (tally.missing, tally.known, tally.passed) == (expected, 0, 0)
        assert not tally.ok


def test_documented_envelope_covers_only_listed_cells():
    ref = _ref("fig5")
    known = check.read_known(os.path.join(REFS, "known.csv"))["fig5"]
    listed = min(k for k, col in known if col == "avg_fidelity_n20")
    unlisted = next(k for k in range(1, 32) if (k, "avg_fidelity_n20") not in known)

    def shifted(row):
        rows = check.parse_table(ref)
        rows[row][1] = repr(float(rows[row][1]) + 5e-7)    # tolerance 1e-8, envelope 1e-6
        return "".join(",".join(r) + "\n" for r in rows)

    t = check.check_output("fig5", COMMANDS["fig5"], shifted(listed), ref, known)
    assert (t.known, t.failed) == (1, 0) and t.ok
    t = check.check_output("fig5", COMMANDS["fig5"], shifted(unlisted), ref, known)
    assert (t.known, t.failed) == (0, 1) and not t.ok


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tr.wrap("outer", body)
    outer()                      # clock: t0=0, outer 1..6, inners 2..3 and 4..5
    assert tr.name == ["outer", "inner", "inner"]
    assert tr.parent == [-1, 0, 0]
    assert tr.self_ns() == [5 - 1 - 1, 1, 1]


def test_scipy_share_of_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     scipy.special._ufuncs",
        "import time:        15 |         20 |   scipy.special",
        "import time:       100 |        150 | kerrcat.kerr",
        "import time:        40 |         40 | numpy",
    ])
    assert abs(worker.scipy_import_s(text) - 50e-6) < 1e-12


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
