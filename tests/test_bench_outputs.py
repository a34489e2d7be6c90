"""Every benchmark command, run in this process and scored against bench/refs."""

import os
import sys

import pytest

import kerrcat.cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """(worker module, {command: (exit code, output)}) of one pass over every
    command in bench/workloads.py, each with kerrcat's caches cleared first."""
    sys.path.insert(0, BENCH)
    try:
        import worker
    finally:
        sys.path.remove(BENCH)
    _, results = worker.run_pass(kerrcat.cli, list(worker.COMMANDS),
                                 worker.lru_caches("kerrcat"),
                                 str(tmp_path_factory.mktemp("bench")))
    return worker, results


def test_every_output_matches_reference(bench):
    worker, results = bench
    tally, per_command = worker.check_results(results, os.path.join(BENCH, "refs"))
    assert tally.ok, (per_command, tally.problems)       # no failed or missing value


def test_perturbed_value_fails(bench):
    worker, results = bench
    rows = worker.check.parse_table(results["table1"][1])
    row = next(r for r in rows if r[0] == "max_fidelity_n60")
    row[1] = repr(float(row[1]) + 1.0)          # a fidelity above 1
    text = "".join(",".join(r) + "\n" for r in rows)
    tally, per_command = worker.check_results({"table1": (0, text)},
                                              os.path.join(BENCH, "refs"))
    assert (per_command["table1"]["failed"], per_command["table1"]["missing"]) == (1, 0)
    assert not tally.ok
