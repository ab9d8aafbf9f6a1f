"""E4 — Example 4 / §3.2: variables shared between left and right
parts, and bound head variables used on the right.

The shared values ride the path entries ((r1, [W])); bound head
variables are recovered through the counting predicate kept in the
modified rule body (the D_r case).  Workload: Example-4-shaped chains
with decoy ``down1`` arcs carrying wrong shared values, which any
incorrect treatment of C_r would follow.

Shape asserted: extended and pointer counting agree with naive (the
run_matrix answer cross-check) and do less work than magic; decoy
answers never leak.
"""

import pytest

from conftest import register_table
from _common import assert_claims, make_timer, work_of

from repro.bench import matrix_table, run_matrix
from repro.data.workloads import WORKLOADS
from repro.exec.strategies import run_strategy

WORKLOAD = WORKLOADS["shared_vars"]
METHODS = ["naive", "magic", "extended_counting", "pointer_counting"]
DEPTHS = [6, 12, 24]


@pytest.fixture(scope="module")
def rows():
    collected = []
    for depth in DEPTHS:
        db, _source = WORKLOAD.make_db(depth=depth)
        collected.extend(
            run_matrix(WORKLOAD.query, db, METHODS,
                       label="depth=%d" % depth)
        )
    register_table(
        "e4_sharedvars",
        matrix_table(
            collected,
            title="E4: shared variables between left and right parts "
                  "(Example 4) with decoy arcs",
        ),
    )
    return collected


@pytest.mark.parametrize("method", METHODS)
def test_e4_time_depth12(benchmark, method, rows):
    db, _source = WORKLOAD.make_db(depth=12)
    benchmark(make_timer(WORKLOAD.query, db, method))


def test_e4_decoys_do_not_leak(rows, benchmark):
    def check():
        db, _source = WORKLOAD.make_db(depth=12)
        answers = run_strategy("naive", WORKLOAD.query, db).answers
        assert all(not value.startswith("z") for (value,) in answers)
        # run_matrix already cross-checked every method against the
        # first; a single non-empty answer set certifies the workload
        # is non-degenerate.
        assert answers

    assert_claims(benchmark, check)


def test_e4_counting_beats_magic(rows, benchmark):
    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            assert work_of(rows, label, "pointer_counting") \
                < work_of(rows, label, "magic")

    assert_claims(benchmark, check)
