"""E3 — Example 3 / §3.1: multiple linear recursive rules.

The classical counting method is inapplicable (two recursive rules);
the extended method's path argument records the rule sequence and
replays it in reverse.  Workload: alternating up1/up2 chains with
matching down1/down2 chains, so answers only appear when the rule
sequence is replayed exactly.

Shape asserted: classical counting raises NotApplicableError; extended
and pointer counting match naive answers and beat magic on work.
"""

import pytest

from conftest import register_table
from _common import (
    assert_claims,
    error_of,
    make_timer,
    wall_clock_table,
    work_of,
)

from repro.bench import matrix_table, run_matrix
from repro.data.workloads import WORKLOADS
from repro.errors import NotApplicableError

WORKLOAD = WORKLOADS["multi_rule"]
METHODS = [
    "naive", "magic", "classical_counting", "extended_counting",
    "pointer_counting",
]
DEPTHS = [8, 16, 32]


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
        "e3_multirule",
        matrix_table(
            collected,
            title="E3: two recursive rules (Example 3), alternating "
                  "chains",
        ),
    )
    register_table(
        "e3_wall_clock",
        wall_clock_table(
            "E3: pointer counting vs magic, best of 5",
            WORKLOAD.query,
            [("depth=%d" % depth, WORKLOAD.make_db(depth=depth)[0])
             for depth in DEPTHS],
        ),
    )
    return collected


@pytest.mark.parametrize(
    "method",
    ["magic", "extended_counting", "pointer_counting"],
)
def test_e3_time_depth16(benchmark, method, rows):
    db, _source = WORKLOAD.make_db(depth=16)
    benchmark(make_timer(WORKLOAD.query, db, method))


def test_e3_classical_inapplicable(rows, benchmark):
    def check():
        for depth in DEPTHS:
            error = error_of(rows, "depth=%d" % depth,
                             "classical_counting")
            assert isinstance(error, NotApplicableError)

    assert_claims(benchmark, check)


def test_e3_extended_beats_magic(rows, benchmark):
    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            assert work_of(rows, label, "pointer_counting") \
                < work_of(rows, label, "magic")

    assert_claims(benchmark, check)
