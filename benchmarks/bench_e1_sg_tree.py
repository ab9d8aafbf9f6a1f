"""E1 — Example 1 / §1: counting vs magic vs naive on same generation.

Workload: a forest of mirrored binary trees.  Only one tree is
reachable from the query constant; the others are distractors that an
unfocused (naive) evaluation pays for.  The paper's claim: binding
propagation (magic) skips irrelevant data, and the counting method
improves on magic by joining each level only with the previous one
("often yielding an order of magnitude of improvement").

Shape asserted: pointer counting < classical counting < magic < naive
in join work, with the counting-vs-magic gap growing with depth.
"""

import pytest

from conftest import register_table
from _common import assert_claims, make_timer, wall_clock_table, work_of

from repro import parse_query
from repro.bench import matrix_table, run_matrix
from repro.data.generators import sg_tree_db
from repro.data.workloads import _rename_source

QUERY = parse_query("""
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
""")

METHODS = ["naive", "magic", "sup_magic", "qsq", "classical_counting",
           "pointer_counting"]
DEPTHS = [4, 6, 8]
DISTRACTORS = 3


def make_db(depth, distractors=DISTRACTORS):
    db, root = sg_tree_db(2, depth)
    db = _rename_source(db, root, "a")
    for d in range(distractors):
        extra, extra_root = sg_tree_db(2, depth)
        for key in extra.keys():
            for row in extra.get(key):
                db.relation(key[0], key[1]).add(
                    tuple("x%d_%s" % (d, v) for v in row)
                )
    return db


@pytest.fixture(scope="module")
def rows():
    collected = []
    for depth in DEPTHS:
        db = make_db(depth)
        collected.extend(
            run_matrix(QUERY, db, METHODS, label="depth=%d" % depth)
        )
    register_table(
        "e1_sg_tree",
        matrix_table(
            collected,
            title="E1: same generation, mirrored binary trees + %d "
                  "distractor trees" % DISTRACTORS,
        ),
    )
    register_table(
        "e1_wall_clock",
        wall_clock_table(
            "E1: pointer counting vs magic, best of 5",
            QUERY,
            [("depth=%d" % depth, make_db(depth)) for depth in DEPTHS],
        ),
    )
    return collected


@pytest.mark.parametrize("method", METHODS)
def test_e1_time_depth6(benchmark, method, rows):
    benchmark(make_timer(QUERY, make_db(6), method))


def test_e1_counting_beats_magic_beats_naive(rows, benchmark):
    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            naive = work_of(rows, label, "naive")
            magic = work_of(rows, label, "magic")
            classical = work_of(rows, label, "classical_counting")
            pointer = work_of(rows, label, "pointer_counting")
            assert magic < naive, label
            assert classical < magic, label
            assert pointer < classical, label

    assert_claims(benchmark, check)


def test_e1_counting_beats_whole_memoing_family(rows, benchmark):
    """The counting advantage holds against every memoing-family
    baseline: basic magic, supplementary magic [6] and top-down QSQ."""

    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            pointer = work_of(rows, label, "pointer_counting")
            assert pointer < work_of(rows, label, "sup_magic")
            assert pointer < work_of(rows, label, "qsq")

    assert_claims(benchmark, check)


def test_e1_gap_grows_with_depth(rows, benchmark):
    def check():
        ratios = []
        for depth in DEPTHS:
            label = "depth=%d" % depth
            ratios.append(
                work_of(rows, label, "magic")
                / work_of(rows, label, "pointer_counting")
            )
        assert ratios[-1] > ratios[0]
        # The paper's "order of magnitude" regime at realistic depth.
        assert ratios[-1] > 3

    assert_claims(benchmark, check)
