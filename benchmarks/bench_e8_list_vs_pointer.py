"""E8 — §3.1/§3.4: list path arguments vs the pointer implementation.

"The use of lists could result in a performance overhead ... We will
later propose a more efficient technique using pointers."  The
list-based program re-materializes each path prefix as a value; the
pointer table stores one id per node and unwinds by direct access.

Workload: the two-rule program of Example 3 over alternating chains of
growing depth (every level has a flat crossing, so answers exist at
all depths and both phases do real work).

Shape asserted: pointer counting does less work than the list-based
extended program at every depth, and the gap grows with depth.
"""

import pytest

from conftest import register_table
from _common import assert_claims, make_timer, wall_clock_table, work_of

from repro.bench import matrix_table, run_matrix
from repro.data.workloads import WORKLOADS

WORKLOAD = WORKLOADS["multi_rule"]
METHODS = ["encoded_counting", "extended_counting", "pointer_counting"]
DEPTHS = [8, 16, 32, 64]


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
        "e8_list_vs_pointer",
        matrix_table(
            collected,
            title="E8: [15] integer-encoded log vs Algorithm 1 lists "
                  "vs pointer implementation (§3.4)",
            baseline="extended_counting",
            extra_columns=("max_index_bits",),
        ),
    )
    register_table(
        "e8_wall_clock",
        wall_clock_table(
            "E8: pointer counting vs magic, best of 5",
            WORKLOAD.query,
            [("depth=%d" % depth, WORKLOAD.make_db(depth=depth)[0])
             for depth in DEPTHS],
        ),
    )
    return collected


def test_e8_encoded_integers_grow_exponentially(rows, benchmark):
    """§3.4 on [15]: "the size of the number grows exponentially with
    the number of steps" — bit length grows linearly with depth, so
    the value itself is exponential, while pointer rows stay
    constant-size."""

    def check():
        from _common import extras_of

        bits = [
            extras_of(rows, "depth=%d" % depth, "encoded_counting")[
                "max_index_bits"
            ]
            for depth in DEPTHS
        ]
        for depth, measured in zip(DEPTHS, bits):
            assert measured >= depth  # one digit (>= 1 bit) per step
        assert bits[-1] >= 2 * bits[1]

    assert_claims(benchmark, check)


@pytest.mark.parametrize("method", METHODS)
def test_e8_time_depth32(benchmark, method, rows):
    db, _source = WORKLOAD.make_db(depth=32)
    benchmark(make_timer(WORKLOAD.query, db, method))


def test_e8_pointer_beats_lists(rows, benchmark):
    def check():
        for depth in DEPTHS:
            label = "depth=%d" % depth
            assert work_of(rows, label, "pointer_counting") \
                < work_of(rows, label, "extended_counting")

    assert_claims(benchmark, check)


def test_e8_list_storage_quadratic_pointer_linear(rows, benchmark):
    """The overhead §3.1 warns about: each counting tuple carries its
    whole path as a value, so total list storage is quadratic in depth,
    while the pointer table stores one fixed-size triple per arc."""

    def list_storage(depth):
        from repro import extended_counting_rewrite
        from repro.engine import SemiNaiveEngine

        db, _source = WORKLOAD.make_db(depth=depth)
        rewriting = extended_counting_rewrite(WORKLOAD.query)
        engine = SemiNaiveEngine(rewriting.query.program, db)
        derived = engine.run()
        cells = 0
        for key in rewriting.counting_preds.values():
            for row in derived.get(key, ()):
                cells += len(row[-1])  # entries in the path value
        return cells

    def check():
        small, large = DEPTHS[0], DEPTHS[-1]
        scale = large / small
        storage_growth = list_storage(large) / max(1, list_storage(small))
        # Quadratic: growth well beyond the linear scale factor.
        assert storage_growth > scale * 2
        # Pointer triples grow linearly: one per arc.
        from _common import extras_of

        small_triples = extras_of(
            rows, "depth=%d" % small, "pointer_counting"
        )["counting_triples"]
        large_triples = extras_of(
            rows, "depth=%d" % large, "pointer_counting"
        )["counting_triples"]
        assert large_triples <= scale * small_triples + 1

    assert_claims(benchmark, check)
