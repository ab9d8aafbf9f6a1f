"""Property-based tests for the extension strategies and the planner.

Complements ``test_property_based.py``: the hybrid (magic-counting),
supplementary magic and the join-order planner must preserve answers
on arbitrary random databases, cyclic or not.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, parse_program, parse_query
from repro.engine import evaluate_program
from repro.exec.strategies import run_strategy

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

node_ids = st.integers(min_value=0, max_value=8)
arc_lists = st.lists(
    st.tuples(node_ids, node_ids), min_size=0, max_size=20
)
shared_values = st.integers(min_value=0, max_value=3)

SG = parse_query("""
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
""")

SHARED = parse_query("""
    p(X, Y) :- flat(X, Y).
    p(X, Y) :- up(X, X1, W), p(X1, Y1), down(Y1, Y, W).
    ?- p(a, Y).
""")

MIXED = parse_query("""
    p(X, Y) :- flat(X, Y).
    p(X, Y) :- up(X, X1), p(X1, Y).
    p(X, Y) :- p(X, Y1), down(Y1, Y).
    ?- p(a, Y).
""")


def node(i):
    return "n%d" % i


def sg_db(ups, flats, downs):
    db = Database()
    for i, j in ups:
        db.add_fact("up", node(i), node(j))
    for i, j in flats:
        db.add_fact("flat", node(i), "m%d" % j)
    for i, j in downs:
        db.add_fact("down", "m%d" % i, "m%d" % j)
    db.add_fact("up", "a", node(0))
    return db


class TestHybridProperties:
    @SLOW
    @given(arc_lists, arc_lists, arc_lists)
    def test_magic_counting_matches_naive(self, ups, flats, downs):
        db = sg_db(ups, flats, downs)
        expected = run_strategy("naive", SG, db).answers
        assert run_strategy("magic_counting", SG, db).answers == expected

    @SLOW
    @given(
        st.lists(
            st.tuples(node_ids, node_ids, shared_values), max_size=16
        ),
        arc_lists,
        st.lists(
            st.tuples(node_ids, node_ids, shared_values), max_size=16
        ),
    )
    def test_hybrid_with_shared_variables(self, ups, flats, downs):
        db = Database()
        for i, j, w in ups:
            db.add_fact("up", node(i), node(j), w)
        for i, j in flats:
            db.add_fact("flat", node(i), "m%d" % j)
        for i, j, w in downs:
            db.add_fact("down", "m%d" % i, "m%d" % j, w)
        db.add_fact("up", "a", node(0), 0)
        expected = run_strategy("naive", SHARED, db).answers
        assert run_strategy("magic_counting", SHARED, db).answers \
            == expected
        assert run_strategy("cyclic_counting", SHARED, db).answers \
            == expected


class TestSupMagicProperties:
    @SLOW
    @given(arc_lists, arc_lists, arc_lists)
    def test_sup_magic_matches_naive(self, ups, flats, downs):
        db = sg_db(ups, flats, downs)
        expected = run_strategy("naive", SG, db).answers
        assert run_strategy("sup_magic", SG, db).answers == expected

    @SLOW
    @given(arc_lists, arc_lists, arc_lists)
    def test_sup_magic_on_mixed_linear(self, ups, flats, downs):
        db = sg_db(ups, flats, downs)
        expected = run_strategy("naive", MIXED, db).answers
        assert run_strategy("sup_magic", MIXED, db).answers == expected


class TestPlannerProperty:
    @settings(max_examples=40, deadline=None)
    @given(arc_lists, st.permutations(["arc1", "arc2", "filter"]))
    def test_reordered_bodies_preserve_fixpoints(self, arcs, order):
        body = {
            "arc1": "e(X, Z)",
            "arc2": "f(Z, Y)",
            "filter": "g(Y)",
        }
        text = "p(X, Y) :- %s.\n" % ", ".join(body[k] for k in order)
        program = parse_program(text)
        db = Database()
        for i, j in arcs:
            db.add_fact("e", node(i), node(j))
            db.add_fact("f", node(j), "m%d" % i)
            db.add_fact("g", "m%d" % i)
        plain = evaluate_program(program, db)
        planned = evaluate_program(program, db, reorder=True)
        plain_p = plain.get(("p", 2))
        planned_p = planned.get(("p", 2))
        assert (plain_p.tuples if plain_p else set()) \
            == (planned_p.tuples if planned_p else set())
