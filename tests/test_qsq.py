"""Query-subquery (top-down) evaluator tests."""

import pytest

from repro import Database, parse_query
from repro.errors import NotApplicableError
from repro.exec.qsq import QSQEngine, qsq_evaluate
from repro.exec.strategies import run_strategy
from repro.rewriting.adornment import adorn_query


class TestBasics:
    def test_sg_answers(self, sg_query, sg_db):
        answers, _engine = qsq_evaluate(sg_query, sg_db)
        assert answers == {("e1",), ("f1",)}

    def test_only_relevant_subqueries(self, sg_query):
        db = Database.from_text("""
            up(a, b). flat(b, b1). down(b1, c1).
            up(z, w). flat(w, w1). down(w1, w2).
        """)
        answers, engine = qsq_evaluate(sg_query, db)
        assert answers == {("c1",)}
        # Subqueries raised: a and b only — never z or w.
        bindings = engine.subqueries[("sg__bf", 2)]
        assert bindings == {("a",), ("b",)}

    def test_memo_matches_magic_set(self, sg_query, sg_db):
        qsq = run_strategy("qsq", sg_query, sg_db)
        magic = run_strategy("magic", sg_query, sg_db)
        assert qsq.answers == magic.answers
        # Subqueries correspond to magic tuples.
        assert qsq.extras["subqueries"] == \
            magic.extras["magic_set_size"]

    def test_cyclic_data_terminates(self, sg_query, example5_db):
        answers, _engine = qsq_evaluate(sg_query, example5_db)
        assert answers == {("h",), ("j",), ("l",)}

    def test_nonlinear_program(self):
        query = parse_query("""
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            ?- tc(a, Y).
        """)
        db = Database.from_text("arc(a, b). arc(b, c). arc(x, y).")
        answers, _engine = qsq_evaluate(query, db)
        assert answers == {("b",), ("c",)}

    def test_base_goal(self):
        query = parse_query("p(X) :- q(X). ?- arc(a, Y).")
        db = Database.from_text("arc(a, b).")
        answers, _engine = qsq_evaluate(query, db)
        assert answers == {("b",)}

    def test_matches_naive_on_all_workloads(self):
        from repro.data import WORKLOADS

        for workload in WORKLOADS.values():
            db, _source = workload.make_db()
            expected = run_strategy("naive", workload.query, db).answers
            result = run_strategy("qsq", workload.query, db)
            assert result.answers == expected, workload.name


class TestNegationPolicy:
    def test_base_negation_supported(self):
        query = parse_query("""
            ok(X) :- cand(X), not bad(X).
            ?- ok(X).
        """)
        db = Database.from_text("cand(a). cand(b). bad(b).")
        answers, _engine = qsq_evaluate(query, db)
        assert answers == {("a",)}

    def test_derived_negation_refused(self):
        query = parse_query("""
            reach(X) :- start(X).
            reach(Y) :- reach(X), arc(X, Y).
            lost(X) :- node(X), not reach(X).
            ?- lost(X).
        """)
        db = Database.from_text("start(a). arc(a, b). node(c).")
        adorned = adorn_query(query)
        with pytest.raises(NotApplicableError):
            QSQEngine(adorned, db)


class TestWorkProfile:
    def test_tracks_magic_not_counting(self, sg_query):
        from repro.data.workloads import sg_tree

        db, _source = sg_tree(fanout=2, depth=5)
        qsq = run_strategy("qsq", sg_query, db)
        magic = run_strategy("magic", sg_query, db)
        pointer = run_strategy("pointer_counting", sg_query, db)
        # Same family as magic: within 3x either way...
        assert qsq.stats.total_work < 3 * magic.stats.total_work
        # ...and clearly above the counting method.
        assert pointer.stats.total_work < qsq.stats.total_work
