"""End-to-end integration flows combining several subsystems."""

import pytest

from repro import Database, optimize, parse_query
from repro.datalog import Query, unfold_all_nonrecursive
from repro.exec.strategies import run_strategy


class TestUnfoldThenCount:
    QUERY_TEXT = """
        hop(X, Y) :- up(X, Y).
        hop(X, Y) :- lift(X, Y).
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- hop(X, X1), sg(X1, Y1), down(Y1, Y).
        ?- sg(a, Y).
    """

    def db(self):
        return Database.from_text("""
            up(a, b). lift(b, c).
            flat(c, c1). down(c1, d1). down(d1, e1).
        """)

    def test_unfolded_program_counts_without_support(self):
        query = parse_query(self.QUERY_TEXT)
        flattened = Query(
            query.goal,
            unfold_all_nonrecursive(query.program, keep=[("sg", 2)]),
        )
        db = self.db()
        expected = run_strategy("naive", query, db).answers
        result = run_strategy("pointer_counting", flattened, db)
        assert result.answers == expected == {("e1",)}
        # The unfolded clique now has one arc per base alternative.
        assert result.extras["counting_rows"] == 3

    def test_unfolded_matches_supported_everywhere(self):
        query = parse_query(self.QUERY_TEXT)
        flattened = Query(
            query.goal,
            unfold_all_nonrecursive(query.program, keep=[("sg", 2)]),
        )
        db = self.db()
        for method in ("magic", "cyclic_counting", "extended_counting"):
            direct = run_strategy(method, query, db)
            unfolded = run_strategy(method, flattened, db)
            assert direct.answers == unfolded.answers, method


class TestOptimizeAcrossDataShapes:
    """The same query routed to different methods as the data changes."""

    QUERY_TEXT = """
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
        ?- sg(a, Y).
    """

    def test_routing(self):
        query = parse_query(self.QUERY_TEXT)
        acyclic = Database.from_text(
            "up(a, b). flat(b, m). down(m, n)."
        )
        cyclic = Database.from_text(
            "up(a, b). up(b, a). flat(b, m). down(m, n)."
        )
        plans = {
            "acyclic": optimize(query, acyclic),
            "cyclic": optimize(query, cyclic),
            "no-db": optimize(query),
        }
        assert plans["acyclic"].method == "pointer_counting"
        assert plans["cyclic"].method == "cyclic_counting"
        assert plans["no-db"].method == "cyclic_counting"
        for name, db in (("acyclic", acyclic), ("cyclic", cyclic)):
            result = plans[name].execute(db)
            assert result.answers == run_strategy("naive", query, db).answers

    def test_plan_reusable_across_databases(self):
        # A plan built without a database is a prepared query.
        query = parse_query(self.QUERY_TEXT)
        plan = optimize(query)
        db1 = Database.from_text("up(a, b). flat(b, m). down(m, n).")
        db2 = Database.from_text(
            "up(a, c). flat(c, p). down(p, q). down(q, r)."
        )
        assert plan.execute(db1).answers == {("n",)}
        assert plan.execute(db2).answers == {("q",)}


class TestTraceOnOptimizedProgram:
    def test_reduced_program_traceable(self, example6_query, example6_db):
        from repro import extended_counting_rewrite, reduce_rewriting
        from repro.engine import DerivationTrace, SemiNaiveEngine

        reduced = reduce_rewriting(
            extended_counting_rewrite(example6_query)
        )
        trace = DerivationTrace()
        engine = SemiNaiveEngine(
            reduced.query.program, example6_db, trace=trace
        )
        engine.run()
        tree = trace.explain(reduced.query.goal.key, ("w",))
        text = tree.render()
        assert "c_p__bf" in text  # counting seed appears in the proof
        assert "down(" in text
