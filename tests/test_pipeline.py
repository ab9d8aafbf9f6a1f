"""Unified optimizer (pipeline) tests."""

import pytest

from repro import Database, optimize, parse_query
from repro.rewriting.pipeline import choose_method


class TestChooseMethod:
    def test_mixed_linear_reduces(self, example6_query, example6_db):
        name, reason, _ = choose_method(example6_query, example6_db)
        assert name == "reduced_counting"
        assert "mixed-linear" in reason

    def test_acyclic_pointer(self, sg_query, sg_db):
        name, _reason, _ = choose_method(sg_query, sg_db)
        assert name == "pointer_counting"

    def test_cyclic_algorithm2(self, sg_query, example5_db):
        name, _reason, _ = choose_method(sg_query, example5_db)
        assert name == "cyclic_counting"

    def test_no_db_defaults_to_cyclic(self, sg_query):
        name, _reason, _ = choose_method(sg_query)
        assert name == "cyclic_counting"

    def test_nonlinear_falls_back_to_magic(self):
        query = parse_query("""
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            ?- tc(a, Y).
        """)
        name, reason, _ = choose_method(query)
        assert name == "magic"
        assert "non-linear" in reason or "not" in reason

    def test_base_goal_naive(self):
        query = parse_query("p(X) :- q(X). ?- arc(a, Y).")
        name, _reason, _ = choose_method(query)
        assert name == "naive"

    def test_non_recursive_goal_magic(self):
        query = parse_query("""
            grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
            ?- grandparent(a, Z).
        """)
        name, _reason, _ = choose_method(query)
        assert name == "magic"

    def test_no_exit_rule_falls_back(self):
        query = parse_query("""
            p(X, Y) :- up(X, X1), p(X1, Y).
            ?- p(a, Y).
        """)
        name, _reason, _ = choose_method(query)
        assert name == "magic"

    def test_type_checked(self):
        with pytest.raises(TypeError):
            choose_method("?- p(a).")


class TestOptimize:
    def test_auto_executes(self, sg_query, sg_db):
        plan = optimize(sg_query, sg_db)
        result = plan.execute(sg_db)
        assert result.answers == {("e1",), ("f1",)}
        assert plan.explain().startswith(plan.method)

    def test_forced_method(self, sg_query, sg_db):
        plan = optimize(sg_query, method="magic")
        assert plan.method == "magic"
        assert plan.execute(sg_db).answers == {("e1",), ("f1",)}

    def test_unknown_method_rejected(self, sg_query):
        with pytest.raises(ValueError):
            optimize(sg_query, method="quantum")

    def test_auto_matches_naive_everywhere(self):
        from repro.data import WORKLOADS
        from repro.exec.strategies import run_strategy

        for workload in WORKLOADS.values():
            db, _source = workload.make_db()
            plan = optimize(workload.query, db)
            result = plan.execute(db)
            naive = run_strategy("naive", workload.query, db)
            assert result.answers == naive.answers, workload.name

    def test_plan_repr(self, sg_query, sg_db):
        plan = optimize(sg_query, sg_db)
        assert "pointer_counting" in repr(plan)
