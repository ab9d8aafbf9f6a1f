"""Classical counting method tests (Example 1, §1)."""

import pytest

from repro import Database, parse_query
from repro.engine import evaluate_query
from repro.errors import CountingDivergenceError, NotApplicableError
from repro.exec.strategies import run_strategy
from repro.rewriting.counting import classical_counting_rewrite


class TestStructure:
    def test_example1_program(self, sg_query):
        rewriting = classical_counting_rewrite(sg_query)
        assert len(rewriting.counting_rules) == 2
        assert len(rewriting.modified_rules) == 2
        seed = rewriting.counting_rules[0]
        assert seed.head.pred == "c_sg__bf"
        assert seed.head.args[-1].value == 0

    def test_counting_rule_increments(self, sg_query):
        rewriting = classical_counting_rewrite(sg_query)
        rule = rewriting.counting_rules[1]
        body_preds = [a.pred for a in rule.body_atoms()]
        assert body_preds == ["c_sg__bf", "up"]
        assert any(c.op == "is" for c in rule.comparisons())

    def test_goal_at_level_zero(self, sg_query):
        rewriting = classical_counting_rewrite(sg_query)
        goal = rewriting.query.goal
        assert goal.args[-1].value == 0

    def test_bound_argument_dropped(self, sg_query):
        # The paper's "further optimized" form drops the redundant
        # bound argument: sg(Y, I), not sg(X, Y, I).
        rewriting = classical_counting_rewrite(sg_query)
        assert rewriting.answer_pred[1] == 2


class TestApplicability:
    def test_two_rules_rejected(self, example3_query):
        with pytest.raises(NotApplicableError):
            classical_counting_rewrite(example3_query)

    def test_shared_vars_rejected(self, example4_query):
        with pytest.raises(NotApplicableError):
            classical_counting_rewrite(example4_query)

    def test_mutual_recursion_rejected(self):
        query = parse_query("""
            even(X, Y) :- flat(X, Y).
            even(X, Y) :- up(X, X1), odd(X1, Y1), down(Y1, Y).
            odd(X, Y) :- up(X, X1), even(X1, Y1), down(Y1, Y).
            ?- even(a, Y).
        """)
        with pytest.raises(NotApplicableError):
            classical_counting_rewrite(query)

    def test_nonlinear_rejected(self):
        query = parse_query("""
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            ?- tc(a, Y).
        """)
        with pytest.raises(NotApplicableError):
            classical_counting_rewrite(query)


class TestSemantics:
    def test_example1_answers(self, sg_query, sg_db):
        rewriting = classical_counting_rewrite(sg_query)
        result = evaluate_query(rewriting.query, sg_db)
        assert result.answers == {("e1",), ("f1",)}

    def test_matches_naive_on_chains(self, sg_query):
        from repro.data.workloads import sg_chain

        db, _source = sg_chain(depth=10)
        rewriting = classical_counting_rewrite(sg_query)
        counting = evaluate_query(rewriting.query, db)
        naive = evaluate_query(sg_query, db)
        assert counting.answers == naive.answers

    def test_levels_recorded(self, sg_query, sg_db):
        from repro.engine import SemiNaiveEngine

        rewriting = classical_counting_rewrite(sg_query)
        engine = SemiNaiveEngine(rewriting.query.program, sg_db)
        derived = engine.run()
        counting = derived[rewriting.counting_pred]
        assert ("a", 0) in counting
        assert ("b", 1) in counting
        assert ("c", 2) in counting

    def test_divergence_on_cycle(self, sg_query, example5_db):
        with pytest.raises(CountingDivergenceError):
            run_strategy("classical_counting", sg_query, example5_db)

    def test_runner_answers(self, sg_query, sg_db):
        result = run_strategy("classical_counting", sg_query, sg_db)
        assert result.answers == {("e1",), ("f1",)}
        assert result.extras["counting_set_size"] == 3

    def test_irrelevant_facts_not_counted(self, sg_query):
        db = Database.from_text("""
            up(a, b). flat(b, b1). down(b1, c1).
            up(z, w). flat(w, w1). down(w1, w2).
        """)
        result = run_strategy("classical_counting", sg_query, db)
        # Counting set holds only a and b, not z/w.
        assert result.extras["counting_set_size"] == 2
        assert result.answers == {("c1",)}
