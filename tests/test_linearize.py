"""Square-rule linearization tests (the §6 extension direction)."""

import random

import pytest

from repro import Database, optimize, parse_program, parse_query
from repro.datalog import Query, format_program
from repro.engine import evaluate_query
from repro.errors import NotApplicableError
from repro.exec.strategies import run_strategy
from repro.rewriting.linearize import (
    is_square_rule,
    linearize_square_rules,
)

TC = """
tc(X, Y) :- arc(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
"""


class TestDetection:
    def test_square_recognized(self):
        rule = parse_program(TC).rules[1]
        assert is_square_rule(rule)

    @pytest.mark.parametrize(
        "text",
        [
            "tc(X, Y) :- tc(X, Z), arc(Z, Y).",     # linear
            "tc(X, Y) :- tc(Z, X), tc(Z, Y).",      # wrong chaining
            "tc(X, X) :- tc(X, Z), tc(Z, X).",      # repeated head var
            "tc(X, Y) :- tc(X, Z), tc(Z, Y), ok(X).",  # extra literal
            "tc(X, Y, W) :- tc(X, Z, W), tc(Z, Y, W).",  # arity 3
        ],
    )
    def test_non_square_rejected(self, text):
        rule = parse_program(text).rules[0]
        assert not is_square_rule(rule)


class TestRewriting:
    def test_tc_becomes_right_linear(self):
        program = linearize_square_rules(parse_program(TC))
        text = format_program(program)
        assert "tc(X, Z), tc(Z, Y)" not in text
        # One linearized rule per exit rule, stepping through the exit
        # body.
        recursive = [
            r for r in program
            if any(a.pred == "tc" for a in r.body_atoms())
        ]
        assert len(recursive) == 1
        assert recursive[0].body_atoms()[0].pred == "arc"

    def test_multiple_exit_rules(self):
        program = linearize_square_rules(parse_program("""
            tc(X, Y) :- road(X, Y).
            tc(X, Y) :- rail(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
        """))
        recursive = [
            r for r in program
            if any(a.pred == "tc" for a in r.body_atoms())
        ]
        assert len(recursive) == 2
        steps = {r.body_atoms()[0].pred for r in recursive}
        assert steps == {"road", "rail"}

    def test_no_square_rule_raises(self):
        with pytest.raises(NotApplicableError):
            linearize_square_rules(parse_program(
                "tc(X, Y) :- tc(X, Z), arc(Z, Y). tc(X, Y) :- arc(X, Y)."
            ))

    def test_mixed_clique_refused(self):
        with pytest.raises(NotApplicableError):
            linearize_square_rules(parse_program("""
                tc(X, Y) :- arc(X, Y).
                tc(X, Y) :- tc(X, Z), tc(Z, Y).
                tc(X, Y) :- tc(X, Z), hop(Z, Y).
            """))

    def test_no_exit_rule_refused(self):
        with pytest.raises(NotApplicableError):
            linearize_square_rules(parse_program(
                "tc(X, Y) :- tc(X, Z), tc(Z, Y)."
            ))


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_closure_on_random_graphs(self, seed):
        rng = random.Random(seed)
        program = parse_program(TC)
        linearized = linearize_square_rules(program)
        db = Database()
        n = rng.randrange(3, 9)
        for _ in range(rng.randrange(2, 3 * n)):
            db.add_fact("arc", "n%d" % rng.randrange(n),
                        "n%d" % rng.randrange(n))
        goal = parse_query(TC + "?- tc(X, Y).").goal
        original = evaluate_query(Query(goal, program), db)
        rewritten = evaluate_query(Query(goal, linearized), db)
        assert original.answers == rewritten.answers

    def test_multi_exit_equivalence(self):
        program = parse_program("""
            tc(X, Y) :- road(X, Y).
            tc(X, Y) :- rail(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
        """)
        linearized = linearize_square_rules(program)
        db = Database.from_text("""
            road(a, b). rail(b, c). road(c, d). rail(d, a).
        """)
        goal = parse_query(
            "p(X) :- q(X). ?- tc(X, Y)."
        ).goal
        original = evaluate_query(Query(goal, program), db)
        rewritten = evaluate_query(Query(goal, linearized), db)
        assert original.answers == rewritten.answers


class TestPipelineIntegration:
    def test_optimizer_linearizes_tc(self):
        query = parse_query(TC + "?- tc(a, Y).")
        db = Database.from_text("""
            arc(a, b). arc(b, c). arc(c, d). arc(x, y).
        """)
        plan = optimize(query, db)
        assert plan.method != "magic"
        assert "linearization" in plan.reason
        result = plan.execute(db)
        naive = run_strategy("naive", query, db)
        assert result.answers == naive.answers == {
            ("b",), ("c",), ("d",)
        }

    def test_optimizer_linearizes_cyclic_tc(self):
        query = parse_query(TC + "?- tc(a, Y).")
        db = Database.from_text("arc(a, b). arc(b, a). arc(b, c).")
        plan = optimize(query, db)
        assert "linearization" in plan.reason
        result = plan.execute(db)
        assert result.answers == run_strategy("naive", query, db).answers

    def test_truly_nonlinear_still_magic(self):
        # A non-square non-linear rule: no linearization applies.
        query = parse_query("""
            p(X, Y) :- base(X, Y).
            p(X, Y) :- p(X, Z), p(Y, Z).
            ?- p(a, Y).
        """)
        plan = optimize(query)
        assert plan.method == "magic"
