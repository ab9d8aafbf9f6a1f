"""Tests for the [15] integer-encoded counting method."""

import pytest

from repro import Database, parse_query
from repro.engine import SemiNaiveEngine
from repro.errors import CountingDivergenceError, NotApplicableError
from repro.exec.strategies import run_strategy
from repro.rewriting.encoded import encoded_counting_rewrite


class TestStructure:
    def test_base_is_rule_count(self, example3_query):
        rewriting = encoded_counting_rewrite(example3_query)
        assert rewriting.base == 2

    def test_seed_is_one(self, example3_query):
        rewriting = encoded_counting_rewrite(example3_query)
        seed = rewriting.counting_rules[0]
        assert seed.head.args[-1].value == 1

    def test_goal_at_one(self, example3_query):
        rewriting = encoded_counting_rewrite(example3_query)
        assert rewriting.query.goal.args[-1].value == 1

    def test_one_push_and_pop_per_rule(self, example3_query):
        rewriting = encoded_counting_rewrite(example3_query)
        assert len(rewriting.counting_rules) == 3  # seed + 2
        assert len(rewriting.modified_rules) == 3  # exit + 2


class TestApplicability:
    def test_shared_vars_rejected(self, example4_query):
        with pytest.raises(NotApplicableError):
            encoded_counting_rewrite(example4_query)

    def test_left_linear_rejected(self, example6_query):
        with pytest.raises(NotApplicableError):
            encoded_counting_rewrite(example6_query)

    def test_mutual_recursion_rejected(self):
        query = parse_query("""
            even(X, Y) :- flat(X, Y).
            even(X, Y) :- up(X, X1), odd(X1, Y1), down(Y1, Y).
            odd(X, Y) :- up(X, X1), even(X1, Y1), down(Y1, Y).
            ?- even(a, Y).
        """)
        with pytest.raises(NotApplicableError):
            encoded_counting_rewrite(query)


class TestSemantics:
    def test_two_rule_log_replayed(self, example3_query):
        from repro.data.workloads import multi_rule_chain

        db, _source = multi_rule_chain(depth=9)
        result = run_strategy("encoded_counting", example3_query, db)
        naive = run_strategy("naive", example3_query, db)
        assert result.answers == naive.answers
        assert result.answers

    def test_wrong_rule_order_rejected_by_log(self, example3_query):
        # down2 then down1 does NOT reverse up1 then up2.
        db = Database.from_text("""
            up1(a, b). up2(b, c).
            flat(c, c).
            down1(c, d). down2(d, e).
        """)
        result = run_strategy("encoded_counting", example3_query, db)
        naive = run_strategy("naive", example3_query, db)
        assert result.answers == naive.answers == frozenset()

    def test_encoded_values_recorded(self, sg_query, sg_db):
        rewriting = encoded_counting_rewrite(sg_query)
        engine = SemiNaiveEngine(rewriting.query.program, sg_db)
        derived = engine.run()
        counting = derived[rewriting.counting_pred]
        values = {row[-1] for row in counting}
        # a at 1, b at 1*2+0, c at (1*2)*2+0 — single rule, digit 0.
        assert values == {1, 2, 4}

    def test_bits_grow_linearly_with_depth(self, sg_query):
        from repro.data.workloads import sg_chain

        bits = []
        for depth in (8, 16, 32):
            db, _source = sg_chain(depth)
            result = run_strategy("encoded_counting", sg_query, db)
            bits.append(result.extras["max_index_bits"])
        # Linear bit growth = exponential value growth (§3.4 critique).
        assert bits[0] >= 8
        assert bits[1] - bits[0] == 8
        assert bits[2] - bits[1] == 16

    def test_diverges_on_cycles(self, sg_query, example5_db):
        with pytest.raises(CountingDivergenceError):
            run_strategy("encoded_counting", sg_query, example5_db)
