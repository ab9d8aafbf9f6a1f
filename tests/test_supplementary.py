"""Supplementary magic-set rewriting tests."""

import pytest

from repro import Database, parse_query
from repro.engine import SemiNaiveEngine, evaluate_query
from repro.exec.strategies import run_strategy
from repro.rewriting.supplementary import supplementary_magic_rewrite


class TestStructure:
    def test_linear_rule_gets_one_sup(self, sg_query):
        rewriting = supplementary_magic_rewrite(sg_query)
        assert len(rewriting.sup_rules) == 1
        sup = rewriting.sup_rules[0]
        assert sup.head.pred.startswith("sup_")

    def test_sup_keeps_only_needed_vars(self, sg_query):
        rewriting = supplementary_magic_rewrite(sg_query)
        sup = rewriting.sup_rules[0]
        # After up(X, X1), sg(X1, Y1): only Y1 is still needed (by
        # down(Y1, Y) and the head's Y comes from down); X is needed by
        # the head. Hence {X, Y1}.
        names = {arg.name for arg in sup.head.args}
        assert names == {"X", "Y1"}

    def test_modified_rule_uses_sup(self, sg_query):
        rewriting = supplementary_magic_rewrite(sg_query)
        rec = [
            rule for rule in rewriting.modified_rules
            if any(a.pred == "down" for a in rule.body_atoms())
        ][0]
        assert rec.body[0].pred.startswith("sup_")
        assert rec.body[1].pred == "down"

    def test_exit_rule_guarded_not_supped(self, sg_query):
        rewriting = supplementary_magic_rewrite(sg_query)
        exit_rule = [
            rule for rule in rewriting.modified_rules
            if any(a.pred == "flat" for a in rule.body_atoms())
        ][0]
        assert exit_rule.body[0].pred == "m_sg__bf"

    def test_nonlinear_rule_gets_two_sups(self):
        query = parse_query("""
            tc(X, Y) :- arc(X, Y).
            tc(X, Y) :- tc(X, Z), tc(Z, Y).
            ?- tc(a, Y).
        """)
        rewriting = supplementary_magic_rewrite(query)
        assert len(rewriting.sup_rules) == 2

    def test_distinct_sup_names_across_adornments(self):
        # Both adorned variants of the recursive rule keep the source
        # label; sup predicates must still be distinct.
        query = parse_query("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(Y1, X1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        rewriting = supplementary_magic_rewrite(query)
        names = [rule.head.pred for rule in rewriting.sup_rules]
        assert len(names) == len(set(names))

    def test_base_goal_noop(self):
        query = parse_query("p(X) :- q(X). ?- base(a, Y).")
        rewriting = supplementary_magic_rewrite(query)
        assert rewriting.sup_rules == ()
        assert rewriting.query.goal == query.goal


class TestSemantics:
    def test_sg_answers(self, sg_query, sg_db):
        rewriting = supplementary_magic_rewrite(sg_query)
        result = evaluate_query(rewriting.query, sg_db)
        assert result.answers == {("e1",), ("f1",)}

    def test_matches_basic_magic_everywhere(self):
        from repro.data import WORKLOADS

        for workload in WORKLOADS.values():
            db, _source = workload.make_db()
            basic = run_strategy("magic", workload.query, db)
            sup = run_strategy("sup_magic", workload.query, db)
            assert sup.answers == basic.answers, workload.name

    def test_prefix_not_reevaluated(self):
        # With two derived body occurrences the basic rewriting
        # re-evaluates a growing prefix for the second magic rule and
        # once more in the modified rule; the sup chain evaluates each
        # segment once.
        query = parse_query("""
            q(X, Y) :- link(X, Y).
            p(X, Y) :- big1(X, A), q(A, B), big2(B, C), q(C, Y).
            ?- p(a, Y).
        """)
        db = Database.from_text("big2(b, c). link(c, win).")
        for i in range(50):
            db.add_fact("big1", "a", "k%d" % i)
            db.add_fact("link", "k%d" % i, "b")
        basic = run_strategy("magic", query, db)
        sup = run_strategy("sup_magic", query, db)
        assert sup.answers == basic.answers == {("win",)}
        assert sup.stats.tuples_scanned < basic.stats.tuples_scanned

    def test_negation_supported(self):
        query = parse_query("""
            good(X) :- cand(X), not bad(X).
            reach(X, Y) :- good(Y), arc(X, Y).
            reach(X, Y) :- reach(X, Z), arc(Z, Y), good(Y).
            ?- reach(a, Y).
        """)
        db = Database.from_text("""
            cand(b). cand(c). bad(c).
            arc(a, b). arc(b, c).
        """)
        sup = run_strategy("sup_magic", query, db)
        naive = run_strategy("naive", query, db)
        assert sup.answers == naive.answers

    def test_counting_still_beats_sup_magic(self, sg_query):
        from repro.data.workloads import sg_tree

        db, _source = sg_tree(fanout=2, depth=5)
        sup = run_strategy("sup_magic", sg_query, db)
        pointer = run_strategy("pointer_counting", sg_query, db)
        assert pointer.stats.total_work < sup.stats.total_work
