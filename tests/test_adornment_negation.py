"""Adornment of programs with negated derived atoms, and pipeline
behaviour around them."""

import pytest

from repro import Database, parse_query
from repro.exec.strategies import run_strategy
from repro.rewriting.adornment import adorn_query


QUERY_TEXT = """
    risky(X) :- watchlist(X).
    safe_reach(X, Y) :- arc(X, Y), not risky(Y).
    safe_reach(X, Y) :- safe_reach(X, Z), arc(Z, Y), not risky(Y).
    ?- safe_reach(a, Y).
"""


class TestAdornedNegation:
    def test_negated_derived_atom_gets_adorned(self):
        adorned = adorn_query(parse_query(QUERY_TEXT))
        negated = {
            atom.pred
            for rule in adorned.program
            for atom in rule.negated_atoms()
        }
        # Y is bound by arc before the negation: adornment b.
        assert "risky__b" in negated
        heads = {rule.head.pred for rule in adorned.program}
        assert "risky__b" in heads

    def test_magic_handles_negated_derived(self):
        query = parse_query(QUERY_TEXT)
        db = Database.from_text("""
            arc(a, b). arc(b, c). arc(c, d). arc(a, e).
            watchlist(c). watchlist(e).
        """)
        naive = run_strategy("naive", query, db)
        magic = run_strategy("magic", query, db)
        assert magic.answers == naive.answers == {("b",)}

    def test_negated_predicate_left_unrestricted(self):
        # Restricting a negated predicate would break stratification
        # (its magic rule would depend on the negating clique), so the
        # rewriting leaves it unguarded and generates no magic rules
        # for negated occurrences.
        from repro.datalog import ProgramAnalysis
        from repro.engine.stratify import check_stratified
        from repro.rewriting import magic_rewrite

        rewriting = magic_rewrite(parse_query(QUERY_TEXT))
        magic_heads = {rule.head.pred for rule in rewriting.magic_rules}
        assert "m_risky__b" not in magic_heads
        risky_rules = rewriting.query.program.rules_for(("risky__b", 1))
        assert all(
            not atom.pred.startswith("m_")
            for rule in risky_rules
            for atom in rule.body_atoms()
        )
        check_stratified(ProgramAnalysis(rewriting.query.program))

    def test_sup_magic_handles_negated_derived(self):
        query = parse_query(QUERY_TEXT)
        db = Database.from_text("""
            arc(a, b). arc(b, c). arc(c, d). arc(a, e).
            watchlist(c). watchlist(e).
        """)
        naive = run_strategy("naive", query, db)
        assert run_strategy("sup_magic", query, db).answers == naive.answers

    def test_unrestricted_closure_covers_helpers(self):
        # risky calls a derived helper; leaving risky unrestricted must
        # also leave the helper evaluable (no orphaned magic guard).
        query = parse_query("""
            flagged(X) :- watchlist(X).
            risky(X) :- flagged(X).
            safe_reach(X, Y) :- arc(X, Y), not risky(Y).
            safe_reach(X, Y) :- safe_reach(X, Z), arc(Z, Y),
                                not risky(Y).
            ?- safe_reach(a, Y).
        """)
        db = Database.from_text("""
            arc(a, b). arc(b, c). watchlist(c).
        """)
        naive = run_strategy("naive", query, db)
        assert naive.answers == {("b",)}
        assert run_strategy("magic", query, db).answers == naive.answers

    def test_counting_pipeline_with_lower_stratum_negation(self):
        # The negation lives in the recursive clique's rules, so the
        # canonical right part carries it; the dedicated evaluators
        # must evaluate it through the support resolver.
        query = parse_query(QUERY_TEXT)
        db = Database.from_text("""
            arc(a, b). arc(b, c). arc(c, d).
            watchlist(c).
        """)
        naive = run_strategy("naive", query, db)
        counting = run_strategy("cyclic_counting", query, db)
        assert counting.answers == naive.answers == {("b",)}

    def test_sg_with_negated_filter_in_right_part(self):
        query = parse_query("""
            blocked(Y) :- banned(Y).
            sg(X, Y) :- flat(X, Y), not blocked(Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y),
                        not blocked(Y).
            ?- sg(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). flat(b, m0). down(m0, m1).
            banned(m1).
            up(a, c). flat(c, n0). down(n0, n1).
        """)
        naive = run_strategy("naive", query, db)
        assert naive.answers == {("n1",)}
        for method in ("pointer_counting", "cyclic_counting"):
            assert run_strategy(method, query, db).answers == naive.answers
