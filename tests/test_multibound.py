"""Queries with several bound arguments: counting-set nodes are value
*tuples*, not scalars.

The canonical form allows the bound list ``X`` to have any width; the
counting table keys rows by the whole tuple.  This suite runs a
two-bound-argument same-generation variant through every strategy.
"""

import pytest

from repro import Database, parse_query
from repro.errors import ReproError
from repro.exec.strategies import STRATEGIES, run_strategy

# Nodes are (city, line) pairs; a trip segment moves both coordinates.
QUERY = parse_query("""
    conn(C, L, Y) :- hub(C, L, Y).
    conn(C, L, Y) :- leg(C, L, C1, L1), conn(C1, L1, Y1), ret(Y1, Y).
    ?- conn(paris, metro, Y).
""")


def make_db(depth=6):
    db = Database()
    cities = ["paris", "lyon", "nice", "lille", "metz", "brest", "dijon"]
    lines = ["metro", "tgv"]
    for i in range(depth):
        db.add_fact(
            "leg",
            cities[i % len(cities)], lines[i % 2],
            cities[(i + 1) % len(cities)], lines[(i + 1) % 2],
        )
    db.add_fact("hub", cities[depth % len(cities)],
                lines[depth % 2], "h0")
    for i in range(depth):
        db.add_fact("ret", "h%d" % i, "h%d" % (i + 1))
    # Unreachable clutter.
    db.add_fact("leg", "oslo", "tram", "bergen", "tram")
    db.add_fact("hub", "oslo", "tram", "x0")
    return db


class TestTwoBoundArguments:
    @pytest.mark.parametrize(
        "method",
        ["magic", "sup_magic", "classical_counting",
         "extended_counting", "reduced_counting", "pointer_counting",
         "cyclic_counting", "magic_counting", "encoded_counting"],
    )
    def test_matches_naive(self, method):
        db = make_db()
        expected = run_strategy("naive", QUERY, db).answers
        assert expected  # non-degenerate
        result = run_strategy(method, QUERY, db)
        assert result.answers == expected

    def test_counting_rows_are_pair_nodes(self):
        db = make_db()
        result = run_strategy("pointer_counting", QUERY, db)
        # depth legs + source: one row per (city, line) pair reached.
        assert result.extras["counting_rows"] == 7

    def test_cyclic_pairs(self):
        # leg relation cycles through (city, line) pairs.
        db = Database()
        db.add_fact("leg", "paris", "metro", "lyon", "tgv")
        db.add_fact("leg", "lyon", "tgv", "paris", "metro")
        db.add_fact("hub", "lyon", "tgv", "h0")
        for i in range(8):
            db.add_fact("ret", "h%d" % i, "h%d" % (i + 1))
        expected = run_strategy("naive", QUERY, db).answers
        assert run_strategy("cyclic_counting", QUERY, db).answers \
            == expected
        assert run_strategy("magic_counting", QUERY, db).answers \
            == expected
        with pytest.raises(ReproError):
            run_strategy("classical_counting", QUERY, db)

    def test_magic_seed_width(self):
        from repro.rewriting import magic_rewrite

        rewriting = magic_rewrite(QUERY)
        assert rewriting.seed.head.arity == 2

    def test_counting_seed_width(self):
        from repro.rewriting import extended_counting_rewrite

        rewriting = extended_counting_rewrite(QUERY)
        seed = rewriting.counting_rules[0]
        assert seed.head.arity == 3  # two bound values + path
