"""Random linear *programs* (not just random data) against naive.

Programs are assembled from a pool of rule templates — general,
right-linear, left-linear, shared-variable, bound-head-in-right —
over a shared set of base predicates, then evaluated on random
databases.  Every applicable strategy must agree with naive
evaluation; this is the broadest executable form of Theorems 1-3.
"""

import random

import pytest

from repro import Database, parse_query
from repro.exec.strategies import run_strategy

#: Rule templates over base predicates u1/u2 (left), d1/d2 (right),
#: uw/dw (ternary, shared variable), f (exit).
TEMPLATES = [
    "p(X, Y) :- u1(X, X1), p(X1, Y1), d1(Y1, Y).",
    "p(X, Y) :- u2(X, X1), p(X1, Y1), d2(Y1, Y).",
    "p(X, Y) :- u1(X, X1), p(X1, Y).",                 # right-linear
    "p(X, Y) :- p(X, Y1), d2(Y1, Y).",                 # left-linear
    "p(X, Y) :- uw(X, X1, W), p(X1, Y1), dw(Y1, Y, W).",  # shared var
    "p(X, Y) :- u2(X, X1), p(X1, Y1), d1(Y1, Y), d2(Y, Z).",  # extra join
]

METHODS = ("magic", "sup_magic", "cyclic_counting", "magic_counting")


def build_query(rule_indexes):
    rules = ["p(X, Y) :- f(X, Y)."]
    rules.extend(TEMPLATES[i] for i in rule_indexes)
    return parse_query("\n".join(rules) + "\n?- p(a, Y).")


def build_db(rng, nodes=7):
    db = Database()

    def n(side, i):
        return "%s%d" % (side, i)

    for pred, side_a, side_b, ternary in (
        ("u1", "x", "x", False), ("u2", "x", "x", False),
        ("d1", "y", "y", False), ("d2", "y", "y", False),
        ("uw", "x", "x", True), ("dw", "y", "y", True),
    ):
        for _ in range(rng.randrange(0, 2 * nodes)):
            a = n(side_a, rng.randrange(nodes))
            b = n(side_b, rng.randrange(nodes))
            if ternary:
                db.add_fact(pred, a, b, rng.randrange(3))
            else:
                db.add_fact(pred, a, b)
    for _ in range(rng.randrange(1, nodes)):
        db.add_fact("f", n("x", rng.randrange(nodes)),
                    n("y", rng.randrange(nodes)))
    db.add_fact("u1", "a", "x0")
    db.add_fact("u2", "a", "x1")
    return db


@pytest.mark.parametrize("seed", range(30))
def test_random_program_random_data(seed):
    rng = random.Random(seed)
    rule_count = rng.randrange(1, 4)
    rule_indexes = [
        rng.randrange(len(TEMPLATES)) for _ in range(rule_count)
    ]
    query = build_query(rule_indexes)
    db = build_db(rng)
    expected = run_strategy("naive", query, db).answers
    for method in METHODS:
        result = run_strategy(method, query, db)
        assert result.answers == expected, (
            "seed=%d rules=%r method=%s" % (seed, rule_indexes, method)
        )


@pytest.mark.parametrize("seed", range(15))
def test_random_program_acyclic_data(seed):
    """Acyclic left graphs additionally exercise the list, pointer and
    reduced variants (Theorem 1 / Theorem 3)."""
    rng = random.Random(1000 + seed)
    rule_indexes = [
        rng.randrange(len(TEMPLATES))
        for _ in range(rng.randrange(1, 4))
    ]
    query = build_query(rule_indexes)
    db = Database()
    nodes = 7

    def forward_pairs(count):
        pairs = []
        for _ in range(count):
            i = rng.randrange(nodes - 1)
            j = rng.randrange(i + 1, nodes)
            pairs.append((i, j))
        return pairs

    for pred in ("u1", "u2"):
        for i, j in forward_pairs(rng.randrange(0, 2 * nodes)):
            db.add_fact(pred, "x%d" % i, "x%d" % j)
    for i, j in forward_pairs(rng.randrange(0, 2 * nodes)):
        db.add_fact("uw", "x%d" % i, "x%d" % j, rng.randrange(3))
    for pred, ternary in (("d1", False), ("d2", False), ("dw", True)):
        for _ in range(rng.randrange(0, 2 * nodes)):
            a = "y%d" % rng.randrange(nodes)
            b = "y%d" % rng.randrange(nodes)
            if ternary:
                db.add_fact(pred, a, b, rng.randrange(3))
            else:
                db.add_fact(pred, a, b)
    for _ in range(rng.randrange(1, nodes)):
        db.add_fact("f", "x%d" % rng.randrange(nodes),
                    "y%d" % rng.randrange(nodes))
    db.add_fact("u1", "a", "x0")

    expected = run_strategy("naive", query, db).answers
    # The u-side only has forward arcs, so the left graph is acyclic
    # and every counting variant must apply without a ReproError.
    for method in ("extended_counting", "reduced_counting",
                   "pointer_counting") + METHODS:
        result = run_strategy(method, query, db)
        assert result.answers == expected, (
            "seed=%d rules=%r method=%s" % (seed, rule_indexes, method)
        )
