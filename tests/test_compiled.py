"""The compiled join path: agreement with the tuple-at-a-time oracle,
batched relation lookups, and constant interning.

The compiled engine's contract is strict: it must enumerate the same
results in the same order as the reference evaluator in
``tests/oracle.py`` and update the paper's work counters identically —
so most tests here are differential.
"""

import pytest

from repro import Database, parse_program
from repro.datalog.terms import Constant
from repro.engine import EvalStats, SemiNaiveEngine
from repro.engine.compile import (
    BoundQuery,
    CompiledRule,
    compile_body,
    compiled_rule,
)
from repro.engine.interning import InternPool
from repro.engine.relation import WILDCARD, EmptyRelation, Relation
from repro.engine.seminaive import evaluate_program
from repro.errors import EvaluationError
from repro.exec.strategies import run_strategy
from tests import oracle


WORK_KEYS = (
    "rule_firings", "tuples_scanned", "facts_derived",
    "facts_duplicate", "iterations", "index_probes",
)


def work_counters(stats):
    d = stats.as_dict()
    return {k: d[k] for k in WORK_KEYS}


def assert_differential(text, facts):
    """Engine and oracle agree on derived relations and work."""
    program = parse_program(text)
    engine_stats = EvalStats()
    derived = evaluate_program(
        program, Database.from_text(facts), stats=engine_stats
    )
    oracle_stats = EvalStats()
    expected = oracle.evaluate_program(
        program, Database.from_text(facts), stats=oracle_stats
    )
    assert {k: set(rel) for k, rel in derived.items()} == {
        k: set(rel) for k, rel in expected.items()
    }
    assert work_counters(engine_stats) == work_counters(oracle_stats)
    return derived, engine_stats


def outcome(evaluate, text, facts):
    """Sorted derived ``p`` rows, or the EvaluationError message."""
    program = parse_program(text)
    try:
        derived = evaluate(program, Database.from_text(facts))
    except EvaluationError as exc:
        return "error: %s" % exc
    key = program.rules[0].head.key
    return sorted(derived.get(key, ()))


class TestCompiledVsLegacy:
    """Named for the evaluator the oracle was moved out of."""

    def test_flat_join(self):
        assert_differential(
            "path(X, Y) :- edge(X, Y). "
            "path(X, Y) :- edge(X, Z), path(Z, Y).",
            "edge(a, b). edge(b, c). edge(c, d). edge(a, c).",
        )

    def test_repeated_variable(self):
        assert_differential(
            "loop(X) :- edge(X, X). refl(X, X) :- node(X).",
            "edge(a, a). edge(a, b). edge(c, c). node(a). node(b).",
        )

    def test_constants_and_comparisons(self):
        assert_differential(
            "big(X) :- val(X, N), N > 2. "
            "next(X, M) :- val(X, N), M is N + 1. "
            "special(X) :- val(X, 3).",
            "val(a, 1). val(b, 3). val(c, 5).",
        )

    def test_negation(self):
        assert_differential(
            "orphan(X) :- node(X), not parent(X). "
            "parent(X) :- edge(X, Y).",
            "node(a). node(b). node(c). edge(a, b).",
        )

    def test_structured_list_terms(self):
        # The extended-counting shape: path arguments as cons cells.
        assert_differential(
            "p(X, [X]) :- seed(X). "
            "p(Y, [Y | L]) :- p(X, L), edge(X, Y). "
            "first(H) :- p(x3, [H | T]).",
            "seed(x0). edge(x0, x1). edge(x1, x2). edge(x2, x3).",
        )

    def test_counting_strategies_match_naive(self, sg_query, sg_db):
        baseline = run_strategy("naive", sg_query, sg_db)
        for method in ("extended_counting", "pointer_counting",
                       "magic_counting"):
            result = run_strategy(method, sg_query, sg_db)
            assert result.answers == baseline.answers

    def test_enumeration_order_identical(self):
        # Order matters downstream (counting-table discovery order);
        # compare the compiled executor against the oracle's stack
        # discipline directly on one body.
        program = parse_program(
            "q(X, Z) :- e(X, Y), e(Y, Z)."
        )
        rule = program.rules[0]
        db = Database.from_text(
            "e(a, b). e(b, c). e(a, c). e(c, d). e(b, d)."
        )

        def resolver(_index, atom):
            return db.get(atom.key)

        compiled = CompiledRule(rule)
        body = compiled.compiled
        got = [
            compiled.head(slots)
            for slots in body.execute(resolver, body.make_slots())
        ]
        expected = [
            oracle.ground_head(rule.head, subst)
            for subst in oracle.evaluate_body(rule.body, resolver, {})
        ]
        assert got == expected


#: Bodies at the edge of the compiled fragment, over one fact set.
PROBE_FACTS = "e(a,b). f(a). r(1). r(2). q(1)."

ANSWER_PROBES = [
    ("alias-both-unbound",
     "p(X, Z) :- X = Y, e(X, Z), f(Y).", [("a", "b")]),
    ("partial-structure",
     "p(L) :- r(X), L = [X | T], T = [].", [((1,),), ((2,),)]),
    ("alias-chain",
     "p(X) :- r(X), X = Y, Y = Z, Z < 2.", [(1,)]),
    ("compound-vs-compound",
     "p(X) :- r(X), [X | T] = [Y | U], T = U, U = [], Y > 0.",
     [(1,), (2,)]),
    ("decompose-ground-list",
     "p(A, B) :- r(X), [A | B] = [X, 9].", [(1, (9,)), (2, (9,))]),
    ("arithmetic-alias",
     "p(X, Y) :- Y = X + 1, r(X).", [(1, 2), (2, 3)]),
]

ERROR_PROBES = [
    ("negation-unbound",
     "p(X) :- not q(X), r(X).", "negated atom q not ground"),
    ("comparison-unbound",
     "p(X) :- X < 3, r(X).", "comparison < on non-ground terms"),
    ("head-unground",
     "p(X, Y) :- r(X).", "head argument of p not ground"),
    ("head-partial-structure",
     "p(L) :- r(X), L = [X | T].", "head argument of p not ground"),
    ("is-unbound-right",
     "p(X) :- r(X), Y is Z + 1.", "right side of 'is' is not ground"),
    ("in-unbound-right",
     "p(X) :- r(X), Y in Z.", "right side of 'in' is not ground"),
    ("neq-unbound",
     "p(X) :- r(X), X != Y.", "comparison != on non-ground terms"),
]


class TestFragmentCoverage:
    """Bodies a dict-substitution evaluator accepts — or rejects — run
    through the compiled path with the same outcome."""

    @pytest.mark.parametrize(
        "text,expected", [p[1:] for p in ANSWER_PROBES],
        ids=[p[0] for p in ANSWER_PROBES],
    )
    def test_answers_match_oracle(self, text, expected):
        got = outcome(evaluate_program, text, PROBE_FACTS)
        assert got == outcome(oracle.evaluate_program, text, PROBE_FACTS)
        assert got == expected

    @pytest.mark.parametrize(
        "text,prefix", [p[1:] for p in ERROR_PROBES],
        ids=[p[0] for p in ERROR_PROBES],
    )
    def test_error_matches_oracle(self, text, prefix):
        got = outcome(evaluate_program, text, PROBE_FACTS)
        assert got == outcome(oracle.evaluate_program, text, PROBE_FACTS)
        assert got.startswith("error: " + prefix)

    def test_error_raised_when_reached(self):
        # The failing literal sits behind an empty scan: never reached,
        # so the rule derives nothing instead of raising.
        assert outcome(
            evaluate_program, "p(X) :- s(X), X < Y.", PROBE_FACTS
        ) == []

    def test_body_beyond_codegen_nesting_runs_interpreted(self):
        # Python rejects more than twenty statically nested blocks, so
        # a 21-scan body cannot be generated and runs on the
        # interpreted executor.
        length = 21
        body = ", ".join(
            "c(X%d, X%d)" % (i, i + 1) for i in range(length)
        )
        text = "p(X0, X%d) :- %s." % (length, body)
        facts = " ".join("c(n%d, n%d)." % (i, i + 1) for i in range(25))
        rule = parse_program(text).rules[0]
        assert compiled_rule(rule).compiled._runner is None
        derived, _stats = assert_differential(text, facts)
        assert sorted(derived[("p", 2)]) == [
            ("n%d" % i, "n%d" % (i + length)) for i in range(25 - length + 1)
        ]


class TestCompiledFragment:
    def test_supported_body_binds_all(self):
        program = parse_program("p(X, Y) :- e(X, Y), Y != X.")
        compiled = compile_body(program.rules[0].body)
        assert compiled is not None
        assert compiled.bound_after == {"X", "Y"}


class TestBoundQuery:
    def make_resolver(self, text):
        db = Database.from_text(text)

        def resolver(_index, atom):
            return db.get(atom.key)

        return resolver

    def test_projection(self):
        program = parse_program("q(X) :- e(X, Y), f(Y, Z).")
        body = program.rules[0].body
        resolver = self.make_resolver(
            "e(a, b). e(a, c). f(b, n1). f(c, n2)."
        )
        query = BoundQuery(body, ("X",), ("Y", "Z"))
        assert query.compiled is not None
        got = set(query.run(resolver, ("a",)))
        assert got == {("b", "n1"), ("c", "n2")}

    def test_compiled_matches_legacy_order_and_stats(self):
        # Same results in the same order, and the same scan and probe
        # counts, as the oracle evaluating the body under the binding.
        program = parse_program("q(X) :- e(X, Y), f(Y, Z).")
        body = program.rules[0].body
        resolver = self.make_resolver(
            "e(a, b). e(a, c). f(b, n1). f(c, n2). f(b, n3)."
        )
        query = BoundQuery(body, ("X",), ("Y", "Z"))
        fast_stats = EvalStats()
        fast = list(query.run(resolver, ("a",), fast_stats))
        slow_stats = EvalStats()
        slow = [
            oracle.project(subst, ("Y", "Z"))
            for subst in oracle.evaluate_body(
                body, resolver, {"X": Constant("a")}, slow_stats
            )
        ]
        assert fast == slow
        assert fast_stats.tuples_scanned == slow_stats.tuples_scanned
        assert fast_stats.index_probes == slow_stats.index_probes

    def test_duplicate_in_names_later_wins(self):
        program = parse_program("q(X) :- e(X, Y).")
        body = program.rules[0].body
        resolver = self.make_resolver("e(a, b). e(z, w).")
        query = BoundQuery(body, ("X", "X"), ("Y",))
        assert set(query.run(resolver, ("z", "a"))) == {("b",)}

    def test_unbound_projection_raises(self):
        program = parse_program("q(X) :- e(X, Y).")
        query = BoundQuery(program.rules[0].body, ("X",), ("Z",))
        resolver = self.make_resolver("e(a, b).")
        with pytest.raises(ValueError, match="variable Z not bound"):
            list(query.run(resolver, ("a",)))

    @pytest.mark.parametrize("rule, in_names, out_names", [
        # One scan, one bound column.
        ("q(X) :- e(X, Y).", ("X",), ("Y",)),
        # Two scans; the second probes on the first's output.
        ("q(X) :- e(X, Y), f(Y, Z).", ("X",), ("Y", "Z")),
        # A repeated variable: an in-scan equality check.
        ("q(X) :- e(X, Y), e(Y, Y).", ("X",), ("Y",)),
        # A filter before the last scan can skip a whole binding.
        ("q(X) :- X != a, e(X, Y).", ("X",), ("Y",)),
        # Fully bound: membership probes only.
        ("q(X) :- e(X, Y).", ("X", "Y"), ()),
        # Duplicate in_names: the later value wins.
        ("q(X) :- e(X, Y).", ("X", "X"), ("Y",)),
        # A trailing assignment is outside the generated shape: the
        # fallback loops over single runs.
        ("q(X) :- e(X, Y), Z = Y.", ("X",), ("Z",)),
    ])
    def test_bind_many_is_a_loop_of_binds(self, rule, in_names, out_names):
        program = parse_program(rule)
        query = BoundQuery(program.rules[0].body, in_names, out_names)
        facts = "e(a, b). e(a, c). e(b, b). e(c, d). f(b, n1). f(c, n2)."
        keys = ("a", "b", "c", "zz")
        bindings = [
            tuple(keys[(i + j) % len(keys)] for j in range(len(in_names)))
            for i in range(9)
        ]
        single_stats, many_stats = EvalStats(), EvalStats()
        single = query.bind(self.make_resolver(facts))
        many = query.bind_many(self.make_resolver(facts))
        expected = [list(single(values, single_stats))
                    for values in bindings]
        assert many(bindings, many_stats) == expected
        assert many([], many_stats) == []
        assert many_stats.as_dict() == single_stats.as_dict()
        assert many(bindings[:1]) == expected[:1]  # stats are optional


class TestRelationLookup:
    def make(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        rel.add(("x", "y"))
        return rel

    def test_scalar_key_single_position(self):
        rel = self.make()
        assert sorted(rel.lookup((0,), "a")) == [("a", "b"), ("a", "c")]
        assert list(rel.lookup((1,), "y")) == [("x", "y")]
        assert list(rel.lookup((0,), "zzz")) == []

    def test_tuple_key_multi_position(self):
        rel = self.make()
        assert list(rel.lookup((0, 1), ("a", "c"))) == [("a", "c")]
        assert list(rel.lookup((0, 1), ("a", "zzz"))) == []

    def test_full_scan(self):
        rel = self.make()
        assert sorted(rel.lookup((), None)) == sorted(rel.tuples)

    def test_without_indexes_filters(self):
        rel = self.make()
        rel.use_indexes = False
        assert sorted(rel.lookup((0,), "a")) == [("a", "b"), ("a", "c")]
        assert rel._indexes == {}

    def test_stats_counters(self):
        rel = self.make()
        stats = EvalStats()
        rel.lookup((0,), "a", stats)
        assert stats.index_builds == 1
        assert stats.index_probes == 1
        rel.lookup((0,), "x", stats)
        assert stats.index_builds == 1
        assert stats.index_probes == 2

    def test_index_maintained_after_add(self):
        rel = self.make()
        rel.lookup((0,), "a")
        rel.add(("a", "zz"))
        assert sorted(rel.lookup((0,), "a")) == [
            ("a", "b"), ("a", "c"), ("a", "zz")
        ]

    def test_ensure_index_prebuilds(self):
        rel = Relation("p", 2)
        rel.ensure_index((0,))
        assert (0,) in rel._indexes
        rel.add(("a", "b"))
        stats = EvalStats()
        assert list(rel.lookup((0,), "a", stats)) == [("a", "b")]
        assert stats.index_builds == 0

    def test_empty_relation_lookup(self):
        empty = EmptyRelation("p", 2)
        assert list(empty.lookup((0,), "a")) == []


class TestRelationCopy:
    def test_copy_carries_indexes(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        list(rel.match(("a", WILDCARD)))  # build an index
        clone = rel.copy()
        assert clone._indexes.keys() == rel._indexes.keys()

    def test_copy_answers_match_after_divergent_adds(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        list(rel.match(("a", WILDCARD)))
        clone = rel.copy()
        rel.add(("a", "orig-only"))
        clone.add(("a", "clone-only"))
        assert sorted(rel.match(("a", WILDCARD))) == [
            ("a", "b"), ("a", "orig-only")
        ]
        assert sorted(clone.match(("a", WILDCARD))) == [
            ("a", "b"), ("a", "clone-only")
        ]


@pytest.mark.parametrize("make_relation", [
    lambda: Relation("p", 2),
    lambda: EmptyRelation("p", 2),
], ids=["Relation", "EmptyRelation"])
class TestMatchArityParity:
    """Both relation classes reject patterns of the wrong arity."""

    def test_wrong_arity_raises(self, make_relation):
        rel = make_relation()
        with pytest.raises(ValueError):
            list(rel.match(("a",)))
        with pytest.raises(ValueError):
            list(rel.match(("a", "b", "c")))

    def test_right_arity_accepted(self, make_relation):
        rel = make_relation()
        assert list(rel.match((WILDCARD, WILDCARD))) == []


class TestInterning:
    def test_equal_rows_share_instances(self):
        db = Database()
        db.add_fact("e", "node-1", "node-2")
        db.add_fact("f", "node-1", ("node-2", "node-1"))
        (row_e,) = db.get(("e", 2))
        (row_f,) = db.get(("f", 2))
        assert row_e[0] is row_f[0]
        assert row_f[1][0] is row_e[1]

    def test_equal_but_distinct_types_kept_apart(self):
        pool = InternPool()
        assert pool.intern(1) == pool.intern(True)
        assert pool.intern(1) is not pool.intern(True)
        assert type(pool.intern(1.0)) is float

    def test_ids_stable_and_append_only(self):
        pool = InternPool()
        first = pool.ident("a")
        second = pool.ident("b")
        assert first != second
        assert pool.ident("a") == first
        assert len(pool) == 2

    def test_copy_shares_pool(self):
        db = Database.from_text("e(a, b).")
        ident = db.intern_pool.ident("a")
        clone = db.copy()
        assert clone.intern_pool is db.intern_pool
        assert clone.intern_pool.ident("a") == ident

    def test_rendered_output_unchanged(self):
        text = 'e(a, b).\ne(a, c).\nv(1, x).'
        db = Database.from_text(text)
        assert db.to_text() == text


class TestProfile:
    def test_rule_profile_collected(self, sg_query, sg_db):
        stats = EvalStats()
        engine = SemiNaiveEngine(sg_query.program, sg_db, stats=stats)
        engine.run()
        assert stats.rule_profile
        table = stats.profile_table()
        labels = [entry[0] for entry in table]
        assert set(labels) == set(stats.rule_profile)
        for _label, seconds, calls, derived in table:
            assert seconds >= 0.0
            assert calls >= 1
            assert derived >= 0
        assert stats.batch_rows > 0
        assert stats.index_probes > 0
