"""Property-based tests (hypothesis) for the core invariants.

* Theorem 1/2/3 equivalence: on random databases every applicable
  strategy computes the same answers as naive evaluation — for acyclic
  and cyclic data, shared variables, multiple rules and mixed-linear
  programs.
* DFS classification: tree+forward+cross+back is a partition of the
  reachable arcs and the ahead subgraph is acyclic.
* Unification: substitution soundness and list decomposition
  round-trips.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, parse_query
from repro.datalog.terms import Constant, Variable, make_list
from repro.datalog.unify import resolve, unify
from repro.exec.strategies import run_strategy
from repro.graph import adjacency_successors, classify_arcs
from repro.graph.dfs import Arc

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

node_ids = st.integers(min_value=0, max_value=9)
arc_lists = st.lists(
    st.tuples(node_ids, node_ids), min_size=0, max_size=25
)


def node(i):
    return "n%d" % i


def build_sg_db(up_arcs, flat_pairs, down_arcs):
    db = Database()
    for i, j in up_arcs:
        db.add_fact("up", node(i), node(j))
    for i, j in flat_pairs:
        db.add_fact("flat", node(i), "m%d" % j)
    for i, j in down_arcs:
        db.add_fact("down", "m%d" % i, "m%d" % j)
    db.add_fact("up", "a", node(0))
    return db


SG = parse_query("""
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    ?- sg(a, Y).
""")


class TestEquivalenceSG:
    @SLOW
    @given(arc_lists, arc_lists, arc_lists)
    def test_magic_and_cyclic_match_naive(self, ups, flats, downs):
        db = build_sg_db(ups, flats, downs)
        expected = run_strategy("naive", SG, db).answers
        assert run_strategy("magic", SG, db).answers == expected
        assert run_strategy("cyclic_counting", SG, db).answers == expected

    @SLOW
    @given(
        st.lists(st.tuples(node_ids, node_ids), max_size=20).map(
            lambda pairs: [(i, j) for i, j in pairs if i < j]
        ),
        arc_lists,
        arc_lists,
    )
    def test_acyclic_methods_match_naive(self, ups, flats, downs):
        # Up arcs i -> j with i < j: guaranteed acyclic left graph.
        db = build_sg_db(ups, flats, downs)
        expected = run_strategy("naive", SG, db).answers
        for method in ("classical_counting", "extended_counting",
                       "reduced_counting", "pointer_counting"):
            assert run_strategy(method, SG, db).answers == expected, method


MIXED = parse_query("""
    p(X, Y) :- flat(X, Y).
    p(X, Y) :- up(X, X1), p(X1, Y).
    p(X, Y) :- p(X, Y1), down(Y1, Y).
    ?- p(a, Y).
""")


class TestEquivalenceMixed:
    @SLOW
    @given(arc_lists, arc_lists, arc_lists)
    def test_reduced_matches_naive_even_cyclic(self, ups, flats, downs):
        db = build_sg_db(ups, flats, downs)
        expected = run_strategy("naive", MIXED, db).answers
        assert run_strategy("reduced_counting", MIXED, db).answers \
            == expected
        assert run_strategy("cyclic_counting", MIXED, db).answers \
            == expected


MULTI = parse_query("""
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up1(X, X1), sg(X1, Y1), down1(Y1, Y).
    sg(X, Y) :- up2(X, X1), sg(X1, Y1), down2(Y1, Y).
    ?- sg(a, Y).
""")


class TestEquivalenceMultiRule:
    @SLOW
    @given(arc_lists, arc_lists, arc_lists, arc_lists, arc_lists)
    def test_cyclic_counting_matches_naive(self, u1, u2, flats, d1, d2):
        db = Database()
        for pred, pairs in (("up1", u1), ("up2", u2), ("down1", d1),
                            ("down2", d2)):
            side = "m" if pred.startswith("down") else "n"
            for i, j in pairs:
                db.add_fact(pred, "%s%d" % (side, i), "%s%d" % (side, j))
        for i, j in flats:
            db.add_fact("flat", node(i), "m%d" % j)
        db.add_fact("up1", "a", node(0))
        expected = run_strategy("naive", MULTI, db).answers
        assert run_strategy("cyclic_counting", MULTI, db).answers \
            == expected
        assert run_strategy("magic", MULTI, db).answers == expected


class TestDFSInvariants:
    @settings(max_examples=60, deadline=None)
    @given(arc_lists)
    def test_partition_and_ahead_acyclicity(self, pairs):
        arcs = [Arc(node(i), node(j)) for i, j in pairs]
        arcs.append(Arc("a", node(0)))
        succ = adjacency_successors(arcs)
        classification = classify_arcs("a", succ)
        # Partition: every reachable arc classified exactly once.
        reachable = [
            arc for arc in arcs if arc.source in classification.nodes
        ]
        assert len(classification.arcs) == len(reachable)
        # Ahead subgraph acyclic.
        ahead_succ = adjacency_successors(classification.ahead)
        assert classify_arcs("a", ahead_succ).is_acyclic()

    @settings(max_examples=60, deadline=None)
    @given(arc_lists)
    def test_order_covers_reachable_nodes(self, pairs):
        arcs = [Arc(node(i), node(j)) for i, j in pairs]
        arcs.append(Arc("a", node(0)))
        succ = adjacency_successors(arcs)
        classification = classify_arcs("a", succ)
        reached = {"a"}
        frontier = ["a"]
        while frontier:
            current = frontier.pop()
            for target, _label in succ(current):
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        assert classification.nodes == reached


values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["a", "b", "c"]),
)


class TestUnifyProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(values, max_size=5))
    def test_list_pattern_decomposition(self, items):
        # [H | T] matches any non-empty ground list, splitting it.
        from repro.datalog.terms import cons

        pattern = cons(Variable("H"), Variable("T"))
        ground = Constant(tuple(items))
        subst = unify(pattern, ground, {})
        if not items:
            assert subst is None
        else:
            assert subst["H"].value == items[0]
            assert subst["T"].value == tuple(items[1:])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(values, max_size=4), st.lists(values, max_size=4))
    def test_unify_ground_lists_iff_equal(self, xs, ys):
        left = make_list([Constant(v) for v in xs])
        right = make_list([Constant(v) for v in ys])
        subst = unify(left, right, {})
        assert (subst is not None) == (xs == ys)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(values, min_size=1, max_size=5))
    def test_resolve_rebuilds_value(self, items):
        term = make_list([Constant(v) for v in items])
        resolved = resolve(term, {})
        assert resolved.value == tuple(items)

    @settings(max_examples=100, deadline=None)
    @given(values)
    def test_unify_is_symmetric_for_var_binding(self, value):
        a = unify(Variable("X"), Constant(value), {})
        b = unify(Constant(value), Variable("X"), {})
        assert a == b


class TestParserRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["p", "q", "r"]),
                st.lists(values, min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_fact_round_trip(self, facts):
        from repro.datalog import format_program, parse_program
        from repro.datalog.pretty import format_value

        text = "\n".join(
            "%s(%s)." % (pred, ", ".join(format_value(v) for v in args))
            for pred, args in facts
        )
        program = parse_program(text)
        again = parse_program(format_program(program))
        assert again.rules == program.rules
