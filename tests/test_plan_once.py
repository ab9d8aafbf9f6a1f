"""The optimizer plans once: ``OptimizationPlan.execute`` reuses the
plan's analysis instead of redoing it.

Two properties are checked.  Parity: on every workload, executing the
``auto`` plan gives exactly what a cold ``run_strategy`` of the chosen
method on the plan's query gives — answers, counters and extras, or
the same typed error.  Call counts: from ``optimize`` through
``execute``, a query is adorned, has its goal clique found and is
canonicalized once per program the optimizer looks at.  Adornment is
counted where it is computed (``adornment._adorn``): ``adorn_query``
itself returns the adornment kept on the query when it has one.
"""

import sys

import pytest

from repro import Database, Query, optimize, parse_query
from repro.data.workloads import WORKLOADS
from repro.errors import ReproError
from repro.exec.strategies import run_strategy
from repro.rewriting import adornment, canonical, support
from repro.rewriting.adornment import adorn_query

#: The analyses ``execute`` must not repeat.
COUNTED = (
    (adornment, "_adorn"),
    (support, "goal_clique_of"),
    (canonical, "canonicalize_clique"),
)


def outcome(run):
    """Answers, counters and extras of ``run()``, or its typed error."""
    try:
        result = run()
    except ReproError as exc:
        return type(exc), str(exc)
    return result.answers, result.stats.as_dict(), result.extras


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_execute_equals_cold_run(workload):
    query = WORKLOADS[workload].query
    db, _source = WORKLOADS[workload].make_db()
    plan = optimize(query, db)
    planned = outcome(lambda: plan.execute(db))
    db, _source = WORKLOADS[workload].make_db()
    cold = outcome(lambda: run_strategy(plan.method, plan.query, db))
    assert planned == cold


def count_calls(monkeypatch):
    """Wrap every counted function wherever a loaded ``repro`` module
    refers to it; returns ``{name: calls}``, filled as they happen."""
    calls = {name: 0 for _module, name in COUNTED}
    for module, name in COUNTED:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, attr, counted)
    return calls


def fresh_query(workload):
    """The workload's query as a new object: the shared one keeps the
    adornment an earlier test computed."""
    query = WORKLOADS[workload].query
    return Query(query.goal, query.program)


def test_mixed_linear_analyses_once(monkeypatch):
    query = fresh_query("mixed_linear")
    db, _source = WORKLOADS["mixed_linear"].make_db()
    calls = count_calls(monkeypatch)
    plan = optimize(query, db)
    assert plan.method == "reduced_counting"
    result = plan.execute(db)
    assert result.answers
    assert calls == {"_adorn": 1, "goal_clique_of": 1,
                     "canonicalize_clique": 1}


def test_square_tc_analyses_each_program_once(monkeypatch):
    query = parse_query("""
        tc(X, Y) :- arc(X, Y).
        tc(X, Y) :- tc(X, Z), tc(Z, Y).
        ?- tc(a, Y).
    """)
    db = Database.from_facts(
        [("arc", ("a", "b")), ("arc", ("b", "c")), ("arc", ("c", "a"))]
    )
    calls = count_calls(monkeypatch)
    plan = optimize(query, db)
    assert "linearization" in plan.reason
    assert plan.execute(db).answers == {("a",), ("b",), ("c",)}
    # One of each for the original program (whose canonicalization
    # fails: the clique is non-linear) and one for the linearized one.
    assert calls == {"_adorn": 2, "goal_clique_of": 2,
                     "canonicalize_clique": 2}


def test_forced_method_adorns_in_prepare(monkeypatch):
    query = fresh_query("sg_chain")
    db, _source = WORKLOADS["sg_chain"].make_db()
    calls = count_calls(monkeypatch)
    plan = optimize(query, db, method="pointer_counting")
    assert plan.adorned is None
    plan.execute(db)
    assert calls == {"_adorn": 1, "goal_clique_of": 1,
                     "canonicalize_clique": 1}


def test_adorned_query_keeps_its_analyses():
    query = WORKLOADS["sg_chain"].query
    plan = optimize(query)
    adorned = plan.adorned
    assert adorn_query(query) is adorned
    assert adorned.goal_clique() is adorned.goal_clique()
    assert adorned.canonical_clique() is adorned.canonical_clique()


def test_immutable_objects_keep_what_they_compute():
    query = parse_query("p(X, Y) :- q(X, Z), not r(Z), p(Z, Y). ?- p(a, Y).")
    rule = query.program.rules[0]
    assert rule.head.key == ("p", 2)
    assert rule.head.key is rule.head.key
    assert [atom.key for atom in rule.body_atoms()] == [("q", 2), ("p", 2)]
    assert rule.body_atoms() is rule.body_atoms()
