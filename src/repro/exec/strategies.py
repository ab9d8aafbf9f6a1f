"""Every evaluation strategy, defined once as a prepare step and a run step.

In the paper each method splits in two: a rewriting of the adorned
program that does not depend on the query constant, followed by an
evaluation that does.  Each strategy here is defined the same way:

* ``prepare(query)`` does the form-level work: rewrite, adorn and
  canonicalize (each kept on the immutable query and its
  :class:`~repro.rewriting.adornment.AdornedQuery`, so an optimizer
  plan's analysis is reused), precompile rules, and build the clique
  the divergence check walks.  It returns the *form*, an opaque
  namespace.
* ``run(form, binding, db, stats, budget)`` does the per-binding work:
  substitute seeds, materialize support rules, run the engine, wrap
  divergence as :class:`CountingDivergenceError`, and build the
  ``extras``.  It returns ``(answers, extras)``.

The :class:`Binding` passed to ``run`` is how a form meets its
constants.  :func:`run_strategy` prepares over the bound query itself
and runs once under the identity binding.
:class:`~repro.exec.prepared.PreparedQuery` prepares once over a query
whose bound positions hold sentinels, and runs each binding under a
binding that substitutes the constants and reuses work across runs.

``answers`` are projections onto the original goal's free argument
positions, so results of different methods compare directly.
``extras`` carries method-specific measurements (magic-set size,
counting-set size, pointer-table rows and triples, answer-state counts)
used by the benchmark harness.

Strategies
----------

``naive``              semi-naive evaluation of the original program,
                       goal filter applied afterwards (no binding
                       propagation — the paper's worst baseline).
``magic``              magic-set rewriting + semi-naive engine.
``sup_magic``          supplementary magic sets [6] (prefixes
                       materialized once).
``qsq``                top-down query-subquery evaluation (the memoing
                       family's direct formulation).
``classical_counting`` classical counting (Example 1); raises
                       :class:`CountingDivergenceError` on cyclic data.
``encoded_counting``   the [15] integer-encoded rule log (historical;
                       exponential value growth).
``extended_counting``  Algorithm 1 (list path arguments) + generic
                       engine; requires an acyclic left graph (more
                       precisely: no cycle through a pushing rule).
``reduced_counting``   Algorithm 1 + Algorithm 3 reduction; safe on
                       any data when the path argument disappears.
``pointer_counting``   §3.4 pointer implementation (dedicated
                       evaluator); requires an acyclic left graph.
``cyclic_counting``    Algorithm 2 (dedicated evaluator); applies to
                       cyclic and acyclic data alike.
``magic_counting``     the [16] hybrid: counting on the non-recurring
                       part, magic on the recurring part.
``parallel``           data-parallel sharded semi-naive fixpoint over a
                       multiprocess worker pool (:mod:`repro.parallel`);
                       linear positive programs only.
"""

import time
from types import SimpleNamespace

from ..datalog.rules import Program, Query
from ..engine.compile import compiled_rule
from ..engine.database import Database
from ..engine.fixpoint import goal_filter, project_free
from ..engine.instrumentation import EvalStats
from ..engine.seminaive import SemiNaiveEngine
from ..errors import CountingDivergenceError, EvaluationError
from ..rewriting.adornment import adorn_query
from ..rewriting.canonical import query_constants
from ..rewriting.counting import classical_counting_rewrite
from ..rewriting.encoded import encoded_counting_rewrite
from ..rewriting.extended import extended_counting_rewrite
from ..rewriting.magic import magic_rewrite, magic_set_size
from ..rewriting.reduction import reduce_rewriting
from ..rewriting.supplementary import supplementary_magic_rewrite
from .counting_engine import CountingEngine, LeftGraph, query_binder
from .magic_counting import MagicCountingEngine
from .qsq import qsq_evaluate


class ExecutionResult:
    """Answers plus measurements for one strategy run."""

    __slots__ = ("method", "answers", "stats", "extras", "elapsed")

    def __init__(self, method, answers, stats, extras=None, elapsed=0.0):
        self.method = method
        self.answers = frozenset(answers)
        self.stats = stats
        self.extras = dict(extras or {})
        #: Wall-clock seconds of the run (rewriting + evaluation).
        self.elapsed = elapsed

    @property
    def profile(self):
        """Per-rule (label, seconds, calls, derived) rows, slowest first.

        Collected by the engine's batched join path; empty for the
        dedicated evaluators that do not run whole rules through
        :class:`~repro.engine.seminaive.SemiNaiveEngine`.
        """
        return self.stats.profile_table()

    def __repr__(self):
        return "ExecutionResult(%s, %d answers, work=%d)" % (
            self.method, len(self.answers), self.stats.total_work
        )


class Binding:
    """How a prepared form meets its constants during one run.

    This base class is the identity binding of a cold run: the form was
    prepared over the bound query itself, so there is nothing to
    substitute and no earlier run to reuse work from.
    :class:`~repro.exec.prepared.PreparedQuery` overrides every method.
    """

    __slots__ = ()

    def atom(self, atom):
        """``atom`` with the run's constants in place."""
        return atom

    def program(self, program):
        """``program`` with the run's constants in its seed rules."""
        return program

    def values(self, values):
        """A tuple of constants with the run's constants in place."""
        return values

    def memo(self, name, build):
        """``build()``, or its result from an earlier run over the same
        data."""
        return build()

    def attach(self, engine, shippable):
        """Hook per-run helpers (a counting-table store, a parallel
        phase 1) onto a :class:`CountingEngine` before it runs.
        ``shippable`` is false when support relations cannot travel to
        worker processes."""


COLD = Binding()


def _divergence_bound(db):
    """Iteration bound for the classical counting clique.

    On acyclic data the counting index never exceeds the number of
    database constants, so a fixpoint running longer than that has hit
    a cycle.  The cap counts every round of a clique — the initial
    naive round included — hence the extra slack beyond the constant
    count.
    """
    return len(db.constants()) + 3


def support_resolver(support_rules, db, stats, budget=None):
    """Materialize support (lower-clique) rules over the database.

    Returns a lookup ``key -> relation`` that consults the materialized
    support relations first and the database second.
    """
    if not support_rules:
        return db.get
    engine = SemiNaiveEngine(Program(support_rules), db, stats=stats,
                             budget=budget)
    engine.run()
    return engine.relation


def classify_left_graph(canonical, goal_key, source_values, get_relation):
    """Arc classification of the left graph reachable from the source.

    Expanded by the counting engines' own wave expander; the probes
    are not charged to any run's counters.
    """
    left_graph = LeftGraph(canonical, query_binder(get_relation),
                           EvalStats())
    return left_graph.classify((goal_key, tuple(source_values)))


def check_pushing_cycles(canonical, goal_key, source_values, get_relation,
                         method):
    """Raise if the path argument would grow without bound.

    The list-based programs diverge exactly when the reachable left
    graph contains a cycle through a *pushing* arc — one generated by a
    rule that is neither left- nor right-linear shaped (those rules are
    the ones extending the path argument).  The clique is canonicalized
    by the strategy's prepare step; only this data-dependent
    classification runs per binding.
    """
    from ..graph.properties import strongly_connected_components
    from ..rewriting.linearity import GENERAL, rule_shape

    classification = classify_left_graph(
        canonical, goal_key, source_values, get_relation
    )
    if classification.is_acyclic():
        return
    pushing = {
        rule.label
        for rule in canonical.recursive_rules
        if rule_shape(rule) == GENERAL
    }
    adjacency = {}
    for arc in classification.arcs:
        adjacency.setdefault(arc.source, set()).add(arc.target)
    sccs = strongly_connected_components(adjacency)
    for arc in classification.arcs:
        label = arc.label[0]
        if label not in pushing:
            continue
        if sccs.get(arc.source) == sccs.get(arc.target):
            raise CountingDivergenceError(
                "%s: the left graph has a cycle through pushing rule %s; "
                "the path argument would grow without bound"
                % (method, label)
            )


def _prepare_clique(adorned):
    """The goal clique of ``adorned`` in canonical form, with the
    support rules below it and the goal's bound values."""
    _clique, support_rules = adorned.goal_clique()
    return SimpleNamespace(
        canonical=adorned.canonical_clique(),
        goal_key=adorned.goal.key,
        source=query_constants(adorned.goal),
        support_rules=support_rules,
    )


def _support(clique, binding, db, stats, budget, name="support"):
    return binding.memo(
        name,
        lambda: support_resolver(clique.support_rules, db, stats, budget),
    )


def _relation_sizes(derived, keys):
    return sum(len(derived[key]) for key in keys if key in derived)


class Strategy:
    """One evaluation method; see the module docstring."""

    #: True when the run step builds a :class:`CountingEngine` whose
    #: phase 1 a binding may ship to worker processes.
    ships_phase1 = False

    def __init__(self, name):
        self.name = name

    def prepare(self, query):
        return query

    def run(self, form, binding, db, stats, budget=None):
        raise NotImplementedError


class _Fixpoint(Strategy):
    """A rewriting of the query evaluated by the semi-naive engine.

    ``rewrite`` is ``None`` for the original program.  ``extras`` maps
    ``(derived, rewriting)`` to the method's measurements.  ``guarded``
    caps the fixpoint at :func:`_divergence_bound` rounds; ``checked``
    maps the rewriting to the adorned query whose left graph must have
    no cycle through a pushing rule (or ``None`` when the path argument
    is gone).  ``shared`` marks a program that never mentions the query
    constants, so one evaluation serves every binding.
    """

    def __init__(self, name, rewrite=None, extras=None, guarded=False,
                 checked=None, shared=False):
        super().__init__(name)
        self.rewrite = rewrite
        self.extras = extras
        self.guarded = guarded
        self.checked = checked
        self.shared = shared

    def prepare(self, query):
        rewriting = None if self.rewrite is None else self.rewrite(query)
        target = query if rewriting is None else rewriting.query
        adorned = None if self.checked is None else self.checked(rewriting)
        return SimpleNamespace(
            rewritten=rewriting,
            goal=target.goal,
            program=target.program,
            compiled={
                id(rule): compiled_rule(rule)
                for rule in target.program.rules
                if not rule.is_fact()
            },
            check=None if adorned is None else _prepare_clique(adorned),
        )

    def run(self, form, binding, db, stats, budget=None):
        check = form.check
        if check is not None:
            check_pushing_cycles(
                check.canonical, check.goal_key,
                binding.values(check.source),
                _support(check, binding, db, stats, budget, "check"),
                self.name.replace("_", " "),
            )
        if self.shared:
            relation, derived = binding.memo(
                "fixpoint",
                lambda: self._fixpoint(form, binding, db, stats, budget),
            )
        else:
            relation, derived = self._fixpoint(form, binding, db, stats,
                                               budget)
        goal = binding.atom(form.goal)
        answers = project_free(goal, set(goal_filter(goal, relation)))
        extras = {} if self.extras is None else self.extras(
            derived, form.rewritten
        )
        extras["derived_facts"] = sum(len(rel) for rel in derived.values())
        return answers, extras

    def _fixpoint(self, form, binding, db, stats, budget):
        # The shared compiled cache is copied so entries for this run's
        # substituted seed rules do not pile up in it.
        engine = SemiNaiveEngine(
            binding.program(form.program), db, stats=stats,
            max_iterations=_divergence_bound(db) if self.guarded else None,
            budget=budget, compiled_cache=dict(form.compiled),
        )
        try:
            derived = engine.run()
        except EvaluationError as exc:
            if not self.guarded:
                raise
            raise CountingDivergenceError(
                "%s diverged (cyclic left-part relation?): %s"
                % (self.name.replace("_", " "), exc)
            ) from exc
        return engine.relation(form.goal.key), derived


def _encoded_extras(derived, rewriting):
    counting = derived.get(rewriting.counting_pred)
    rows = () if counting is None else counting
    return {
        "counting_set_size": len(rows),
        "max_index_bits": max(
            (int(row[-1]).bit_length() for row in rows), default=0
        ),
    }


def _path_free(rewriting):
    return rewriting.path_deleted_counting and rewriting.path_deleted_answer


def _reduced_extras(derived, rewriting):
    preds = rewriting.source.counting_preds.values()
    return {
        "counting_set_size": _relation_sizes(derived, list(preds))
        + _relation_sizes(
            derived, [(name, arity - 1) for name, arity in preds]
        ),
        "path_deleted": _path_free(rewriting),
    }


class _Counting(Strategy):
    """A dedicated two-phase evaluator over the canonical goal clique:
    the §3.4 pointer method (``acyclic``) or Algorithm 2."""

    ships_phase1 = True

    def __init__(self, name, acyclic=False):
        super().__init__(name)
        self.acyclic = acyclic

    def prepare(self, query):
        form = _prepare_clique(adorn_query(query))
        #: Compiled bound queries of the clique's rules, shared by
        #: every engine this form builds.
        form.query_cache = {}
        return form

    def run(self, form, binding, db, stats, budget=None):
        engine = CountingEngine(
            form.canonical, form.goal_key, binding.values(form.source),
            _support(form, binding, db, stats, budget),
            stats=stats, require_acyclic=self.acyclic, budget=budget,
            query_cache=form.query_cache,
        )
        binding.attach(engine, shippable=not form.support_rules)
        answers = engine.run()
        table = engine.table
        extras = {
            "counting_rows": len(table),
            "counting_triples": table.triple_count,
        }
        if not self.acyclic:
            extras["back_arcs"] = table.back_arc_count
        extras.update(
            answer_states=engine.state_count,
            max_frontier=engine.max_frontier,
            counting_table_reused=engine.table_reused,
        )
        return answers, extras


class _MagicCounting(_Counting):
    """The [16] hybrid: counting on the non-recurring part of the left
    graph, magic sets on the recurring part."""

    ships_phase1 = False

    def run(self, form, binding, db, stats, budget=None):
        engine = MagicCountingEngine(
            form.canonical, form.goal_key, binding.values(form.source),
            _support(form, binding, db, stats, budget),
            stats=stats, budget=budget,
        )
        answers = engine.run()
        return answers, {
            "recurring_nodes": len(engine.recurring),
            "counting_rows": 0 if engine.table is None else len(engine.table),
            "answer_states": engine.state_count,
        }


class _QSQ(Strategy):
    """Top-down query-subquery evaluation (the memoing family's direct
    formulation; work profile tracks magic sets)."""

    def run(self, form, binding, db, stats, budget=None):
        answers, engine = qsq_evaluate(
            Query(binding.atom(form.goal), form.program), db, stats=stats,
            budget=budget,
        )
        return answers, {
            "subqueries": engine.subquery_count(),
            "memo_facts": sum(len(rel) for rel in engine.answers.values()),
        }


class _Parallel(Strategy):
    """Data-parallel sharded fixpoint over a multiprocess worker pool.

    Plans with :func:`~repro.parallel.plan.plan_partitions`, executes
    with :class:`~repro.parallel.executor.ParallelEngine`; see
    :mod:`repro.parallel`.  ``workers=0`` (or ``inline=True``) runs the
    same engine serially in-process — the baseline whose answers *and*
    merged counters every multiprocess run must reproduce.

    ``recovery`` selects the self-healing behaviour: a
    :class:`~repro.parallel.supervisor.RecoveryPolicy`, a mode string,
    or ``None`` for the default (shard reassignment).  Under
    ``"reassign"``/``"respawn"`` worker death and hangs are repaired in
    place from the last barrier checkpoint; only under ``"serial"`` (or
    once the repair allowance is spent) do failures surface as typed
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.WorkerHungError` /
    :class:`~repro.errors.RecoveryExhaustedError`, which a fallback
    chain degrades past instead of hanging.
    """

    def run(self, form, binding, db, stats, budget=None, workers=2,
            inline=False, plan=None, recovery=None):
        from ..parallel import ParallelEngine

        engine = ParallelEngine(
            Query(binding.atom(form.goal), form.program), db,
            workers=workers, stats=stats, budget=budget, plan=plan,
            inline=inline, recovery=recovery,
        )
        engine.run()
        return engine.answers, engine.extras()


#: Registry used by the benchmark harness and the optimizer pipeline.
STRATEGIES = {
    strategy.name: strategy
    for strategy in (
        _Fixpoint("naive", shared=True),
        _Fixpoint(
            "magic", magic_rewrite,
            lambda derived, rewriting: {
                "magic_set_size": magic_set_size(derived, rewriting),
            },
        ),
        _Fixpoint(
            "classical_counting", classical_counting_rewrite,
            lambda derived, rewriting: {
                "counting_set_size": _relation_sizes(
                    derived, [rewriting.counting_pred]
                ),
            },
            guarded=True,
        ),
        _Fixpoint(
            "extended_counting", extended_counting_rewrite,
            lambda derived, rewriting: {
                "counting_set_size": _relation_sizes(
                    derived, list(rewriting.counting_preds.values())
                ),
            },
            checked=lambda rewriting: rewriting.adorned,
        ),
        _Fixpoint(
            "reduced_counting",
            lambda query: reduce_rewriting(extended_counting_rewrite(query)),
            _reduced_extras,
            # A surviving path argument still grows along cycles.
            checked=lambda rewriting: (
                None if _path_free(rewriting) else rewriting.source.adorned
            ),
        ),
        _Counting("pointer_counting", acyclic=True),
        _Counting("cyclic_counting"),
        _MagicCounting("magic_counting"),
        _Fixpoint(
            "sup_magic", supplementary_magic_rewrite,
            lambda derived, rewriting: {
                "sup_facts": sum(
                    len(rel) for key, rel in derived.items()
                    if key[0].startswith("sup_")
                ),
            },
        ),
        _Fixpoint(
            "encoded_counting", encoded_counting_rewrite, _encoded_extras,
            guarded=True,
        ),
        _QSQ("qsq"),
        _Parallel("parallel"),
    )
}


def run_strategy(name, query, db, budget=None, **options):
    """Run one registered strategy by name, cold.

    The strategy prepares over ``query`` itself and runs once.
    ``budget`` is an optional
    :class:`~repro.engine.guard.ResourceBudget` threaded through to the
    underlying engines; a budget firing surfaces as a typed
    :class:`~repro.errors.BudgetExceededError` carrying partial stats.
    Extra keyword ``options`` are forwarded to the run step — the
    ``parallel`` strategy takes ``workers=N`` this way.
    """
    try:
        strategy = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            "unknown strategy %r; available: %s"
            % (name, ", ".join(sorted(STRATEGIES)))
        ) from None
    if not isinstance(query, Query):
        raise TypeError("expected a Query")
    if not isinstance(db, Database):
        raise TypeError("expected a Database")
    stats = EvalStats()
    started = time.perf_counter()
    answers, extras = strategy.run(
        strategy.prepare(query), COLD, db, stats, budget, **options
    )
    return ExecutionResult(name, answers, stats, extras,
                           elapsed=time.perf_counter() - started)
