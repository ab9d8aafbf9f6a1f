"""Prepared queries: prepare a query form once, evaluate many bindings.

Interactive and benchmark workloads in the paper's setting re-run the
same query *form* — ``sg(c, Y)?`` — for a stream of different constants
``c``.  Every strategy in :mod:`repro.exec.strategies` is defined as a
form-level *prepare* step (rewriting, adornment, canonicalization, rule
compilation) and a per-binding *run* step.  A cold ``run_strategy`` call
does both for every binding; :class:`PreparedQuery` prepares once and
adds only the binding layer on top:

1. **Sentinel substitution.**  The bound goal positions are replaced by
   :class:`FormParameter` sentinels — placeholder constants compared by
   identity, so they can never collide with real program constants —
   and the strategy prepares over the sentinel query.  A run
   substitutes real constants into the (few) rules, goals and source
   values that mention a sentinel; all other rules are reused as the
   *same objects*, which keeps the compiled-rule cache (keyed by
   ``id``) hot.
2. **Data memos.**  Support-rule materializations, the divergence
   check's support relations and the binding-free ``naive`` fixpoint
   are kept across runs while the database's epochs stay put.
3. **Answer caching.**  With an :class:`~repro.exec.cache.AnswerCache`
   attached, results are memoized under ``(query form, constants,
   epoch snapshot)``.  The epoch snapshot covers every base relation
   the rewritten program reads (see
   :meth:`~repro.engine.database.Database.epochs`), so updating the
   database silently invalidates exactly the dependent entries.
4. **Counting-set memoization.**  With a
   :class:`~repro.exec.cache.CountingTableStore` attached, the
   pointer/cyclic evaluators skip phase 1 (the left-graph waves and
   the arc classification) when the source node was already explored
   under the current epochs.
5. **Parallel attempts.**  ``run(workers=N)`` ships phase 1 of the
   pointer/cyclic evaluators to worker processes, or first tries the
   sharded ``parallel`` strategy for every other method.

A first run's answers, counters and extras are identical to a cold
``run_strategy`` call on the equivalent bound query
(:meth:`PreparedQuery.bind` builds that query for comparison).
"""

import time
import weakref

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import Compound, Constant
from ..engine.instrumentation import EvalStats
from ..errors import EvaluationError, NotApplicableError
from ..rewriting.pipeline import optimize
from .strategies import (
    COLD,
    STRATEGIES,
    Binding,
    ExecutionResult,
    run_strategy,
)


class _FormKey:
    """The structural identity of a query form, hashed once.

    The parts embed the form's whole program, so hashing them walks
    every rule, atom and term; cache lookups hash the key on every
    ``get`` and ``put``.  The hash is computed at construction and
    equality stays structural, so two prepared instances of one form
    still share cache entries.  A pickled key carries only its parts and
    hashes again where it is loaded (string hashes differ per process).
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (
            isinstance(other, _FormKey)
            and self._hash == other._hash
            and self.parts == other.parts
        )

    def __reduce__(self):
        return (_FormKey, (self.parts,))

    def __repr__(self):
        return "_FormKey(%r)" % (self.parts,)


class FormParameter:
    """Placeholder constant standing for one bound goal position.

    Compared and hashed by identity (the ``object`` default), so a
    sentinel can never be confused with a program constant — not even
    with another sentinel of the same position from a different
    prepared query.
    """

    __slots__ = ("position",)

    def __init__(self, position):
        self.position = position

    def __repr__(self):
        return "<?%d>" % self.position


# -- sentinel detection and substitution over terms/literals/rules -----

def _term_mentions(term):
    if isinstance(term, Constant):
        return isinstance(term.value, FormParameter)
    if isinstance(term, Compound):
        return any(_term_mentions(arg) for arg in term.args)
    return False


def _literal_mentions(literal):
    if isinstance(literal, Atom):
        return any(_term_mentions(arg) for arg in literal.args)
    if isinstance(literal, Negation):
        return any(_term_mentions(arg) for arg in literal.atom.args)
    if isinstance(literal, Comparison):
        return _term_mentions(literal.left) or _term_mentions(literal.right)
    return False


def _rule_mentions(rule):
    return any(_term_mentions(arg) for arg in rule.head.args) or any(
        _literal_mentions(lit) for lit in rule.body
    )


def _substitute_term(term, mapping):
    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, FormParameter):
            return Constant(mapping[value])
        return term
    if isinstance(term, Compound):
        return Compound(
            term.functor,
            tuple(_substitute_term(arg, mapping) for arg in term.args),
        )
    return term


def _substitute_atom(atom, mapping):
    return Atom(
        atom.pred, tuple(_substitute_term(arg, mapping) for arg in atom.args)
    )


def _substitute_literal(literal, mapping):
    if isinstance(literal, Atom):
        return _substitute_atom(literal, mapping)
    if isinstance(literal, Negation):
        return Negation(_substitute_atom(literal.atom, mapping))
    return Comparison(
        literal.op,
        _substitute_term(literal.left, mapping),
        _substitute_term(literal.right, mapping),
    )


def _substitute_rule(rule, mapping):
    return Rule(
        _substitute_atom(rule.head, mapping),
        tuple(_substitute_literal(lit, mapping) for lit in rule.body),
        label=rule.label,
    )


class _ScopedTableStore:
    """Adapter presenting a :class:`CountingTableStore` to one engine run.

    The engine keys entries by source node only; the adapter widens the
    key with the query form and carries the epoch snapshot the store
    validates against.
    """

    __slots__ = ("store", "form", "epochs")

    def __init__(self, store, form, epochs):
        self.store = store
        self.form = form
        self.epochs = epochs

    def get(self, node):
        return self.store.get((self.form, node), self.epochs)

    def put(self, node, table):
        self.store.put((self.form, node), self.epochs, table)


class _Binding(Binding):
    """One run of a prepared form: sentinels become the run's
    constants, and data memos live on the :class:`PreparedQuery`."""

    __slots__ = ("prepared", "db", "mapping", "workers", "extras",
                 "_epochs")

    def __init__(self, prepared, db, constants, workers):
        self.prepared = prepared
        self.db = db
        self.mapping = dict(zip(prepared._params, constants))
        self.workers = workers
        #: Measurements of the binding layer itself, merged into the
        #: run's extras.
        self.extras = {}
        self._epochs = None

    def epochs(self):
        if self._epochs is None:
            self._epochs = self.db.epochs(self.prepared.read_keys)
        return self._epochs

    def atom(self, atom):
        if _literal_mentions(atom):
            return _substitute_atom(atom, self.mapping)
        return atom

    def program(self, program):
        # One form per prepared query, hence one engine program.
        flags = self.prepared._parametric
        if flags is None:
            flags = self.prepared._parametric = tuple(
                _rule_mentions(rule) for rule in program
            )
        if not any(flags):
            return program
        return Program(tuple(
            _substitute_rule(rule, self.mapping) if parametric else rule
            for rule, parametric in zip(program, flags)
        ))

    def values(self, values):
        return tuple(
            self.mapping[value] if isinstance(value, FormParameter)
            else value
            for value in values
        )

    def memo(self, name, build):
        epochs = self.epochs()
        entry = self.prepared._memos.get(name)
        if entry is not None and entry[0]() is self.db \
                and entry[1] == epochs:
            return entry[2]
        value = build()
        self.prepared._memos[name] = (weakref.ref(self.db), epochs, value)
        return value

    def attach(self, engine, shippable):
        prepared = self.prepared
        if prepared.counting_store is not None:
            engine.table_store = _ScopedTableStore(
                prepared.counting_store, prepared._form_key, self.epochs()
            )
        if self.workers is not None and self.workers >= 2 and shippable:
            from ..parallel.counting import WavePool

            engine.wave_pool = WavePool(engine.left_graph, self.db,
                                        self.workers, self.extras)


class PreparedQuery:
    """A query form prepared for repeated evaluation.

    Parameters
    ----------
    query : :class:`~repro.datalog.rules.Query`
        The query whose *form* (goal predicate, adornment, program) is
        prepared.  Its constants become the default binding.
    db : optional :class:`~repro.engine.database.Database`
        Used by ``method='auto'`` selection only; runs name their
        database explicitly.
    method : strategy name or ``'auto'``
        Same contract as :func:`repro.rewriting.pipeline.optimize`.
    cache : optional :class:`~repro.exec.cache.AnswerCache`
        Shared answer memo; hits skip evaluation entirely.
    counting_store : optional :class:`~repro.exec.cache.CountingTableStore`
        Shared counting-set memo for the pointer/cyclic evaluators.
    """

    def __init__(self, query, db=None, method="auto", cache=None,
                 counting_store=None):
        plan = optimize(query, db, method=method)
        self.method = plan.method
        self.strategy = STRATEGIES[plan.method]
        #: The plan's query — may differ from the input when the
        #: optimizer linearized square rules; it is the template every
        #: binding re-instantiates.
        self.template = plan.query
        self.plan = plan
        self.cache = cache
        self.counting_store = counting_store
        goal = self.template.goal
        self.bound_positions = tuple(
            i for i, arg in enumerate(goal.args)
            if isinstance(arg, Constant)
        )
        self.default_constants = tuple(
            goal.args[i].value for i in self.bound_positions
        )
        program = self.template.program
        reads = set(program.body_predicates() - program.head_predicates())
        if goal.key not in program.head_predicates():
            reads.add(goal.key)
        #: Base relations the rewritten program may read — the epoch
        #: snapshot over these keys is the invalidation fingerprint.
        self.read_keys = tuple(sorted(reads))
        self._params = tuple(FormParameter(i) for i in self.bound_positions)
        sentinel_args = list(goal.args)
        for param, pos in zip(self._params, self.bound_positions):
            sentinel_args[pos] = Constant(param)
        #: Structural identity of the query form; shared caches use it
        #: so two prepared instances of the same form exchange entries.
        self._form_key = _FormKey(
            (goal.key, self.template.adornment(), self.method,
             program.rules)
        )
        self._runs = 0
        #: Data memos of :meth:`_Binding.memo`: name -> (database
        #: weakref, epoch snapshot, value).
        self._memos = {}
        #: Per-rule mentions-a-sentinel flags of the form's engine
        #: program, computed on first use.
        self._parametric = None
        try:
            self._form = self.strategy.prepare(
                Query(goal.with_args(tuple(sentinel_args)), program)
            )
        except NotApplicableError:
            # Each run prepares its bound query instead, and so raises
            # the error a cold run would.
            self._form = None

    # -- binding helpers -----------------------------------------------

    def _normalize(self, constants, db=None):
        if constants is None:
            constants = self.default_constants
        constants = tuple(constants)
        if len(constants) != len(self.bound_positions):
            raise ValueError(
                "query form binds %d position(s), got %d constant(s)"
                % (len(self.bound_positions), len(constants))
            )
        if db is not None:
            constants = db.intern_pool.intern_row(constants)
        return constants

    def bind(self, constants=None):
        """The plain bound :class:`Query` for ``constants``.

        This is exactly what a cold ``run_strategy(prepared.method,
        prepared.bind(c), db)`` call evaluates — benchmarks use it as
        the uncached baseline.
        """
        goal = self.template.goal
        args = list(goal.args)
        for pos, value in zip(self.bound_positions,
                              self._normalize(constants)):
            args[pos] = Constant(value)
        return Query(goal.with_args(tuple(args)), self.template.program)

    def size_bound(self, db):
        """Static work estimate for this form against ``db``.

        The adornment bounds the answer space — every *free* goal
        position multiplies the tuples a run may have to touch — and
        the EDB sizes of ``read_keys`` bound the facts any evaluation
        can read, so the product ``sum(|R| for R in read_keys) * free
        positions`` is a crude but monotone size bound in the spirit of
        the size-bound-adorned pricing literature.  The tenancy layer's
        :class:`~repro.tenancy.forms.FormRegistry` buckets it into cost
        classes; it is an *ordering* signal (light vs heavy forms on the
        same database), never a cardinality estimate.
        """
        edb = sum(len(db.get(key)) for key in self.read_keys)
        frees = len(self.template.goal.args) - len(self.bound_positions)
        return max(1, edb) * max(1, frees)

    # -- evaluation ----------------------------------------------------

    def run(self, constants=None, db=None, budget=None, workers=None,
            recovery=None):
        """Evaluate the form for one binding; returns an
        :class:`~repro.exec.strategies.ExecutionResult`.

        ``stats.cache_hits`` / ``stats.cache_misses`` record the answer
        cache's verdict; ``stats.prepare_reuse`` is 1 when this run
        reused the prepared form instead of building it.

        ``workers`` (>= 2) asks for data-parallel evaluation: the
        pointer/cyclic counting evaluators parallelize phase 1 of the
        counting-set build, every other method first attempts the
        sharded-fixpoint ``parallel`` strategy.  Either path degrades
        to the prepared serial evaluation on any worker or planning
        failure — ``extras["parallel_fallback"]`` then names the error
        class.  ``recovery`` tunes the sharded stage's self-healing
        (a :class:`~repro.parallel.supervisor.RecoveryPolicy` or mode
        string; default shard reassignment), so a worker crash is
        repaired in place before this serial fallback is considered.
        Answers are byte-identical either way, so the answer cache is
        keyed without ``workers`` or ``recovery``.
        """
        if db is None:
            raise TypeError("PreparedQuery.run() requires a database")
        constants = self._normalize(constants, db)
        started = time.perf_counter()
        stats = EvalStats()
        key = None
        if self.cache is not None:
            key = (self._form_key, constants, db.epochs(self.read_keys))
            # Entries are validated by lineage, not object identity:
            # snapshots of the same database — and a durably *recovered*
            # database, which restores its lineage from disk — share the
            # token, so a warm cache survives recovery; an unrelated
            # database that merely has equal epochs does not match.
            cached = self.cache.get(
                key, valid=lambda entry: entry[0] == db.lineage
            )
            if cached is not None:
                stats.cache_hits = 1
                extras = dict(cached[2])
                extras["cache_hit"] = True
                return ExecutionResult(
                    self.method, cached[1], stats, extras,
                    elapsed=time.perf_counter() - started,
                )
        stats.cache_misses = 1
        if self._runs:
            stats.prepare_reuse = 1
        self._runs += 1
        result = self._execute(constants, db, stats, budget, started,
                               workers=workers, recovery=recovery)
        if self.cache is not None:
            extras = {
                name: value
                for name, value in result.extras.items()
                if name != "cache_hit"
            }
            self.cache.put(key, (db.lineage, result.answers, extras))
        return result

    def run_batch(self, bindings, db=None, budget=None, workers=None,
                  recovery=None):
        """Evaluate many bindings; results in the order of ``bindings``."""
        return [
            self.run(binding, db=db, budget=budget, workers=workers,
                     recovery=recovery)
            for binding in bindings
        ]

    def _execute(self, constants, db, stats, budget, started,
                 workers=None, recovery=None):
        parallel_fallback = None
        if workers is not None and workers >= 2 \
                and not self.strategy.ships_phase1:
            # Sharded-fixpoint attempt; the prepared serial run below is
            # the fallback.  Budget errors propagate — they describe the
            # caller's limits, and a serial retry cannot beat them.
            try:
                result = run_strategy(
                    "parallel", self.bind(constants), db,
                    budget=budget, workers=workers, recovery=recovery,
                )
            except (NotApplicableError, EvaluationError) as exc:
                parallel_fallback = type(exc).__name__
            else:
                result.stats.cache_misses += stats.cache_misses
                result.stats.prepare_reuse += stats.prepare_reuse
                result.extras["prepared"] = False
                result.extras["cache_hit"] = False
                return result
        if self._form is None:
            answers, extras = self.strategy.run(
                self.strategy.prepare(self.bind(constants)), COLD, db,
                stats, budget,
            )
        else:
            binding = _Binding(self, db, constants, workers)
            answers, extras = self.strategy.run(
                self._form, binding, db, stats, budget
            )
            extras.update(binding.extras)
        if parallel_fallback is not None:
            extras["parallel_fallback"] = parallel_fallback
        extras["prepared"] = self._form is not None
        extras["cache_hit"] = False
        return ExecutionResult(
            self.method, answers, stats, extras,
            elapsed=time.perf_counter() - started,
        )

    def __repr__(self):
        return "PreparedQuery(%s, %s, %d run(s))" % (
            self.template.goal.pred, self.method, self._runs
        )
