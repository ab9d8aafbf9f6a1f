"""Pointer-based counting evaluator (§3.4 and Algorithm 2).

This module is the executable form of the paper's implementation notes:
instead of evaluating the weakly-stratified rewritten program through a
generic engine, the counting set is built directly from the left-part
graph, back-arc information is folded into the counting tuples (making
the predicate ``f`` unnecessary), and the answer phase navigates tuple
identifiers — "a direct access to the memory".  Both phases run
set-at-a-time:

1. **Waves.**  :class:`LeftGraph` grows the left graph reachable from
   the source in breadth waves.  Each wave issues one batched
   bound-query call per recursive rule (:meth:`BoundQuery.bind_many
   <repro.engine.compile.BoundQuery.bind_many>`), covering every
   frontier node of the rule's head predicate, and the result is the
   finished successor map.
   :class:`~repro.parallel.counting.WavePool` spreads the same waves
   over worker processes.
2. **Replay.**  :func:`~repro.graph.dfs.classify_arcs` runs once over
   that map — the DFS performs no database work — and its discovery
   order and arc lists fill the :class:`CountingTable` directly.
   Successors are visited in the classification's deterministic
   order, so table ids do not depend on the wave order.
3. **Level-batched unwind.**  The answer phase pops a whole
   breadth-first level of states at a time and runs one batched call
   per exit, modified or left-linear rule for the level, then emits the
   derived states in exactly the order the one-state-at-a-time FIFO
   would have: parents, ``answer_path`` and ``max_frontier`` are those
   of that discipline.  The Bushy-Depth-First order runs the same loop
   with levels of one state.

Data model
----------

* A *node* is a pair ``(predicate key, bound-argument values)`` — the
  clique may contain several mutually recursive predicates.
* The :class:`CountingTable` holds one row per node reachable from the
  query constants.  Each row carries the set of *in-triples*
  ``(rule label, shared values, predecessor id)`` — one per left-part
  arc entering the node, ahead and back arcs alike.  The source row
  carries the sentinel triple ``(None, (), None)``.
* The answer phase derives *states* ``(predicate key, answer values,
  row id)``: the predicate instance holds at ``(row.values, answer
  values)``.  Exit rules seed states; each modified-rule step consumes
  one in-triple of the state's row, applies the source rule's right
  part and moves to the predecessor row.  A state whose row is the
  source row yields an answer.

The state space is finite — at most ``|answers| × |rows|`` states — for
*any* database, cyclic or not, which is the effective content of
Theorem 2(3).  On acyclic data the table coincides with the §3.4
pointer implementation; the back-arc triples are exactly the extra
information Algorithm 2 adds.

Counters are those of one single-node or single-state query call per
expansion, so they do not depend on the batching.  A budget is checked
once per node expansion and once per state pop, as before; when one
fires, the partial counters attached to the error may include the rest
of the current wave's or level's batched queries.
"""

from array import array

from ..engine import faults
from ..engine.compile import bound_query
from ..engine.instrumentation import EvalStats
from ..errors import EvaluationError, NotApplicableError
from ..graph.dfs import classify_arcs

#: Sentinel triple marking the source row.
SOURCE_TRIPLE = (None, (), None)

#: Flat-array encoding of "no predecessor" (the source sentinel).
_NO_PREV = -1


class _TripleView:
    """One row's in-triples, viewed over the table's flat arrays.

    Keeps the historical ``row.triples`` list surface — ``append``,
    iteration, ``len``, ``in``, indexing — while the storage lives in
    the :class:`CountingTable`'s parallel arrays.  Iteration
    materializes ``(label, shared values, predecessor id)`` tuples on
    the fly; the engine itself reads the arrays directly.
    """

    __slots__ = ("_table", "_row_id")

    def __init__(self, table, row_id):
        self._table = table
        self._row_id = row_id

    @property
    def ordinals(self):
        """Positions of this row's triples in the flat arrays, in
        append order."""
        return self._table.ordinals[self._row_id]

    def append(self, triple):
        label, shared, prev = triple
        self._table.add_triple(self._row_id, label, shared, prev)

    def _triple(self, ordinal):
        table = self._table
        prev = table.t_prev[ordinal]
        return (
            table.t_label[ordinal],
            table.t_shared[ordinal],
            None if prev == _NO_PREV else prev,
        )

    def __len__(self):
        return len(self.ordinals)

    def __iter__(self):
        for ordinal in self.ordinals:
            yield self._triple(ordinal)

    def __getitem__(self, index):
        picked = self.ordinals[index]
        if isinstance(index, slice):
            return [self._triple(o) for o in picked]
        return self._triple(picked)

    def __contains__(self, triple):
        return any(candidate == triple for candidate in self)

    def __repr__(self):
        return "_TripleView(o%d, %r)" % (self._row_id, list(self))


class CountingRow:
    """One node of the counting set: a view of one table row."""

    __slots__ = ("id", "pred", "values", "triples")

    def __init__(self, table, row_id):
        self.id = row_id
        self.pred = table.preds[row_id]
        self.values = table.values[row_id]
        #: View of (rule label, shared values, predecessor row id)
        #: in-triples; storage lives in the table's flat arrays.
        self.triples = _TripleView(table, row_id)

    def __repr__(self):
        return "CountingRow(o%d, %s%r, %d triples)" % (
            self.id, self.pred[0], self.values, len(self.triples)
        )


class CountingTable:
    """The per-node counting set with predecessor triples.

    Rows are flat parallel lists — ``preds`` and ``values`` per row id,
    ``ordinals`` holding each row's triple positions — and triples are
    flat parallel arrays: ``t_label`` / ``t_shared`` (lists) and
    ``t_prev`` / ``t_row`` (``array('q')`` machine words, ``-1``
    encoding "no predecessor").  No object exists per row or per triple
    unless asked for: :attr:`rows` and :meth:`row_for` hand out
    :class:`CountingRow` views on demand.
    """

    __slots__ = ("index", "preds", "values", "ordinals", "source_id",
                 "back_arc_count", "ahead_arc_count", "t_label",
                 "t_shared", "t_prev", "t_row", "_views")

    def __init__(self):
        #: Node ``(pred, values)`` -> row id.
        self.index = {}
        self.preds = []
        self.values = []
        self.ordinals = []
        self.source_id = 0
        self.back_arc_count = 0
        self.ahead_arc_count = 0
        #: Flat parallel triple arrays; entry ``i`` is one in-triple of
        #: row ``t_row[i]``.
        self.t_label = []
        self.t_shared = []
        self.t_prev = array("q")
        self.t_row = array("q")
        self._views = []

    @classmethod
    def from_classification(cls, classification):
        """The table of a left-graph arc classification.

        Row ids follow DFS discovery order (the source is row 0 with
        the sentinel triple); each row's in-triples are its tree,
        forward, cross and then back arcs, each kind in DFS order.
        """
        table = cls()
        index = table.index
        for row_id, node in enumerate(classification.order):
            index[node] = row_id
        table.preds = [node[0] for node in classification.order]
        table.values = [node[1] for node in classification.order]
        table.ordinals = [[] for _ in classification.order]
        table.add_triple(0, *SOURCE_TRIPLE)
        tree, forward, cross, back = classification.arc_tuples
        table._add_arcs(tree + forward + cross)
        table.ahead_arc_count = len(tree) + len(forward) + len(cross)
        table._add_arcs(back)
        table.back_arc_count = len(back)
        return table

    def _add_arcs(self, arcs):
        index = self.index
        ordinals = self.ordinals
        start = len(self.t_label)
        targets = [index[target] for _source, target, _label in arcs]
        self.t_label += [label for _s, _t, (label, _shared) in arcs]
        self.t_shared += [shared for _s, _t, (_label, shared) in arcs]
        self.t_prev.extend([index[source] for source, _t, _l in arcs])
        self.t_row.extend(targets)
        for ordinal, row_id in enumerate(targets, start):
            ordinals[row_id].append(ordinal)

    def add_row(self, pred, values):
        """The id of node ``(pred, values)``, appending a row if new."""
        key = (pred, values)
        row_id = self.index.get(key)
        if row_id is None:
            row_id = len(self.preds)
            self.index[key] = row_id
            self.preds.append(pred)
            self.values.append(values)
            self.ordinals.append([])
        return row_id

    def add_triple(self, row_id, label, shared, prev):
        """Append one in-triple to row ``row_id`` (``prev`` None for
        the source sentinel)."""
        self.ordinals[row_id].append(len(self.t_label))
        self.t_label.append(label)
        self.t_shared.append(shared)
        self.t_prev.append(_NO_PREV if prev is None else prev)
        self.t_row.append(row_id)

    def row_for(self, pred, values):
        """The :class:`CountingRow` of node ``(pred, values)``, appending
        a row if new."""
        return CountingRow(self, self.add_row(pred, values))

    @property
    def rows(self):
        """Row views by id, built on first access.

        A grown table gets a new list rather than an extended one:
        tables are shared between threads through the counting-table
        store, and readers must never see a half-extended list.
        """
        views = self._views
        if len(views) < len(self.preds):
            views = views + [CountingRow(self, row_id)
                             for row_id in range(len(views),
                                                 len(self.preds))]
            self._views = views
        return views

    def __len__(self):
        return len(self.preds)

    @property
    def triple_count(self):
        """Total in-triples: the §3.4 per-arc counting-set size."""
        return len(self.t_label)

    def is_acyclic(self):
        return self.back_arc_count == 0

    def render(self):
        """The paper's notation for counting sets, e.g.
        ``o4 : (d, {(r1, [], o3), (r1, [], o5)})``."""
        from ..datalog.pretty import format_value

        def fmt_id(row_id):
            return "nil" if row_id == _NO_PREV else "o%d" % (row_id + 1)

        lines = []
        for row_id, values in enumerate(self.values):
            triples = ", ".join(
                "(%s, %s, %s)" % (
                    self.t_label[o] if self.t_label[o] is not None
                    else "r0",
                    format_value(tuple(self.t_shared[o])),
                    fmt_id(self.t_prev[o]),
                )
                for o in self.ordinals[row_id]
            )
            text = ", ".join(format_value(v) for v in values)
            lines.append(
                "%s : (%s, {%s})" % (fmt_id(row_id), text, triples)
            )
        return "\n".join(lines)


def query_binder(get_relation, queries=None):
    """A ``(site, rule, body, in_names, out_names) -> runner`` lookup.

    Each runner is the shared :class:`~repro.engine.compile.BoundQuery`
    for the call site, bound with :meth:`~repro.engine.compile.
    BoundQuery.bind_many` to a resolver over ``get_relation``: one call
    takes a list of bindings and returns one result list per binding.
    ``queries`` (a dict, e.g. a prepared form's ``query_cache``) keeps
    the compiled queries across binders; the bound runners embed this
    binder's resolver and hoisted relation/view state, so they never
    leave it — a later engine over a different database would
    otherwise probe the first database's relations.  Safe because
    ``get_relation`` is a fixed mapping for one evaluation: support
    relations are materialized before it starts, and evaluation never
    creates or replaces database relations.
    """
    queries = {} if queries is None else queries
    bound = {}

    def resolver(_index, atom):
        return get_relation(atom.key)

    def query(site, rule, body, in_names, out_names):
        key = (site, id(rule))
        runner = bound.get(key)
        if runner is None:
            compiled = queries.get(key)
            if compiled is None:
                compiled = bound_query(body, in_names, out_names)
                queries[key] = compiled
            runner = compiled.bind_many(resolver)
            bound[key] = runner
        return runner

    return query


class LeftGraph:
    """Phase 1's expander: the left-part graph grown in breadth waves.

    ``query`` is a :func:`query_binder` lookup.  :meth:`expand` computes
    one wave's successor lists; :meth:`successor_map` runs the waves
    from a source to the finished map.  The counting engines, the
    magic-counting hybrid's classification, the divergence check and
    the phase-1 worker processes all expand through this class.
    """

    def __init__(self, canonical, query, stats):
        self.canonical = canonical
        self.query = query
        self.stats = stats
        #: Recursive rules with a non-empty left part, in clique order;
        #: a left-linear rule contributes no arc to G_L (the answer
        #: phase applies it in place, at the same row).
        self.rules = tuple(
            rule for rule in canonical.recursive_rules
            if not rule.is_left_linear_shape()
        )

    def expand(self, frontier):
        """Successor lists of ``frontier`` nodes, aligned with it.

        Each list holds ``((rec pred, values), (rule label, shared
        values))`` pairs, rules in clique order and each rule's results
        in query order — what a one-node-at-a-time expansion returns.
        """
        stats = self.stats
        lists = [[] for _ in frontier]
        for rule in self.rules:
            head = rule.head_key
            picked = [i for i, node in enumerate(frontier)
                      if node[0] == head]
            if not picked:
                continue
            runner = self.query(
                "left", rule, rule.left, rule.bound_vars,
                rule.rec_bound_vars + rule.shared_vars,
            )
            stats.rule_firings += len(picked)
            split = len(rule.rec_bound_vars)
            rec_key, label = rule.rec_key, rule.label
            outs = runner([frontier[i][1] for i in picked], stats)
            for i, results in zip(picked, outs):
                if results:
                    lists[i] += [
                        ((rec_key, result[:split]), (label, result[split:]))
                        for result in results
                    ]
        return lists

    def successor_map(self, source, budget=None, pool=None):
        """``{node: successor list}`` for every node reachable from
        ``source``.

        ``budget`` is checked once per node expansion.  ``pool`` (a
        :class:`~repro.parallel.counting.WavePool`) expands the waves
        instead of this process; it is closed when the map is done.
        """
        expand = self.expand if pool is None else pool.expand
        successors = {}
        frontier = [source]
        seen = {source}
        try:
            while frontier:
                if budget is not None:
                    for _node in frontier:
                        budget.check(self.stats)
                upcoming = []
                for node, pairs in zip(frontier, expand(frontier)):
                    successors[node] = pairs
                    for target, _label in pairs:
                        if target not in seen:
                            seen.add(target)
                            upcoming.append(target)
                frontier = upcoming
        finally:
            if pool is not None:
                pool.close()
        return successors

    def classify(self, source, budget=None, pool=None):
        """The DFS arc classification of the graph reachable from
        ``source``, replayed over the finished successor map."""
        successors = self.successor_map(source, budget, pool)
        return classify_arcs(source, successors.__getitem__)


class CountingEngine:
    """Two-phase counting evaluation of one canonical clique.

    Parameters
    ----------
    canonical : :class:`~repro.rewriting.canonical.CanonicalClique`
    goal_key : adorned predicate key of the query goal.
    source_values : tuple of the goal's bound constants.
    get_relation : callable key -> relation (database plus support
        predicates materialized by lower cliques).
    stats : optional shared :class:`EvalStats`.
    require_acyclic : raise :class:`NotApplicableError` if the left
        graph has back arcs (the §3.4 acyclic pointer method).
    """

    def __init__(self, canonical, goal_key, source_values, get_relation,
                 stats=None, require_acyclic=False, answer_order="bfs",
                 budget=None, query_cache=None, table_store=None):
        self.canonical = canonical
        self.goal_key = goal_key
        self.source_values = tuple(source_values)
        self.get_relation = get_relation
        self.stats = stats if stats is not None else EvalStats()
        self.require_acyclic = require_acyclic
        #: Optional :class:`~repro.engine.guard.ResourceBudget` checked
        #: per node expansion in phase 1 and per state pop in the
        #: answer phase.
        self.budget = budget
        if answer_order not in ("bfs", "dfs"):
            raise ValueError("answer_order must be 'bfs' or 'dfs'")
        #: Exploration order of the answer phase.  ``"dfs"`` is the
        #: Bushy-Depth-First discipline of the LDL prototype [7] the
        #: paper's implementation notes assume: each exit tuple is
        #: unwound to the source before the next is touched, keeping
        #: the frontier small.  Both orders visit the same state set.
        self.answer_order = answer_order
        self.rules_by_label = {
            rule.label: rule for rule in canonical.recursive_rules
        }
        #: Per-call-site batched runners (see :func:`query_binder`).
        #: The counting strategies pass their prepared form's
        #: ``query_cache`` dict so compilation survives across engine
        #: instances for the same clique.
        self._query = query_binder(get_relation, query_cache)
        self.left_graph = LeftGraph(canonical, self._query, self.stats)
        #: Optional node-keyed counting-table store (``get(node)`` /
        #: ``put(node, table)``): when the source node was already
        #: explored by an earlier run, phase 1 (the left-graph waves
        #: and ahead/back-arc construction) is skipped entirely and the
        #: run goes straight to the answer phase.
        self.table_store = table_store
        #: True when phase 1 was served from ``table_store``.
        self.table_reused = False
        #: Optional :class:`~repro.parallel.counting.WavePool` that
        #: expands phase 1's waves on worker processes.
        self.wave_pool = None
        self.table = None
        self._answers = None
        self._parents = {}
        self._state_count = 0
        #: Largest pending-frontier size seen (memory high-water mark).
        self.max_frontier = 0
        # Answer-phase caches: pop-step runners per rule label,
        # left-linear runners per predicate, and per (predicate, row)
        # the steps out of a state there.
        self._unwind_entries = {}
        self._left_linear = {}
        self._plans = {}

    # -- phase 1: counting set ---------------------------------------

    def _successors(self, node):
        """Left-graph successors of ``node`` with (label, shared)
        labels: a wave of one node."""
        if self.budget is not None:
            self.budget.check(self.stats)
        return self.left_graph.expand([node])[0]

    def build_counting_set(self):
        """Expand the left graph, classify it and materialize the
        counting table.

        With a ``table_store``, a node already explored by an earlier
        run returns its memoized table without touching the database —
        the §3.4 counting set is node-keyed, so it is independent of
        which query instance reached the node first.  The store is
        responsible for epoch validity (see
        :class:`~repro.exec.cache.CountingTableStore`); a memoized
        table with back arcs still raises under ``require_acyclic``
        exactly like a freshly built one.
        """
        source = (self.goal_key, self.source_values)
        if self.table_store is not None:
            table = self.table_store.get(source)
            if table is not None:
                if self.require_acyclic and not table.is_acyclic():
                    raise NotApplicableError(
                        "left-part graph contains %d back arcs; the "
                        "acyclic pointer method does not apply"
                        % table.back_arc_count
                    )
                self.table = table
                self.table_reused = True
                return table
        classification = self.left_graph.classify(
            source, self.budget, self.wave_pool
        )
        if self.require_acyclic and not classification.is_acyclic():
            raise NotApplicableError(
                "left-part graph contains %d back arcs; the acyclic "
                "pointer method does not apply"
                % len(classification.arc_tuples[3])
            )
        table = CountingTable.from_classification(classification)
        self.stats.facts_derived += table.triple_count - 1
        self.table = table
        if self.table_store is not None:
            self.table_store.put(source, table)
        return table

    # -- phase 2: answers ---------------------------------------------

    def _exit_states(self):
        """``(state, exit label)`` seeds from the exit rules at every
        counting row, in row order: one batched call per exit rule."""
        table = self.table
        stats = self.stats
        rows_of = {}
        for row_id, pred in enumerate(table.preds):
            rows_of.setdefault(pred, []).append(row_id)
        per_row = [[] for _ in table.preds]
        for pred, row_ids in rows_of.items():
            inputs = [table.values[row_id] for row_id in row_ids]
            exit_rules, _ = self.canonical.rules_by_head(pred)
            for exit_rule in exit_rules:
                runner = self._query("exit", exit_rule, exit_rule.body,
                                     exit_rule.bound_vars,
                                     exit_rule.free_vars)
                stats.rule_firings += len(row_ids)
                label = exit_rule.label
                for row_id, results in zip(row_ids, runner(inputs, stats)):
                    if results:
                        per_row[row_id].append((label, results))
        preds = table.preds
        return [
            ((preds[row_id], values, row_id), label)
            for row_id, found in enumerate(per_row)
            for label, results in found
            for values in results
        ]

    def _unwind_entry(self, label):
        """``(rec key, runner, head key)`` of one modified rule's pop
        step."""
        rule = self.rules_by_label[label]
        entry = (
            rule.rec_key,
            self._query(
                "unwind", rule, rule.right,
                rule.rec_free_vars + rule.shared_vars
                + rule.bound_vars + rule.rec_bound_vars,
                rule.free_vars,
            ),
            rule.head_key,
        )
        self._unwind_entries[label] = entry
        return entry

    def _left_linear_entries(self, pred):
        """``(runner, head key, label)`` of every left-linear rule
        applied in place to ``pred`` states."""
        entries = tuple(
            (self._query("right", rule, rule.right,
                         rule.rec_free_vars + rule.bound_vars,
                         rule.free_vars),
             rule.head_key, rule.label)
            for rule in self.canonical.recursive_rules
            if rule.is_left_linear_shape() and rule.head_key == pred
        )
        self._left_linear[pred] = entries
        return entries

    def _plan(self, pred, row_id):
        """The steps out of a state ``(pred, ·, row_id)``, in emission
        order: ``(runner, suffix, target row, head key, label)``.

        First one modified-rule pop per in-triple of the row whose rule
        recurses through ``pred`` (input: answer values + shared values
        + predecessor row values + row values; target: the predecessor
        row), then every left-linear rule of ``pred`` applied in place
        (input: answer values + row values; same row).
        """
        table = self.table
        values = table.values
        row_values = values[row_id]
        unwind = self._unwind_entries
        plan = []
        for ordinal in table.ordinals[row_id]:
            label = table.t_label[ordinal]
            if label is None:
                continue
            entry = unwind.get(label) or self._unwind_entry(label)
            if entry[0] != pred:
                continue
            prev_id = table.t_prev[ordinal]
            plan.append((
                entry[1],
                table.t_shared[ordinal] + values[prev_id] + row_values,
                prev_id, entry[2], label,
            ))
        left_linear = self._left_linear.get(pred)
        if left_linear is None:
            left_linear = self._left_linear_entries(pred)
        for runner, head, label in left_linear:
            plan.append((runner, row_values, row_id, head, label))
        self._plans[pred, row_id] = plan
        return plan

    def level_steps(self, level):
        """Plan and run the derivations out of every state of ``level``.

        Returns ``(plans, results)``: ``plans[i]`` is the
        :meth:`_plan` of ``level[i]``, and ``results`` maps each runner
        to an iterator over its result lists, one per plan entry using
        it, in level order.  Every runner the level touches is called
        once, over all of the level's inputs for it.
        """
        plans = self._plans
        inputs = {}
        level_plans = []
        for pred, values, row_id in level:
            plan = plans.get((pred, row_id))
            if plan is None:
                plan = self._plan(pred, row_id)
            level_plans.append(plan)
            for runner, suffix, _target, _head, _label in plan:
                batch = inputs.get(runner)
                if batch is None:
                    inputs[runner] = [values + suffix]
                else:
                    batch.append(values + suffix)
        stats = self.stats
        results = {}
        for runner, batch in inputs.items():
            stats.rule_firings += len(batch)
            results[runner] = iter(runner(batch, stats))
        return level_plans, results

    def compute_answers(self):
        """Run the answer phase; returns the set of answer tuples.

        Answers are projections onto the goal's free arguments: states
        that reach the source row with the goal predicate.
        """
        if self.table is None:
            self.build_counting_set()
        stats = self.stats
        budget = self.budget
        source_id = self.table.source_id
        goal_key = self.goal_key
        depth_first = self.answer_order == "dfs"
        parents = {}
        answers = set()
        pending = []
        for state, label in self._exit_states():
            if state not in parents:
                parents[state] = (label, None)
                pending.append(state)
            else:
                stats.facts_duplicate += 1
        max_frontier = len(pending)
        while pending:
            if depth_first:
                level = [pending.pop()]
            else:
                level, pending = pending, []
            left = len(level)
            plans, results = self.level_steps(level)
            for state, plan in zip(level, plans):
                if budget is not None:
                    budget.check(stats)
                faults.fire("unwind", stats)
                stats.iterations += 1
                left -= 1
                if state[2] == source_id and state[0] == goal_key:
                    answers.add(state[1])
                for runner, _suffix, target, head, label in plan:
                    for out in next(results[runner]):
                        new_state = (head, out, target)
                        if new_state in parents:
                            stats.facts_duplicate += 1
                            continue
                        parents[new_state] = (label, state)
                        stats.facts_derived += 1
                        pending.append(new_state)
                if left + len(pending) > max_frontier:
                    max_frontier = left + len(pending)
        self.max_frontier = max_frontier
        self._answers = frozenset(answers)
        self._parents = parents
        self._state_count = len(parents)
        return self._answers

    def answer_path(self, answer_values):
        """The derivation steps behind one answer tuple.

        Returns the list of ``(rule_label, node_values, answer_values)``
        steps from the exit tuple to the source row — the unwinding of
        the counting prefix.  The first entry is the exit-rule firing.
        Raises :class:`EvaluationError` if :meth:`compute_answers` has
        not run yet, and :class:`KeyError` for values that are not
        answers.
        """
        if self._answers is None:
            raise EvaluationError("answer phase has not run")
        state = (self.goal_key, tuple(answer_values),
                 self.table.source_id)
        if state not in self._parents:
            raise KeyError(answer_values)
        steps = []
        while state is not None:
            label, parent = self._parents[state]
            pred, values, row_id = state
            steps.append((label, self.table.values[row_id], values))
            state = parent
        steps.reverse()
        return steps

    @property
    def state_count(self):
        """Number of distinct answer-phase states (Theorem 2 bound)."""
        return self._state_count

    def run(self):
        """Build (or reuse) the counting set and compute the answers."""
        if self.table is None:
            self.build_counting_set()
        return self.compute_answers()
