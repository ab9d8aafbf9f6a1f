"""Query graphs (Section 2) and the left-part graph the counting
methods navigate.

For a canonical linear rule ``p(X, Y) <- L(A), q(X1, Y1), R(B)`` and a
database ``D``:

* the *left graph* ``G_L`` has an arc ``x -> x1`` labeled ``(rule,
  shared-values)`` for each ground instance of ``L`` in ``D``;
* the *right graph* ``G_R`` has an arc ``y1 -> y`` with the same kind of
  label for each ground instance of ``R``;
* the *exit graph* ``G_E`` has an arc ``x -> y`` for each ground
  instance of an exit-rule body.

Nodes are tuples of values (the bound argument list ``X`` may have any
width).  The counting methods only ever materialize the part of ``G_L``
reachable from the query constants, which is what
:class:`LeftGraph` computes; :func:`left_classification` runs the DFS
arc classification over it, yielding the ahead/back partition used by
Algorithm 2.
"""

from ..engine.compile import bound_query
from .dfs import Arc, classify_arcs


class EdgeSpec:
    """How one recursive rule's left (or right) part generates arcs.

    Attributes
    ----------
    label : the rule label (``r1`` ...).
    literals : the conjunction to evaluate (left or right part).
    source_vars : variable names whose values form the arc source.
    target_vars : variable names whose values form the arc target.
    shared_vars : variable names whose values label the arc (the
        ``C_r`` list of the paper).
    """

    __slots__ = ("label", "literals", "source_vars", "target_vars",
                 "shared_vars")

    def __init__(self, label, literals, source_vars, target_vars,
                 shared_vars=()):
        self.label = label
        self.literals = tuple(literals)
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.shared_vars = tuple(shared_vars)

    def __repr__(self):
        return "EdgeSpec(%s: %s -> %s)" % (
            self.label, self.source_vars, self.target_vars
        )


class LeftGraph:
    """The part of ``G_L`` reachable from the query constants."""

    def __init__(self, db, edge_specs, stats=None):
        self.db = db
        self.edge_specs = tuple(edge_specs)
        self.stats = stats

    def _resolver(self, _index, atom):
        return self.db.get(atom.key)

    def successors(self, node):
        """Yield ``(target, (label, shared_values))`` pairs from ``node``.

        ``node`` is a tuple of values for the spec's source variables.
        """
        results = []
        for spec in self.edge_specs:
            query = bound_query(
                spec.literals, spec.source_vars,
                spec.target_vars + spec.shared_vars,
            )
            split = len(spec.target_vars)
            for result in query.run(self._resolver, node, self.stats):
                results.append(
                    (result[:split], (spec.label, result[split:]))
                )
        return results


def left_classification(db, edge_specs, source, stats=None):
    """DFS-classify the reachable left graph from ``source``.

    ``source`` is the tuple of query-constant values.  Returns an
    :class:`~repro.graph.dfs.ArcClassification` whose arc labels are
    ``(rule_label, shared_values)`` pairs.
    """
    graph = LeftGraph(db, edge_specs, stats=stats)
    return classify_arcs(source, graph.successors)


def enumerate_arcs(db, spec, stats=None):
    """All ground arcs of one spec, not restricted to reachability.

    Used to build ``G_R`` and ``G_E`` for display and for tests; answer
    computation never needs the full right graph.
    """

    def resolver(_index, atom):
        return db.get(atom.key)

    query = bound_query(
        spec.literals, (),
        spec.source_vars + spec.target_vars + spec.shared_vars,
    )
    first = len(spec.source_vars)
    second = first + len(spec.target_vars)
    arcs = []
    for result in query.run(resolver, (), stats):
        arcs.append(Arc(
            result[:first], result[first:second],
            (spec.label, result[second:]),
        ))
    return arcs


class QueryGraph:
    """The full query graph ``G = G_L + G_R + G_E`` of Section 2."""

    def __init__(self, left_arcs, right_arcs, exit_arcs):
        self.left_arcs = tuple(left_arcs)
        self.right_arcs = tuple(right_arcs)
        self.exit_arcs = tuple(exit_arcs)

    @classmethod
    def build(cls, db, left_specs, right_specs, exit_specs, source):
        classification = left_classification(db, left_specs, source)
        left_arcs = classification.arcs
        right_arcs = []
        for spec in right_specs:
            right_arcs.extend(enumerate_arcs(db, spec))
        exit_arcs = []
        for spec in exit_specs:
            exit_arcs.extend(enumerate_arcs(db, spec))
        return cls(left_arcs, right_arcs, exit_arcs)

    def __repr__(self):
        return "QueryGraph(L=%d, R=%d, E=%d arcs)" % (
            len(self.left_arcs),
            len(self.right_arcs),
            len(self.exit_arcs),
        )
