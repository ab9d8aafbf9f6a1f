"""Depth-first search arc classification (Tarjan [18], §2 of the paper).

Given a source node and a successor function, :func:`classify_arcs`
partitions the arcs reachable from the source into the four classical
classes:

* *tree* arcs — arcs of the DFS tree;
* *forward* arcs — to a proper descendant that is not a child;
* *cross* arcs — between nodes unrelated by ancestry;
* *back* arcs — to an ancestor (including self-loops).

Tree, forward and cross arcs together form the *ahead* arcs; the graph
restricted to ahead arcs is acyclic, which is what makes the cyclic
counting method's counting set finite (Section 4).

The classification depends on the DFS visit order; the paper notes that
"more than one different partitions are possible".  We fix a
deterministic order (sorted successors) so results are reproducible.
"""


class Arc:
    """A labeled arc ``source -> target``."""

    __slots__ = ("source", "target", "label")

    def __init__(self, source, target, label=None):
        self.source = source
        self.target = target
        self.label = label

    def __eq__(self, other):
        return (
            isinstance(other, Arc)
            and other.source == self.source
            and other.target == self.target
            and other.label == self.label
        )

    def __hash__(self):
        return hash((self.source, self.target, self.label))

    def __repr__(self):
        if self.label is None:
            return "Arc(%r -> %r)" % (self.source, self.target)
        return "Arc(%r -> %r : %r)" % (self.source, self.target, self.label)


class ArcClassification:
    """Result of :func:`classify_arcs`.

    The arcs are kept as plain ``(source, target, label)`` tuples in
    :attr:`arc_tuples`; the :class:`Arc` objects of :attr:`tree`,
    :attr:`forward`, :attr:`cross` and :attr:`back` are built on first
    access, so consumers that read the tuples (the counting engines)
    never pay for per-arc objects.
    """

    __slots__ = ("source", "arc_tuples", "order", "_arcs")

    def __init__(self, source, tree, forward, cross, back, order):
        self.source = source
        #: ``(tree, forward, cross, back)``: each a tuple of
        #: ``(source, target, label)`` triples in DFS order.
        self.arc_tuples = (tuple(tree), tuple(forward), tuple(cross),
                           tuple(back))
        #: Nodes in DFS discovery order (the reachable node set).
        self.order = tuple(order)
        self._arcs = [None] * 4

    def _materialized(self, kind):
        arcs = self._arcs[kind]
        if arcs is None:
            arcs = tuple(Arc(*triple) for triple in self.arc_tuples[kind])
            self._arcs[kind] = arcs
        return arcs

    @property
    def tree(self):
        return self._materialized(0)

    @property
    def forward(self):
        return self._materialized(1)

    @property
    def cross(self):
        return self._materialized(2)

    @property
    def back(self):
        return self._materialized(3)

    @property
    def ahead(self):
        """Tree + forward + cross arcs: the acyclic skeleton."""
        return self.tree + self.forward + self.cross

    @property
    def arcs(self):
        return self.ahead + self.back

    @property
    def nodes(self):
        return frozenset(self.order)

    def is_acyclic(self):
        """True if the reachable subgraph contains no back arc."""
        return not self.arc_tuples[3]

    def ahead_predecessors(self):
        """Map node -> tuple of ahead arcs entering it."""
        preds = {node: [] for node in self.order}
        for arc in self.ahead:
            preds[arc.target].append(arc)
        return {node: tuple(arcs) for node, arcs in preds.items()}

    def back_predecessors(self):
        """Map node -> tuple of back arcs entering it."""
        preds = {}
        for arc in self.back:
            preds.setdefault(arc.target, []).append(arc)
        return {node: tuple(arcs) for node, arcs in preds.items()}

    def __repr__(self):
        return (
            "ArcClassification(%d nodes, %d tree, %d forward, %d cross, "
            "%d back)"
            % ((len(self.order),)
               + tuple(len(arcs) for arcs in self.arc_tuples))
        )


def _ordered(successor_pairs, reprs, label_reprs):
    """Successor list in deterministic order: by ``repr`` of the target,
    then of the label.

    ``reprs`` and ``label_reprs`` memoize ``repr`` across one
    classification, so each node's (and each hashable label's) sort key
    is computed once however many arcs carry it; lists of fewer than
    two entries (the whole graph, on chain-shaped data) need no
    ordering at all.
    """
    pairs = list(successor_pairs)
    if len(pairs) < 2:
        return pairs

    def key(pair):
        target, label = pair
        target_key = reprs.get(target)
        if target_key is None:
            target_key = reprs[target] = repr(target)
        try:
            label_key = label_reprs[label]
        except KeyError:
            label_key = label_reprs[label] = repr(label)
        except TypeError:  # an unhashable label
            label_key = repr(label)
        return target_key, label_key

    pairs.sort(key=key)
    return pairs


def classify_arcs(source, successors):
    """Classify all arcs reachable from ``source``.

    ``successors(node)`` must yield ``(target, label)`` pairs; the same
    pair may be yielded once per distinct arc.  It is called once per
    reachable node.
    """
    reprs, label_reprs = {}, {}
    discovery = {source: 0}
    order = [source]
    on_stack = {source}
    tree, forward, cross, back = [], [], [], []
    stack = [(source, iter(_ordered(successors(source), reprs, label_reprs)))]
    while stack:
        node, edges = stack[-1]
        for target, label in edges:
            if target not in discovery:
                tree.append((node, target, label))
                discovery[target] = len(order)
                order.append(target)
                on_stack.add(target)
                stack.append((target, iter(
                    _ordered(successors(target), reprs, label_reprs)
                )))
                break
            if target in on_stack:
                back.append((node, target, label))
            elif discovery[target] > discovery[node]:
                forward.append((node, target, label))
            else:
                cross.append((node, target, label))
        else:
            stack.pop()
            on_stack.discard(node)
    return ArcClassification(source, tree, forward, cross, back, order)


def adjacency_successors(arcs):
    """Build a successor function from an iterable of ``Arc`` objects."""
    adjacency = {}
    for arc in arcs:
        adjacency.setdefault(arc.source, []).append((arc.target, arc.label))

    def successors(node):
        return adjacency.get(node, ())

    return successors
