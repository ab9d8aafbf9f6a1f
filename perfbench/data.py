"""Seeded fact generators for the benchmark's workloads.

Every generator takes two ``random.Random`` streams: ``shape`` fixes the
structure (tree shapes, graph arcs, chain lengths) and is the same for
every workload seed, so the cost distribution a run samples does not
drift from seed to seed; ``rng`` comes from the workload seed and picks
node names, rule labels, shared values and extra crossings.  Each
returns plain ``(predicate, values)`` fact lists plus the node lists the
workloads draw bindings from, so the same seed always yields the same
facts in the same order.  Shapes follow the paper's examples: mirrored
same-generation trees (Examples 1 and 3), trees whose left and right
parts share a variable (Example 4), cyclic ``up`` graphs (Example 5),
mixed- and left-linear chains (Example 6), plus the chain and cylinder
shapes the sharded fixpoint is measured on.
"""

#: Program texts; ``%s`` is the bound constant.
SG = """
sg(X, Y) :- flat(X, Y).
sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
?- sg(%s, Y).
"""

MULTI_RULE = """
msg(X, Y) :- mflat(X, Y).
msg(X, Y) :- up1(X, X1), msg(X1, Y1), down1(Y1, Y).
msg(X, Y) :- up2(X, X1), msg(X1, Y1), down2(Y1, Y).
?- msg(%s, Y).
"""

SHARED_VARS = """
p(X, Y) :- flat(X, Y).
p(X, Y) :- up1(X, X1, W), p(X1, Y1), down1(Y1, Y, W).
p(X, Y) :- up2(X, X1), p(X1, Y1), down2(Y1, Y, X).
?- p(%s, Y).
"""

NONLINEAR = """
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, W), anc(W, Y).
?- anc(%s, Y).
"""

MIXED_LINEAR = """
m(X, Y) :- flat(X, Y).
m(X, Y) :- up(X, X1), m(X1, Y).
m(X, Y) :- m(X, Y1), down(Y1, Y).
?- m(%s, Y).
"""

LEFT_LINEAR = """
desc(X, Y) :- flat(X, Y).
desc(X, Y) :- desc(X, Y1), down(Y1, Y).
?- desc(%s, Y).
"""

SQUARE_TC = """
tc(X, Y) :- arc(X, Y).
tc(X, Y) :- tc(X, Z), tc(Z, Y).
?- tc(%s, Y).
"""

REACH = """
reach(X, Y) :- link(X, Y).
reach(X, Y) :- link(X, Z), reach(Z, Y).
?- reach(%s, Y).
"""


def _names(rng, prefix, count):
    """``count`` node names, numbered in a seeded order."""
    numbers = list(range(count))
    rng.shuffle(numbers)
    return ["%s%d" % (prefix, n) for n in numbers]


def _random_tree(shape, depth, fanouts):
    """A random tree whose leaves all sit at ``depth``.

    Returns ``(levels, edges)`` over node numbers: ``levels[d]`` lists
    the nodes at depth ``d``; ``edges`` holds ``(parent, child)`` pairs.
    """
    levels = [[0]]
    edges = []
    counter = 1
    for _ in range(depth):
        nxt = []
        for parent in levels[-1]:
            for _child in range(shape.choice(fanouts)):
                edges.append((parent, counter))
                nxt.append(counter)
                counter += 1
        levels.append(nxt)
    return levels, edges


def mirrored_forest(shape, rng, trees, depth, prefix, kind="sg",
                    fanouts=(1, 2, 2, 3)):
    """Same-generation data over ``trees`` random mirrored trees.

    ``up`` arcs descend tree ``U``; each arc has a mirror ``down`` arc
    ascending tree ``D``; every leaf of ``U`` has a ``flat`` arc to its
    mirror leaf and one to a seeded random leaf of the same tree, so a
    binding has several answers.  ``kind`` selects the relation names:
    ``"sg"`` (Example 1), ``"multi"`` (Example 3: each arc is of rule 1
    or 2 by the seed) or ``"shared"`` (Example 4: rule-1 arcs carry a
    shared value ``W``, rule-2 arcs pass the parent node ``X``, and a
    decoy ``down1`` arc with the wrong ``W`` must never fire).

    Returns ``(facts, levels)`` where ``levels[d]`` lists every ``U``
    node at depth ``d`` over all trees.
    """
    facts = []
    all_levels = [[] for _ in range(depth + 1)]
    flat = "mflat" if kind == "multi" else "flat"
    tree_names = _names(rng, prefix, trees)
    for tree in range(trees):
        levels, edges = _random_tree(shape, depth, fanouts)
        up = "%s_u" % tree_names[tree]
        down = "%s_d" % tree_names[tree]

        def u(node, up=up):
            return "%s%d" % (up, node)

        def d(node, down=down):
            return "%s%d" % (down, node)

        for parent, child in edges:
            rule = rng.choice((1, 2))
            if kind == "sg":
                facts.append(("up", (u(parent), u(child))))
                facts.append(("down", (d(child), d(parent))))
            elif kind == "multi":
                facts.append(("up%d" % rule, (u(parent), u(child))))
                facts.append(("down%d" % rule, (d(child), d(parent))))
            elif rule == 1:
                shared = rng.randrange(4)
                facts.append(("up1", (u(parent), u(child), shared)))
                facts.append(("down1", (d(child), d(parent), shared)))
                facts.append(("down1", (d(child), d(parent) + "x",
                                        shared + 1)))
            else:
                facts.append(("up2", (u(parent), u(child))))
                facts.append(("down2", (d(child), d(parent), u(parent))))
        leaves = levels[-1]
        for leaf in leaves:
            facts.append((flat, (u(leaf), d(leaf))))
            facts.append((flat, (u(leaf), d(rng.choice(leaves)))))
        for depth_index, level in enumerate(levels):
            all_levels[depth_index].extend(u(node) for node in level)
    return facts, all_levels


def cyclic_components(shape, rng, components, prefix):
    """Same-generation data whose ``up`` graph has cycles (Example 5).

    Each component is a short chain running into a ring; ``flat``
    leaves the ring at one or two nodes into ``down`` chains, so the
    counting set has back arcs and answers appear at many generations.
    Returns ``(facts, nodes)`` — ``nodes`` are the chain and ring nodes
    (the bindings).
    """
    facts = []
    nodes = []
    comp_names = _names(rng, prefix, components)
    for comp in range(components):
        def name(kind, i, c=comp_names[comp]):
            return "%s%s%d" % (c, kind, i)

        lead = shape.randint(1, 3)
        ring = shape.randint(2, 4)
        chain = [name("c", i) for i in range(lead)]
        cycle = [name("r", i) for i in range(ring)]
        path = chain + cycle
        for a, b in zip(path, path[1:]):
            facts.append(("up", (a, b)))
        facts.append(("up", (cycle[-1], cycle[0])))
        for exit_index in shape.sample(range(ring), min(ring, 2)):
            length = shape.randint(6, 10)
            down = [name("w%d_" % exit_index, i) for i in range(length)]
            facts.append(("flat", (cycle[exit_index], down[0])))
            for a, b in zip(down, down[1:]):
                facts.append(("down", (a, b)))
        nodes.extend(path)
    return facts, nodes


def random_dag(shape, rng, nodes, extra, prefix, pred):
    """A random DAG: a random spanning tree plus ``extra`` forward arcs.

    Returns ``(facts, names)``; ``names[i]`` is node ``i`` and arcs
    point from lower to higher index.
    """
    names = _names(rng, prefix, nodes)
    arcs = set()
    for i in range(1, nodes):
        arcs.add((shape.randrange(max(0, i - 8), i), i))
    while len(arcs) < nodes - 1 + extra:
        i = shape.randrange(nodes - 1)
        arcs.add((i, shape.randrange(i + 1, min(nodes, i + 12))))
    return [(pred, (names[i], names[j])) for i, j in sorted(arcs)], names


def dag_components(shape, rng, components, size, prefix, pred):
    """``components`` disjoint random DAGs of ``size`` nodes each.

    Arcs run forward within a component, so how much a node reaches
    depends on its position, not on which component it is in.  Returns
    ``(facts, positions)`` where ``positions[p]`` lists the node at
    position ``p`` of every component.
    """
    names = _names(rng, prefix, components * size)
    facts = []
    positions = [[] for _ in range(size)]
    for comp in range(components):
        base = comp * size
        arcs = set()
        for i in range(1, size):
            arcs.add((shape.randrange(max(0, i - 4), i), i))
            if i + 1 < size and shape.random() < 0.5:
                arcs.add((i, shape.randrange(i + 1, min(size, i + 5))))
        facts.extend((pred, (names[base + i], names[base + j]))
                     for i, j in sorted(arcs))
        for p in range(size):
            positions[p].append(names[base + p])
    return facts, positions


def mixed_linear(shape, rng, nodes, prefix):
    """Example 6 data: an ``up`` DAG, ``flat`` crossings, ``down`` DAG."""
    up, names = random_dag(shape, rng, nodes, nodes // 4, prefix + "u",
                           "up")
    down, dnames = random_dag(shape, rng, nodes, nodes // 4, prefix + "d",
                              "down")
    flat = [("flat", (u, dnames[shape.randrange(nodes // 3)]))
            for u in names if shape.random() < 0.2]
    return up + flat + down, names


def left_linear(shape, rng, sources, nodes, prefix):
    """``flat`` from each source into a ``down`` DAG (pure left-linear)."""
    down, dnames = random_dag(shape, rng, nodes, nodes // 3, prefix + "d",
                              "down")
    srcs = _names(rng, prefix + "s", sources)
    flat = [("flat", (s, dnames[shape.randrange(nodes // 2)]))
            for s in srcs]
    return flat + down, srcs


def parent_forest(shape, rng, nodes, prefix, size=24):
    """``par`` arcs of random recursive trees of ``size`` nodes (the
    non-linear ancestor form)."""
    names = _names(rng, prefix, nodes)
    facts = [("par", (names[shape.randrange(i - i % size, i)], names[i]))
             for i in range(1, nodes) if i % size]
    return facts, names


def sparse_graph(shape, rng, nodes, prefix):
    """``arc`` facts of a sparse random graph with short cycles."""
    names = _names(rng, prefix, nodes)
    arcs = set()
    for i in range(nodes):
        arcs.add((i, shape.randrange(i, min(nodes, i + 6))))
        if shape.random() < 0.1:
            arcs.add((i, shape.randrange(max(0, i - 5), i + 1)))
    return [("arc", (names[i], names[j])) for i, j in sorted(arcs)], names


def chain_pairs(rng, depths, prefix):
    """Same-generation chain pairs (the ``sg_chain`` shape), one per
    entry of ``depths``, with flat crossings at every level.  Returns
    ``(facts, starts)`` with ``starts`` the up-chain nodes a binding
    may start from."""
    facts = []
    starts = []
    chain_names = _names(rng, prefix, len(depths))
    for c, depth in enumerate(depths):
        x = ["%sx%d" % (chain_names[c], i) for i in range(depth + 1)]
        y = ["%sy%d" % (chain_names[c], i) for i in range(depth + 1)]
        for i in range(depth):
            facts.append(("up", (x[i], x[i + 1])))
            facts.append(("down", (y[i], y[i + 1])))
        for i in range(depth + 1):
            facts.append(("flat", (x[i], y[i])))
        starts.extend(x[: max(1, depth // 3)])
    return facts, starts


def cylinders(rng, sizes, prefix):
    """Mirrored Bancilhon-Ramakrishnan cylinders (the ``sg_cylinder``
    shape), one per ``(width, height)`` in ``sizes``.  Returns
    ``(facts, starts)`` — the first-layer nodes."""
    facts = []
    starts = []
    cyl_names = _names(rng, prefix, len(sizes))
    for c, (width, height) in enumerate(sizes):
        def node(side, i, j, c=cyl_names[c]):
            return "%s%s%d_%d" % (c, side, i, j)

        for i in range(height):
            for j in range(width):
                for k in (j, (j + 1) % width):
                    facts.append(("up", (node("u", i, j),
                                         node("u", i + 1, k))))
                    facts.append(("down", (node("d", i + 1, k),
                                           node("d", i, j))))
        for j in range(width):
            facts.append(("flat", (node("u", height, j),
                                   node("d", height, j))))
        starts.extend(node("u", 0, j) for j in range(width))
    return facts, starts
