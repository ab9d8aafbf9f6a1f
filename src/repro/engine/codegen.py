"""Specialized executors generated from compiled rule bodies.

A compiled body (:mod:`repro.engine.compile`) is a list of steps; the
interpreted way to run it walks a stack of per-step generators and
re-dispatches on an op tuple for every candidate row.  That
interpretation overhead — a ``next()`` call, a generator frame resume,
and a loop over ``(pos, kind, data)`` tuples per row — is pure
bookkeeping: the set of probes, writes, and checks is fully known at
compile time.  This module emits a *specialized Python function* per
body instead: nested ``for`` loops with the key expressions, slot
writes, and equality checks inlined as straight-line code, compiled
once with :func:`compile` and reused for every evaluation of the rule.

Two forms are generated:

* a **runner** — the executor behind :meth:`CompiledBody.execute`:
  yields the shared slot array once per body match, in depth-first
  order with each level's candidates visited in reverse;
* an **emitter** — the vectorized form used by the set-at-a-time rule
  pass and by :class:`~repro.engine.compile.BoundQuery`: when the last
  body step is a plain scan (writes and checks only), the innermost
  loop collapses into a list comprehension that projects whole result
  batches — one list per innermost index bucket — with the projection's
  slot reads substituted by direct row indexing.  The comprehension's
  loop bookkeeping runs in C, which is where the "emit whole column
  slices instead of per-row slot writes" speedup comes from.

Equivalence contract
--------------------

Generated code must be *observably identical* to the interpreted
executor: same enumeration order (``reversed`` over each candidate
batch), same ``tuples_scanned``/``batch_rows``/``index_*`` counter
updates at the same points, same visibility of in-pass relation
mutations.  The batch granularity of the emitter is safe on that last
point because ``reversed(bucket)`` already snapshots its start index:
rows appended to a live bucket during its own enumeration were
invisible to the interpreted executor too, so draining one bucket's
derivations after the bucket is enumerated (instead of interleaved)
cannot change what any probe sees.  Generation failure is never an
error: Python refuses more than twenty statically nested blocks, so a
body with more than twenty scans keeps the interpreted executor, and
an emitter outside the vectorizable shape is simply not built.
"""

def _key_expr(i, positions, key_parts, ns):
    """The probe-key expression for scan ``i``; mirrors ``_make_key_fn``."""
    if not positions:
        return "None"
    if len(key_parts) == 1:
        kind, data = key_parts[0]
        if kind == 0:  # _KEY_CONST
            name = "_kc%d" % i
            ns[name] = data
            return name
        if kind == 1:  # _KEY_SLOT
            return "slots[%d]" % data
        name = "_kf%d" % i  # _KEY_EVAL
        ns[name] = data
        return "%s(slots)" % name
    if all(kind == 0 for kind, _ in key_parts):
        name = "_kt%d" % i
        ns[name] = tuple(data for _, data in key_parts)
        return name
    parts = []
    for j, (kind, data) in enumerate(key_parts):
        if kind == 0:
            name = "_kc%d_%d" % (i, j)
            ns[name] = data
            parts.append(name)
        elif kind == 1:
            parts.append("slots[%d]" % data)
        else:
            name = "_kf%d_%d" % (i, j)
            ns[name] = data
            parts.append("%s(slots)" % name)
    return "(%s,)" % ", ".join(parts)


def _scan_prologue(i, spec, ns, w, pad, state_alloc=None):
    """Emit the probe + batch-counter lines shared by every scan.

    The relation is resolved lazily on the scan's first invocation and
    cached in a local for the rest of the call: every in-tree resolver
    is a fixed ``(index, atom) -> relation`` mapping for the duration
    of one rule pass (relations mutate in place, their identity does
    not change), so re-resolving per invocation — what the interpreted
    executor does — only costs time.  Lazy rather than up-front so a
    scan that is never reached never resolves, exactly like the
    interpreted path (resolution can materialize empty derived
    relations as a side effect).

    With ``state_alloc`` (the bound form, see
    :func:`generate_bound_collector`) the resolved relation and its
    hoisted probe view persist *across calls* in the caller-owned
    ``state`` list: two slots are allocated per scan, and the per-call
    resolver/`probe_index` round-trips collapse into list loads.  Safe
    for the same reason the per-call hoist is, extended over the
    binding's lifetime: the caller guarantees its resolver is a fixed
    mapping for as long as it uses the binding, and both view kinds
    are maintained in place by ``Relation.add``.
    """
    lit_index, atom, positions, key_parts, _ops = spec
    ns["_atom%d" % i] = atom
    ns["_pos%d" % i] = tuple(positions)
    key = _key_expr(i, positions, key_parts, ns)
    full_arity = positions and len(positions) == len(atom.args)
    base = None
    if state_alloc is not None:
        base = state_alloc[0]
        state_alloc[0] += 1 if not positions else 2
        w(pad, "_rel%d = state[%d]" % (i, base))
    w(pad, "if _rel%d is None:" % i)
    w(pad + 1, "_rel%d = resolver(%d, _atom%d)" % (i, lit_index, i))
    if base is not None and not positions:
        w(pad + 1, "state[%d] = _rel%d" % (base, i))
    if not positions:
        # Full scan: every probe snapshots the tuple set, exactly like
        # lookup((), None) — no view to hoist.
        w(pad, "_c%d = _rel%d.lookup(_pos%d, None, stats)" % (i, i, i))
    elif full_arity:
        # Full-arity probes are membership tests against the tuple
        # set; hoist the set once, keep lookup's probe accounting.
        w(pad + 1, "_v%d = _getattr(_rel%d, 'probe_set', _none)"
          % (i, i))
        w(pad + 1, "_v%d = _v%d() if _v%d is not None else None"
          % (i, i, i))
        if base is not None:
            w(pad + 1, "state[%d] = _rel%d" % (base, i))
            w(pad + 1, "state[%d] = _v%d" % (base + 1, i))
            w(pad, "else:")
            w(pad + 1, "_v%d = state[%d]" % (i, base + 1))
        w(pad, "if _v%d is None:" % i)
        w(pad + 1, "_c%d = _rel%d.lookup(_pos%d, %s, stats)"
          % (i, i, i, key))
        w(pad, "else:")
        w(pad + 1, "if stats is not None:")
        w(pad + 2, "stats.index_probes += 1")
        if len(positions) == 1:
            w(pad + 1, "_t%d = (%s,)" % (i, key))
        else:
            w(pad + 1, "_t%d = %s" % (i, key))
        w(pad + 1, "_c%d = (_t%d,) if _t%d in _v%d else ()"
          % (i, i, i, i))
    else:
        # Partial-arity probes: hoist the index dict once (built with
        # the same index_builds charge lookup's first probe pays) and
        # inline each probe as a dict get plus the probe counter.
        w(pad + 1, "_v%d = _getattr(_rel%d, 'probe_index', _none)"
          % (i, i))
        w(pad + 1, "_v%d = _v%d(_pos%d, stats) "
          "if _v%d is not None else None" % (i, i, i, i))
        if base is not None:
            w(pad + 1, "state[%d] = _rel%d" % (base, i))
            w(pad + 1, "state[%d] = _v%d" % (base + 1, i))
            w(pad, "else:")
            w(pad + 1, "_v%d = state[%d]" % (i, base + 1))
        w(pad, "if _v%d is None:" % i)
        w(pad + 1, "_c%d = _rel%d.lookup(_pos%d, %s, stats)"
          % (i, i, i, key))
        w(pad, "else:")
        w(pad + 1, "if stats is not None:")
        w(pad + 2, "stats.index_probes += 1")
        w(pad + 1, "_c%d = _v%d.get(%s, ())" % (i, i, key))
    w(pad, "if stats is not None:")
    w(pad + 1, "_b%d = _len(_c%d)" % (i, i))
    w(pad + 1, "stats.tuples_scanned += _b%d" % i)
    w(pad + 1, "stats.batch_rows += _b%d" % i)


def _scan_loop(i, spec, ns, w, pad, state_alloc=None):
    """Emit the row loop with inlined ops; returns the body indent."""
    _lit_index, _atom, _positions, _key_parts, ops = spec
    _scan_prologue(i, spec, ns, w, pad, state_alloc)
    w(pad, "for _r%d in _reversed(_c%d):" % (i, i))
    inner = pad + 1
    for j, (pos, kind, data) in enumerate(ops):
        if kind == 0:  # _OP_WRITE
            w(inner, "slots[%d] = _r%d[%d]" % (data, i, pos))
        elif kind == 1:  # _OP_CHECK
            w(inner, "if _r%d[%d] != slots[%d]: continue" % (i, pos, data))
        else:  # _OP_MATCH
            name = "_m%d_%d" % (i, j)
            ns[name] = data
            w(inner, "if not %s(_r%d[%d], slots): continue"
              % (name, i, pos))
    return inner


def _generic_loop(i, step, ns, w, pad, abort):
    """Emit a non-scan step; returns the body indent.

    Steps carrying an ``inline_spec`` (pure filters and single-binding
    assignments — see the comparison compiler in
    :mod:`repro.engine.compile`) are emitted as direct calls instead of
    a generator loop; anything else runs through its step generator
    exactly like the interpreted executor.  ``abort`` is the statement
    that skips the current candidate when a filter fails — ``continue``
    inside a loop, the enclosing function's empty return outside one.
    """
    spec = getattr(step, "inline_spec", None)
    if spec is not None:
        kind = spec[0]
        name = "_f%d" % i
        if kind == "assign":
            ns[name] = spec[2]
            w(pad, "slots[%d] = %s(slots)" % (spec[1], name))
            return pad
        ns[name] = spec[1]
        call = ("%s(slots)" if kind == "filter"
                else "%s(slots, resolver)") % name
        w(pad, "if not %s: %s" % (call, abort))
        return pad
    name = "_step%d" % i
    ns[name] = step
    w(pad, "for _ in %s(slots, resolver, stats):" % name)
    return pad + 1


#: Source -> code-object cache.  The generated source is fully
#: determined by the body's structural shape (op kinds, slot and
#: position numbers), so distinct rule instances with the same shape
#: share one bytecode compilation; per-instance data (atoms, constants,
#: matchers) arrives through the exec namespace.  Bounded defensively —
#: shapes are few in practice, but fuzzed test runs generate many.
_CODE_CACHE = {}
_CODE_CACHE_LIMIT = 4096


def _compile_fn(lines, ns, tag, scan_indexes=()):
    if scan_indexes:
        lines[1:1] = [
            "    _rel%d = None" % i for i in scan_indexes
        ]
    source = "\n".join(lines)
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(source, "<repro-codegen:%s>" % tag, "exec")
        _CODE_CACHE[source] = code
    exec(code, ns)
    return ns["_run"]


def generate_runner(steps):
    """A generated ``execute`` equivalent, or None if generation fails.

    Yields the (shared, mutated-in-place) slot list once per body
    match, exactly like the interpreted executor.
    """
    ns = {"_reversed": reversed, "_len": len, "_getattr": getattr,
          "_none": None, "__builtins__": {}}
    lines = []

    def w(depth, text):
        lines.append("    " * depth + text)

    w(0, "def _run(resolver, slots, stats):")
    pad = 1
    if not steps:
        w(pad, "yield slots")
        return _compile_fn(lines, ns, "runner")
    scans = []
    for i, step in enumerate(steps):
        spec = getattr(step, "scan_spec", None)
        if spec is not None:
            scans.append(i)
            pad = _scan_loop(i, spec, ns, w, pad)
        else:
            abort = "continue" if pad > 1 else "return"
            pad = _generic_loop(i, step, ns, w, pad, abort)
    w(pad, "yield slots")
    return _compile_fn(lines, ns, "runner", scans)


def _projection_exprs(projection, written, ns):
    """Expressions projecting a match, with innermost writes substituted.

    ``written`` maps slot index -> row-index expression for slots the
    innermost scan writes.  Returns None when the projection cannot be
    evaluated without performing those writes (an eval fn reads one of
    them) — callers fall back to the runner.
    """
    exprs = []
    for j, entry in enumerate(projection):
        kind = entry[0]
        if kind == "const":
            name = "_pc%d" % j
            ns[name] = entry[1]
            exprs.append(name)
        elif kind == "slot":
            index = entry[1]
            exprs.append(written.get(index, "slots[%d]" % index))
        else:  # ("fn", callable, frozenset(read slots))
            _kind, fn, reads = entry
            if not reads.isdisjoint(written):
                return None
            name = "_pf%d" % j
            ns[name] = fn
            exprs.append("%s(slots)" % name)
    return exprs


def _generate_batched(steps, projection, eager, entry=None, bound=False,
                      many=False):
    """Shared emitter/collector generation; None outside the shape.

    Requirements: the last step is a scan whose ops are writes and
    checks only, and every projection entry is computable without
    actually performing the innermost writes (slot reads are
    substituted by row indexing).

    ``entry`` — ``(nslots, loader)`` — switches the signature to
    ``(resolver, values, stats)``: the slot list is allocated and the
    positional ``values`` loads are unrolled inside the generated
    function, saving one allocation plus a Python-level zip loop per
    call (the bound-query path runs tens of thousands of one-shot
    calls per evaluation).

    ``bound`` (requires ``entry``) switches to the cross-call form
    ``(state, values, stats)``: ``state[0]`` is the resolver and the
    remaining slots persist each scan's resolved relation and probe
    view between calls.  The generated function carries the state size
    as ``_state_size``.

    ``many`` (requires ``bound``) takes a list of value sequences
    instead of one, ``(state, values_list, stats)``, and returns one
    result list per sequence: the per-binding body runs inside a loop
    in the generated code, so a batch of bindings costs one Python call.
    """
    if not steps:
        last_spec = None
    else:
        last_spec = getattr(steps[-1], "scan_spec", None)
        if last_spec is None:
            return None
        if any(kind == 2 for _pos, kind, _data in last_spec[4]):
            return None  # matcher ops mutate slots; cannot substitute

    tag = "collector" if eager else "emitter"
    ns = {"_reversed": reversed, "_len": len, "_getattr": getattr,
          "_none": None, "__builtins__": {}}
    lines = []
    state_alloc = [1] if bound else None

    def w(depth, text):
        lines.append("    " * depth + text)

    base = 1
    if entry is None:
        w(0, "def _run(resolver, slots, stats):")
    else:
        nslots, loader = entry
        if bound:
            w(0, "def _run(state, values_list, stats=None):" if many
              else "def _run(state, values, stats):")
            w(1, "resolver = state[0]")
        else:
            w(0, "def _run(resolver, values, stats):")
        if many:
            tag = "many"
            w(1, "_outs = []")
            w(1, "for values in values_list:")
            base = 2
        w(base, "slots = [_none] * %d" % nslots)
        # Unrolled in loader order: duplicate in_names keep their
        # later-wins semantics.
        for j, slot in enumerate(loader):
            w(base, "slots[%d] = values[%d]" % (slot, j))
    pad = base

    if last_spec is None:
        exprs = _projection_exprs(projection, {}, ns)
        if exprs is None:
            return None
        batch = "[(%s)]" % (
            ", ".join(exprs) + ("," if len(exprs) == 1 else "")
            if exprs else ""
        )
        if many:
            w(pad, "_outs.append(%s)" % batch)
            w(1, "return _outs")
        else:
            w(pad, ("return %s" if eager else "yield %s") % batch)
        fn = _compile_fn(lines, ns, tag)
        if bound:
            fn._state_size = state_alloc[0]
        return fn

    if eager:
        w(pad, "_out = []")
    if many:
        # Appended up front, so an early filter failure ("continue")
        # still leaves this binding's (empty) result in place.
        w(pad, "_outs.append(_out)")
    scans = []
    for i, step in enumerate(steps[:-1]):
        spec = getattr(step, "scan_spec", None)
        if spec is not None:
            scans.append(i)
            pad = _scan_loop(i, spec, ns, w, pad, state_alloc)
        else:
            if pad > 1:
                abort = "continue"
            else:
                abort = "return _out" if eager else "return"
            pad = _generic_loop(i, step, ns, w, pad, abort)

    i = len(steps) - 1
    scans.append(i)
    ops = last_spec[4]
    # Walk the ops in order, tracking which slots the scan would have
    # written so later checks and the projection read the row directly.
    written = {}
    conds = []
    for pos, kind, data in ops:
        if kind == 0:
            written[data] = "_r%d[%d]" % (i, pos)
        else:
            rhs = written.get(data, "slots[%d]" % data)
            conds.append("_r%d[%d] == %s" % (i, pos, rhs))
    exprs = _projection_exprs(projection, written, ns)
    if exprs is None:
        return None
    _scan_prologue(i, last_spec, ns, w, pad, state_alloc)
    tuple_expr = "(%s)" % (
        ", ".join(exprs) + ("," if len(exprs) == 1 else "")
        if exprs else ""
    )
    if many:
        # One binding's bucket is typically a handful of rows: a plain
        # loop skips the comprehension's per-call frame.
        w(pad, "for _r%d in _reversed(_c%d):" % (i, i))
        if conds:
            w(pad + 1, "if %s:" % " and ".join(conds))
            pad += 1
        w(pad + 1, "_out.append(%s)" % tuple_expr)
        w(1, "return _outs")
        fn = _compile_fn(lines, ns, tag)
        fn._state_size = state_alloc[0]
        return fn
    comp = "%s for _r%d in _reversed(_c%d)" % (tuple_expr, i, i)
    for cond in conds:
        comp += " if %s" % cond
    if eager:
        w(pad, "_out += [%s]" % comp)
        w(1, "return _out")
    else:
        w(pad, "yield [%s]" % comp)
    fn = _compile_fn(lines, ns, tag, () if bound else scans)
    if bound:
        fn._state_size = state_alloc[0]
    return fn


def generate_emitter(steps, projection):
    """A generated batch emitter, or None outside the vectorizable shape.

    The emitter is a generator yielding one ``list`` of projected
    tuples per innermost scan invocation.  Callers that interleave
    writes with iteration (the semi-naive loop) depend on that
    batch-at-a-time visibility.
    """
    return _generate_batched(steps, projection, eager=False)


def generate_collector(steps, projection):
    """A generated eager collector, or None outside the vectorizable shape.

    Same shape restrictions as :func:`generate_emitter`, but the whole
    match set materializes into one flat ``list`` that is returned —
    no generator frames at all.  Only callers that drain every match
    without interleaved relation writes (the bound-query path) may use
    it; batch-at-a-time visibility is lost.
    """
    return _generate_batched(steps, projection, eager=True)


def generate_entry_collector(steps, projection, nslots, loader):
    """An eager collector taking ``(resolver, values, stats)`` directly.

    Same semantics as :func:`generate_collector` with the slot
    allocation and positional loads folded into the generated code.
    ``loader`` maps value position -> slot index.
    """
    return _generate_batched(
        steps, projection, eager=True, entry=(nslots, tuple(loader))
    )


def generate_bound_collector(steps, projection, nslots, loader):
    """An eager collector taking ``(state, values, stats)``.

    The pass-level form behind :meth:`BoundQuery.bind`: ``state[0]``
    holds the resolver and the remaining ``_state_size - 1`` slots
    persist each scan's resolved relation and probe view *across
    calls*.  Callers own the state list and must discard it when their
    resolver's ``(index, atom) -> relation`` mapping changes — the
    counting engines bind once per (call site, rule) and evaluate one
    run, over which the mapping is fixed by construction.
    """
    return _generate_batched(
        steps, projection, eager=True, entry=(nslots, tuple(loader)),
        bound=True,
    )


def generate_bound_many_collector(steps, projection, nslots, loader):
    """The batched :func:`generate_bound_collector`:
    ``(state, values_list, stats)`` returns one result list per value
    sequence, in order, with the per-binding loop inside the generated
    code.  Counter updates are those of one single-binding call per
    sequence, so a batch is observably a loop of single calls.
    """
    return _generate_batched(
        steps, projection, eager=True, entry=(nslots, tuple(loader)),
        bound=True, many=True,
    )
