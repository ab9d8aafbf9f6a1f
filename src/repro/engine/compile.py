"""Set-at-a-time rule compilation: batched hash joins over slot arrays.

Every rule body the bottom-up engines evaluate runs through this
module.  The analysis a tuple-at-a-time evaluator repeats for every
candidate row — which arguments are bound, which bind, which must be
unified — happens **once per body**: each body-literal position is
classified as

* a *key part* — a constant, an already-bound variable, or a structured
  term whose variables are all bound — contributing to the hash-index
  probe key;
* a *write* — the first occurrence of a flat variable, compiled to a
  direct ``slots[i] = row[pos]`` store;
* a *check* — a repeated variable, compiled to an equality test against
  its slot;
* a *matcher* — a structured term such as ``[(r1, C) | L]``, compiled to
  a small closure that decomposes the stored value with full
  unification semantics.

Substitutions become flat slot arrays indexed by position instead of
name-keyed dicts of terms, and candidate rows arrive in batches from
:meth:`Relation.lookup` probes instead of one generator hop per row.

Which variables are bound at each body position is a static property
of the body, so ``=`` is unified at compile time too.  A ``=`` whose
sides are both still unbound records an *alias*: after ``X = Y`` every
later occurrence of ``X`` reads ``Y``, and after ``L = [X | T]`` the
variable ``L`` stands for that partial list until ``T`` is bound.
Aliases are substituted into every later literal, the head and the
projections; compound-against-compound unifies argument-wise, and a
compound against a ground value compiles to a decomposing matcher.

Semantics contract
------------------

Compiled bodies implement the dict-substitution semantics of
:mod:`repro.datalog.unify` and :mod:`repro.engine.builtins`: they
enumerate the matches of a body depth-first, visiting each level's
candidates in reverse, and update ``tuples_scanned`` / ``index_probes``
/ ``facts_*`` at the same points — the work counters are the paper's
currency, so *how* a body runs must never change *what* is counted.
Literals that cannot be evaluated as written (a negation or an
ordering comparison over unbound terms, an ``is``/``in`` with an
unbound right side, a head or projection argument the body never
binds) compile to steps that raise the corresponding
:class:`~repro.errors.EvaluationError` when evaluation first reaches
them, naming the terms as resolved at that point.  The test suite
checks all of this against an independent tuple-at-a-time reference
evaluator (``tests/oracle.py``).
"""

from functools import partial

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.terms import (
    ARITH_FUNCTORS,
    CONS,
    TUPLE,
    Compound,
    Constant,
    Variable,
    eval_arith,
)
from ..datalog.unify import resolve
from ..errors import EvaluationError
from .builtins import _ordered
from .codegen import (
    generate_bound_collector,
    generate_bound_many_collector,
    generate_collector,
    generate_emitter,
    generate_entry_collector,
    generate_runner,
)

#: Direct implementations of the binary arithmetic functors; ``min`` /
#: ``max`` and any future n-ary forms stay on the generic
#: ``eval_arith`` fold.
_ARITH_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": lambda a, b: a // b,
}

#: Sentinel returned by the executor's ``next`` calls on exhaustion.
_DONE = object()

#: Per-position op kinds inside a scan (see module docstring).
_OP_WRITE = 0
_OP_CHECK = 1
_OP_MATCH = 2

#: Key-part kinds.
_KEY_CONST = 0
_KEY_SLOT = 1
_KEY_EVAL = 2


# -- term helpers ----------------------------------------------------


def _vars_within(term, names):
    """True if every variable of ``term`` is in ``names`` (no set built)."""
    return all(name in names for name in term.iter_variables())


#: Stands in for the cyclic part of a pattern: its unknown functor
#: matches no stored value, and no finite value could match the
#: infinite term a cyclic alias describes.
_UNMATCHABLE = Compound("<cyclic>", ())


def _deref(term, alias, cyclic=None, active=()):
    """``term`` with every aliased variable replaced by its binding.

    ``X = [1 | X]`` aliases ``X`` to a term containing ``X``; expanding
    such a variable again yields ``cyclic`` when given, and raises
    ``RecursionError`` otherwise (see :func:`_cyclic`).
    """
    if isinstance(term, Variable):
        target = alias.get(term.name)
        if target is None:
            return term
        if term.name in active:
            if cyclic is None:
                raise _cyclic(None)
            return cyclic
        return _deref(target, alias, cyclic, active + (term.name,))
    if isinstance(term, Compound):
        return Compound(term.functor, [
            _deref(arg, alias, cyclic, active) for arg in term.args
        ])
    return term


def _walk(term, alias):
    """Follow ``term``'s chain of variable aliases, like ``unify.walk``."""
    while isinstance(term, Variable) and term.name in alias:
        term = alias[term.name]
    return term


def _cyclic(_slots):
    """The error of resolving a cyclically aliased variable.

    A dict-substitution evaluator binds ``X = [1 | X]`` happily and
    overflows the stack only once something resolves ``X`` (or unifies
    it with itself); a literal or projection whose compilation runs
    into that compiles to a step raising the same error when reached.
    """
    return RecursionError("maximum recursion depth exceeded")


def _raise_cyclic(slots):
    raise _cyclic(slots)


def _deref_literal(lit, alias):
    """``lit`` with :func:`_deref` applied to every argument."""
    if isinstance(lit, Atom):
        return Atom(lit.pred, [_deref(arg, alias) for arg in lit.args])
    if isinstance(lit, Negation):
        return Negation(_deref_literal(lit.atom, alias))
    if isinstance(lit, Comparison):
        return Comparison(
            lit.op, _deref(lit.left, alias), _deref(lit.right, alias)
        )
    return lit


def _compile_resolve(term, slot_of, bound):
    """Compile ``term`` to ``slots -> resolved term``.

    The result is what :func:`repro.datalog.unify.resolve` returns under
    the equivalent substitution: bound variables become constants and a
    ground compound folds to one.  Used only to word error messages, so
    a body that fails names its terms exactly as a dict-substitution
    evaluator would.
    """
    pairs = tuple(
        (name, slot_of[name])
        for name in dict.fromkeys(term.iter_variables())
        if name in bound
    )

    def resolved(slots):
        return resolve(
            term, {name: Constant(slots[index]) for name, index in pairs}
        )

    return resolved


def _compile_eval(term, slot_of):
    """Compile ``term`` (variables all slotted) to ``slots -> value``.

    Mirrors :func:`repro.datalog.terms.ground_value` exactly, including
    the errors it raises, so the compiled path fails the same way the
    ``resolve`` fold does.
    """
    if isinstance(term, Constant):
        value = term.value
        return lambda slots: value
    if isinstance(term, Variable):
        index = slot_of[term.name]
        return lambda slots: slots[index]
    if isinstance(term, Compound):
        functor = term.functor
        parts = [_compile_eval(arg, slot_of) for arg in term.args]
        if functor == CONS:
            head_fn, tail_fn = parts

            def eval_cons(slots):
                head = head_fn(slots)
                tail = tail_fn(slots)
                if not isinstance(tail, tuple):
                    raise EvaluationError(
                        "list tail is not a list: %r" % (tail,)
                    )
                return (head,) + tail

            return eval_cons
        if functor == TUPLE:
            return lambda slots: tuple(fn(slots) for fn in parts)
        if functor in ARITH_FUNCTORS:
            binop = _ARITH_BINOPS.get(functor)
            if binop is not None and len(parts) == 2:
                a_fn, b_fn = parts

                def eval_binop(slots):
                    # Mirrors eval_arith exactly: both operands are
                    # evaluated first, then checked in order.
                    a = a_fn(slots)
                    b = b_fn(slots)
                    if not isinstance(a, (int, float)):
                        raise EvaluationError(
                            "arithmetic on non-numeric value %r" % (a,)
                        )
                    if not isinstance(b, (int, float)):
                        raise EvaluationError(
                            "arithmetic on non-numeric value %r" % (b,)
                        )
                    return binop(a, b)

                return eval_binop
            return lambda slots: eval_arith(
                functor, [fn(slots) for fn in parts]
            )

        def eval_unknown(_slots):
            raise EvaluationError("unknown functor %r" % functor)

        return eval_unknown
    raise EvaluationError("not a term: %r" % (term,))


def _compile_match(term, slot_of, live, alloc):
    """Compile pattern ``term`` to ``(value, slots) -> bool``.

    ``live`` is the set of variable names bound at the point the matcher
    runs; names the pattern binds are added to it (pattern positions are
    processed left to right, like a chain of unifications).
    Semantics mirror ``unify(pattern, Constant(value))``: cons cells
    decompose non-empty tuples, tuple terms decompose width-matched
    tuples, and anything else — notably arithmetic functors, which the
    unifier never evaluates inside patterns — fails.
    """
    if isinstance(term, Constant):
        value = term.value

        def match_const(candidate, _slots):
            return candidate == value

        return match_const
    if isinstance(term, Variable):
        name = term.name
        if name in live:
            index = slot_of[name]

            def match_bound(candidate, slots):
                return candidate == slots[index]

            return match_bound
        live.add(name)
        index = alloc(name)

        def match_bind(candidate, slots):
            slots[index] = candidate
            return True

        return match_bind
    functor = term.functor
    if functor == CONS:
        match_head = _compile_match(term.args[0], slot_of, live, alloc)
        match_tail = _compile_match(term.args[1], slot_of, live, alloc)

        def match_cons(candidate, slots):
            if isinstance(candidate, tuple) and candidate:
                return match_head(candidate[0], slots) and match_tail(
                    candidate[1:], slots
                )
            return False

        return match_cons
    if functor == TUPLE:
        width = len(term.args)
        matchers = [
            _compile_match(arg, slot_of, live, alloc) for arg in term.args
        ]

        def match_tuple(candidate, slots):
            if not isinstance(candidate, tuple) or len(candidate) != width:
                return False
            for matcher, element in zip(matchers, candidate):
                if not matcher(element, slots):
                    return False
            return True

        return match_tuple

    # Arithmetic and unknown functors never match a stored value — the
    # unifier returns None for them without evaluating.
    def match_never(_candidate, _slots):
        return False

    return match_never


# -- literal compilation ---------------------------------------------


def _make_key_fn(key_parts):
    """Build ``slots -> probe key`` for the bound positions of a scan.

    Single-position keys are scalars (see :meth:`Relation.lookup`);
    wider keys are tuples in ascending position order.
    """
    if len(key_parts) == 1:
        kind, data = key_parts[0]
        if kind == _KEY_CONST:
            return lambda slots: data
        if kind == _KEY_SLOT:
            return lambda slots: slots[data]
        return data
    if all(kind == _KEY_CONST for kind, _ in key_parts):
        constant_key = tuple(data for _, data in key_parts)
        return lambda slots: constant_key
    spec = tuple(key_parts)

    def key_fn(slots):
        return tuple(
            data
            if kind == _KEY_CONST
            else (slots[data] if kind == _KEY_SLOT else data(slots))
            for kind, data in spec
        )

    return key_fn


def _compile_scan(lit_index, atom, slot_of, bound, alloc):
    """Compile one positive body atom into a batched index scan step."""
    prefix = frozenset(bound)
    live = set(bound)
    positions = []
    key_parts = []
    ops = []
    for pos, arg in enumerate(atom.args):
        if isinstance(arg, Constant):
            positions.append(pos)
            key_parts.append((_KEY_CONST, arg.value))
        elif isinstance(arg, Variable):
            name = arg.name
            if name in prefix:
                positions.append(pos)
                key_parts.append((_KEY_SLOT, slot_of[name]))
            elif name in live:
                ops.append((pos, _OP_CHECK, slot_of[name]))
            else:
                live.add(name)
                ops.append((pos, _OP_WRITE, alloc(name)))
        else:
            if _vars_within(arg, prefix):
                positions.append(pos)
                key_parts.append((_KEY_EVAL, _compile_eval(arg, slot_of)))
            else:
                ops.append(
                    (pos, _OP_MATCH,
                     _compile_match(arg, slot_of, live, alloc))
                )
    bound |= live
    positions = tuple(positions)
    key_parts = tuple(key_parts)
    key_fn = _make_key_fn(key_parts) if positions else None
    only_writes = all(kind == _OP_WRITE for _, kind, _ in ops)
    write_pairs = tuple(
        (pos, data) for pos, kind, data in ops if kind == _OP_WRITE
    )
    ops = tuple(ops)
    # Everything the specializing code generator needs to reproduce
    # this scan as inline source (see repro.engine.codegen); attached
    # to the closure so CompiledBody can hand its steps over wholesale.
    spec = (lit_index, atom, positions, key_parts, ops)

    if only_writes:

        def scan(slots, resolver, stats):
            relation = resolver(lit_index, atom)
            candidates = relation.lookup(
                positions, key_fn(slots) if key_fn is not None else None,
                stats,
            )
            if stats is not None:
                batch = len(candidates)
                stats.tuples_scanned += batch
                stats.batch_rows += batch
            for row in reversed(candidates):
                for pos, slot in write_pairs:
                    slots[slot] = row[pos]
                yield None

        scan.scan_spec = spec
        return scan

    def scan(slots, resolver, stats):
        relation = resolver(lit_index, atom)
        candidates = relation.lookup(
            positions, key_fn(slots) if key_fn is not None else None, stats
        )
        if stats is not None:
            batch = len(candidates)
            stats.tuples_scanned += batch
            stats.batch_rows += batch
        for row in reversed(candidates):
            ok = True
            for pos, kind, data in ops:
                value = row[pos]
                if kind == _OP_WRITE:
                    slots[data] = value
                elif kind == _OP_CHECK:
                    if value != slots[data]:
                        ok = False
                        break
                elif not data(value, slots):
                    ok = False
                    break
            if ok:
                yield None

    scan.scan_spec = spec
    return scan


def _filter(test):
    """A step that passes the current match on when ``test(slots)``."""

    def step(slots, resolver, stats):
        if test(slots):
            yield None

    step.inline_spec = ("filter", test)
    return step


def _never(_slots):
    return False


def _raising(error):
    """A step raising ``error(slots)`` whenever evaluation reaches it."""

    def fail(slots):
        raise error(slots)

    return _filter(fail)


def _assign(index, value_fn):
    """A step binding slot ``index`` to ``value_fn(slots)``."""

    def step(slots, resolver, stats):
        slots[index] = value_fn(slots)
        yield None

    step.inline_spec = ("assign", index, value_fn)
    return step


def _compile_negation(lit_index, negation, slot_of, bound):
    """Compile ``not atom``; raises when reached if the atom is not
    ground at that point."""
    atom = negation.atom
    if all(_vars_within(arg, bound) for arg in atom.args):
        fns = tuple(_compile_eval(arg, slot_of) for arg in atom.args)

        def test(slots, resolver):
            relation = resolver(lit_index, atom)
            return tuple(fn(slots) for fn in fns) not in relation
    else:
        resolved = tuple(
            _compile_resolve(arg, slot_of, bound) for arg in atom.args
        )

        def test(slots, resolver):
            resolver(lit_index, atom)
            for fn in resolved:
                if not isinstance(fn(slots), Constant):
                    raise EvaluationError(
                        "negated atom %s not ground at evaluation time"
                        % atom.pred
                    )

    def negate(slots, resolver, stats):
        if test(slots, resolver):
            yield None

    negate.inline_spec = ("rfilter", test)
    return negate


def _is_value(term, bound, top):
    """True if ``term`` acts as a ground value in a unification.

    At the top level of a ``=`` both sides are resolved first, which
    folds ground compounds to constants; below it, compounds unify
    structurally however ground they are.
    """
    if isinstance(term, Constant):
        return True
    if isinstance(term, Variable):
        return term.name in bound
    return top and _vars_within(term, bound)


def _compile_unify(left, right, slot_of, bound, alias, alloc, top=True):
    """Compile the unification ``left = right`` to a list of steps.

    Mirrors :func:`repro.datalog.unify.unify`, decided statically: a
    free variable facing a value is assigned, one facing anything else
    is aliased (no step at all), a compound facing a value becomes a
    decomposing matcher, and two compounds unify argument by argument
    (or never, on a functor or arity clash).  Like ``eval_comparison``
    the top level resolves both sides in full; argument pairs below it
    only walk their alias chains, as ``unify`` does.
    """
    if top:
        left = _deref(left, alias)
        right = _deref(right, alias)
    else:
        left = _walk(left, alias)
        right = _walk(right, alias)
    left_value = _is_value(left, bound, top)
    right_value = _is_value(right, bound, top)
    if left_value and right_value:
        left_fn = _compile_eval(left, slot_of)
        right_fn = _compile_eval(right, slot_of)
        return [_filter(lambda slots: left_fn(slots) == right_fn(slots))]
    if not left_value and isinstance(left, Variable):
        free, other, other_value = left, right, right_value
    elif not right_value and isinstance(right, Variable):
        free, other, other_value = right, left, left_value
    else:
        free = None
    if free is not None:
        if other_value:
            index = alloc(free.name)
            bound.add(free.name)
            return [_assign(index, _compile_eval(other, slot_of))]
        if other != free:
            alias[free.name] = other
        return []
    if left_value or right_value:
        pattern, value = (right, left) if left_value else (left, right)
        value_fn = _compile_eval(value, slot_of)
        pattern = _deref(pattern, alias, _UNMATCHABLE)
        matcher = _compile_match(pattern, slot_of, bound, alloc)
        return [_filter(lambda slots: matcher(value_fn(slots), slots))]
    if left.functor != right.functor or len(left.args) != len(right.args):
        return [_filter(_never)]
    steps = []
    for left_arg, right_arg in zip(left.args, right.args):
        steps += _compile_unify(
            left_arg, right_arg, slot_of, bound, alias, alloc, top=False
        )
    return steps


def _compile_membership(left, right_fn, slot_of, bound, alloc):
    """Compile ``left in right`` with a ground right side."""

    def members_of(slots):
        members = right_fn(slots)
        if not isinstance(members, (tuple, frozenset, set)):
            raise EvaluationError(
                "right side of 'in' is not a collection: %r" % (members,)
            )
        return reversed(list(members))

    if _vars_within(left, bound):
        left_fn = _compile_eval(left, slot_of)

        def member_test(slots, resolver, stats):
            needle = left_fn(slots)
            for member in members_of(slots):
                if member == needle:
                    yield None

        return member_test
    if isinstance(left, Variable):
        index = alloc(left.name)
        bound.add(left.name)

        def member_bind(slots, resolver, stats):
            for member in members_of(slots):
                slots[index] = member
                yield None

        return member_bind
    matcher = _compile_match(left, slot_of, bound, alloc)

    def member_match(slots, resolver, stats):
        for member in members_of(slots):
            if matcher(member, slots):
                yield None

    return member_match


def _compile_comparison(comparison, slot_of, bound, alias, alloc):
    """Compile a comparison literal to a list of steps.

    ``=`` (and ``is`` over a ground right side) unify statically, see
    :func:`_compile_unify`; ``in`` enumerates a ground collection; the
    ordering operators and ``!=`` test two ground values.  Any other
    combination raises the evaluation error of
    :func:`repro.engine.builtins.eval_comparison` when reached.
    """
    op = comparison.op
    left, right = comparison.left, comparison.right
    left_ground = _vars_within(left, bound)
    right_ground = _vars_within(right, bound)
    if op == "=" or (op == "is" and right_ground):
        return _compile_unify(left, right, slot_of, bound, alias, alloc)
    if op == "in" and right_ground:
        right_fn = _compile_eval(right, slot_of)
        return [_compile_membership(left, right_fn, slot_of, bound, alloc)]
    resolve_left = _compile_resolve(left, slot_of, bound)
    resolve_right = _compile_resolve(right, slot_of, bound)
    if op in ("is", "in"):
        def unground(slots):
            resolve_left(slots)
            return EvaluationError(
                "right side of %r is not ground: %r"
                % (op, resolve_right(slots))
            )

        return [_raising(unground)]
    if not (left_ground and right_ground):
        def unground(slots):
            return EvaluationError(
                "comparison %s on non-ground terms %r, %r"
                % (op, resolve_left(slots), resolve_right(slots))
            )

        return [_raising(unground)]
    left_fn = _compile_eval(left, slot_of)
    right_fn = _compile_eval(right, slot_of)
    if op == "!=":
        return [_filter(lambda slots: left_fn(slots) != right_fn(slots))]
    return [
        _filter(lambda slots: _ordered(op, left_fn(slots), right_fn(slots)))
    ]


# -- compiled bodies -------------------------------------------------


class CompiledBody:
    """A rule body compiled to slot-array evaluation.

    ``slot_of`` maps variable names to slot indexes; names listed in
    ``bound_names`` occupy the first slots in order, so callers can
    preload bindings positionally.  ``bound_after`` is the set of names
    guaranteed ground once the body has been fully matched, and
    ``alias`` maps each variable the body aliased (see the module
    docstring) to the term it stands for.

    Execution runs through a *specialized executor* generated by
    :mod:`repro.engine.codegen` — straight-line nested loops — and the
    body hands out batch *emitters* and *collectors* built the same
    way.  Only when code generation fails (Python rejects more than
    twenty statically nested blocks, so a body with more than twenty
    scans cannot be generated) does :meth:`execute` fall back to the
    interpreted generator stack, whose results and counter updates are
    identical.
    """

    __slots__ = ("body", "bound_names", "slot_of", "nslots", "steps",
                 "bound_after", "alias", "_runner", "_fns")

    def __init__(self, body, bound_names, slot_of, steps, bound_after,
                 alias):
        self.body = body
        self.bound_names = bound_names
        self.slot_of = slot_of
        self.nslots = len(slot_of)
        self.steps = tuple(steps)
        self.bound_after = frozenset(bound_after)
        self.alias = alias
        self._fns = {}
        try:
            self._runner = generate_runner(self.steps)
        except Exception:
            self._runner = None

    def make_slots(self):
        return [None] * self.nslots

    def loader(self, names):
        """Slot indexes for preloading ``names`` positionally.

        Duplicate names are allowed; the later value wins, like
        successive writes of one name into a substitution.
        """
        return tuple(self.slot_of[name] for name in names)

    def execute(self, resolver, slots, stats=None):
        """Yield ``slots`` once per match, mutated in place.

        The same list object is yielded every time — callers must copy
        out what they need before advancing.
        """
        runner = self._runner
        if runner is not None:
            return runner(resolver, slots, stats)
        return self._execute_interp(resolver, slots, stats)

    def _execute_interp(self, resolver, slots, stats=None):
        """The interpreted generator-stack executor, used for bodies
        code generation cannot nest."""
        steps = self.steps
        if not steps:
            yield slots
            return
        last = len(steps) - 1
        iters = [None] * len(steps)
        iters[0] = steps[0](slots, resolver, stats)
        depth = 0
        while depth >= 0:
            if next(iters[depth], _DONE) is _DONE:
                iters[depth] = None
                depth -= 1
            elif depth == last:
                yield slots
            else:
                depth += 1
                iters[depth] = steps[depth](slots, resolver, stats)

    def _generated(self, key, generate, *args):
        """Memoized ``generate(steps, *args)``; None when it fails.

        Nothing is generated for a body whose runner could not be.
        """
        fn = self._fns.get(key)
        if fn is None:
            fn = False
            if self._runner is not None:
                try:
                    fn = generate(self.steps, *args) or False
                except Exception:
                    fn = False
            self._fns[key] = fn
        return fn or None

    def emitter(self, projection):
        """A generated batch emitter for ``projection``, or None.

        ``projection`` is a row spec as produced by
        :func:`compile_row_spec`.  The emitter is a generator taking
        ``(resolver, slots, stats)`` and yielding one *list* of
        projected result tuples per innermost scan invocation, in the
        exact enumeration order of :meth:`execute` — callers drain each
        batch (e.g. into ``relation.add``) before the next one is
        produced, which preserves the interpreted path's visibility of
        in-pass mutations.  Returns None when code generation failed
        for this body or the shape is not vectorizable; callers fall
        back to :meth:`execute`.
        """
        return self._generated(
            ("emit", projection), generate_emitter, projection
        )

    def collector(self, projection):
        """A generated eager collector for ``projection``, or None.

        Like :meth:`emitter` but the generated function *returns* one
        flat list of every projected result tuple — no generator
        frames, one call per body pass.  Enumeration order and counter
        updates are identical to :meth:`execute`; what is lost is
        batch-at-a-time visibility of in-pass mutations, so only
        callers that drain the whole match set without writing to the
        scanned relations (the bound-query path) may use it.
        """
        return self._generated(
            ("collect", projection), generate_collector, projection
        )

    def entry_collector(self, projection, loader):
        """An eager collector taking ``(resolver, values, stats)``.

        Like :meth:`collector` with the slot allocation and the
        positional ``values`` loads folded into the generated code —
        the bound-query fast path.  ``loader`` maps value position ->
        slot index.
        """
        return self._generated(
            ("entry", projection, tuple(loader)),
            generate_entry_collector, projection, self.nslots, loader,
        )

    def bound_collector(self, projection, loader):
        """An eager collector taking ``(state, values, stats)``.

        The pass-level form: ``state`` (caller-owned, ``state[0]`` the
        resolver) persists each scan's resolved relation and probe
        view across calls — see :meth:`BoundQuery.bind`.
        """
        return self._generated(
            ("bound", projection, tuple(loader)),
            generate_bound_collector, projection, self.nslots, loader,
        )

    def bound_many_collector(self, projection, loader):
        """:meth:`bound_collector` over a batch of bindings:
        ``(state, values_list, stats)`` returns one result list per
        value sequence — see :meth:`BoundQuery.bind_many`."""
        return self._generated(
            ("bound_many", projection, tuple(loader)),
            generate_bound_many_collector, projection, self.nslots, loader,
        )


def compile_body(body, bound_names=()):
    """Compile ``body`` given ``bound_names`` pre-bound."""
    slot_of = {}
    for name in bound_names:
        if name not in slot_of:
            slot_of[name] = len(slot_of)
    bound = set(slot_of)
    alias = {}

    def alloc(name):
        slot = slot_of.get(name)
        if slot is None:
            slot = len(slot_of)
            slot_of[name] = slot
        return slot

    steps = []
    for index, lit in enumerate(body):
        try:
            steps += _compile_literal(
                index, lit, slot_of, bound, alias, alloc
            )
        except RecursionError:
            steps.append(_raising(_cyclic))
    return CompiledBody(
        tuple(body), tuple(dict.fromkeys(bound_names)), slot_of, steps,
        bound, alias,
    )


def _compile_literal(index, lit, slot_of, bound, alias, alloc):
    """Compile body literal number ``index`` to a list of steps."""
    if alias:
        lit = _deref_literal(lit, alias)
    if isinstance(lit, Atom):
        return [_compile_scan(index, lit, slot_of, bound, alloc)]
    if isinstance(lit, Negation):
        return [_compile_negation(index, lit, slot_of, bound)]
    if isinstance(lit, Comparison):
        return _compile_comparison(lit, slot_of, bound, alias, alloc)
    return [_raising(
        lambda _slots: EvaluationError("unknown literal %r" % (lit,))
    )]


def _head_unground(head):
    """The ``unground`` callback of a rule head's row spec."""

    def error(_position, resolved):
        return EvaluationError(
            "head argument of %s not ground: %r" % (head.pred, resolved)
        )

    return error


def _premise_unground(atom):
    """The ``unground`` callback of a trace premise's row spec."""

    def error(_position, _resolved):
        return EvaluationError(
            "body atom %s not ground under result substitution" % atom.pred
        )

    return error


def compile_row_spec(args, compiled, unground):
    """Row-projection spec for argument terms.

    Each entry is ``("const", value)``, ``("slot", index)``, or
    ``("fn", slots -> value, frozenset(read slot indexes))``.  The spec
    form feeds both :func:`compile_row` (a plain closure) and the code
    generator's batch emitters, which substitute slot reads with direct
    row indexing.  An argument the body leaves unbound becomes an
    ``fn`` entry raising ``unground(position, resolved term)`` when a
    match is projected.
    """
    alias = compiled.alias
    bound = compiled.bound_after
    slot_of = compiled.slot_of
    spec = []
    for position, arg in enumerate(args):
        if alias:
            try:
                arg = _deref(arg, alias)
            except RecursionError:
                spec.append(("fn", _raise_cyclic, frozenset()))
                continue
        if isinstance(arg, Constant):
            spec.append(("const", arg.value))
            continue
        if isinstance(arg, Variable) and arg.name in bound:
            spec.append(("slot", slot_of[arg.name]))
            continue
        reads = frozenset(
            slot_of[name] for name in arg.iter_variables() if name in bound
        )
        if _vars_within(arg, bound):
            spec.append(("fn", _compile_eval(arg, slot_of), reads))
            continue
        resolved = _compile_resolve(arg, slot_of, bound)

        def fail(slots, position=position, resolved=resolved):
            raise unground(position, resolved(slots))

        spec.append(("fn", fail, reads))
    return tuple(spec)


def row_spec_fn(spec):
    """Build ``slots -> ground value tuple`` from a row spec."""
    if all(entry[0] == "slot" for entry in spec):
        indexes = tuple(entry[1] for entry in spec)

        def project(slots):
            return tuple(slots[i] for i in indexes)

        return project

    def build(slots):
        return tuple(
            entry[1] if entry[0] == "const"
            else (slots[entry[1]] if entry[0] == "slot"
                  else entry[1](slots))
            for entry in spec
        )

    return build


def compile_row(args, compiled, unground):
    """Compile argument terms to ``slots -> ground value tuple``.

    Used for rule heads and for trace premises; see
    :func:`compile_row_spec` for ``unground``.
    """
    return row_spec_fn(compile_row_spec(args, compiled, unground))


# -- bound queries (counting-engine call shape) ----------------------


class BoundQuery:
    """A body pre-compiled for repeated runs under positional bindings.

    ``in_names`` are preloaded from the ``values`` argument of
    :meth:`run` (duplicates allowed, later wins); each result is the
    projection of a body match onto ``out_names`` — or, when ``head``
    is given, the ground ``head`` tuple of the match, which is the
    rule-firing shape of the sharded executor.  A projected name the
    body never binds raises ``ValueError`` when a match is projected.
    """

    __slots__ = ("body", "in_names", "out_names", "head", "compiled",
                 "_loader", "_out_spec", "_emit", "_nin")

    def __init__(self, body, in_names, out_names, head=None):
        self.body = tuple(body)
        self.in_names = tuple(in_names)
        self.out_names = tuple(out_names)
        self.head = head
        compiled = compile_body(self.body, self.in_names)
        if head is None:
            outputs = [Variable(name) for name in self.out_names]
            names = self.out_names

            def unground(position, _resolved):
                return ValueError("variable %s not bound" % names[position])
        else:
            outputs = head.args
            unground = _head_unground(head)
        self.compiled = compiled
        self._loader = compiled.loader(self.in_names)
        self._out_spec = compile_row_spec(outputs, compiled, unground)
        self._emit = compiled.entry_collector(self._out_spec, self._loader)
        self._nin = len(self._loader)

    def run(self, resolver, values, stats=None):
        """Result tuples, one per body match.

        Returns an iterable — an eagerly materialized list when the
        body has a generated collector (every consumer drains the
        result without interleaved writes, so eager evaluation is
        observationally identical and skips per-call generator
        frames), a lazy generator otherwise.
        """
        emit = self._emit
        if emit is not None and len(values) == self._nin:
            # Generated entry point: slot allocation and positional
            # loads happen inside.  Guarded on exact length so a
            # short/long values sequence keeps zip's truncation
            # semantics on the slow path below.
            return emit(resolver, values, stats)
        compiled = self.compiled
        slots = compiled.make_slots()
        for slot, value in zip(self._loader, values):
            slots[slot] = value
        collect = compiled.collector(self._out_spec)
        if collect is not None:
            return collect(resolver, slots, stats)
        return self._run_execute(resolver, slots, stats)

    def bind(self, resolver):
        """A callable ``(values, stats=None)`` pinned to ``resolver``.

        The pass-level fast path: each scan's resolved relation and
        hoisted probe view persist *across calls* in a state list
        owned by the returned closure, so a caller issuing thousands
        of one-shot runs (the counting engines' node expansions) pays
        the resolver and ``probe_index`` round-trips once per binding
        instead of once per call.

        The caller contracts that ``resolver`` is a fixed ``(index,
        atom) -> relation`` mapping for the binding's lifetime —
        relations may gain rows (both view kinds are maintained in
        place by ``Relation.add``), but their *identity* must not
        change.  Discard the binding when that stops holding; the
        engines bind per evaluation run (the sharded executor per
        round), over which it holds by construction.  Results and
        counter updates are identical to :meth:`run` with the same
        resolver.
        """
        emit = self.compiled.bound_collector(self._out_spec, self._loader)
        if emit is None:
            def run(values, stats=None,
                    _run=self.run, _resolver=resolver):
                return _run(_resolver, values, stats)
            return run
        state = [None] * emit._state_size
        state[0] = resolver

        def run(values, stats=None, _emit=emit, _state=state,
                _nin=self._nin, _slow=self.run, _resolver=resolver):
            if len(values) == _nin:
                return _emit(_state, values, stats)
            return _slow(_resolver, values, stats)
        return run

    def bind_many(self, resolver):
        """A callable ``(values_list, stats=None)`` pinned to ``resolver``.

        The set-at-a-time form of :meth:`bind`: one call runs the body
        under every value sequence of ``values_list`` and returns one
        result list per sequence, in order.  The loop over the
        bindings runs inside the generated code, and probes, counters
        and the cross-call relation/view state are exactly those of
        one :meth:`bind` call per sequence, so a batch is observably a
        loop of single runs.  Each sequence must hold exactly
        ``len(in_names)`` values; the same resolver contract as
        :meth:`bind` applies.
        """
        emit = self.compiled.bound_many_collector(self._out_spec,
                                                  self._loader)
        if emit is None:
            def run_many(values_list, stats=None,
                         _run=self.run, _resolver=resolver):
                return [list(_run(_resolver, values, stats))
                        for values in values_list]
            return run_many
        state = [None] * emit._state_size
        state[0] = resolver
        return partial(emit, state)

    def _run_execute(self, resolver, slots, stats):
        project = row_spec_fn(self._out_spec)
        for result in self.compiled.execute(resolver, slots, stats):
            yield project(result)


#: Structural (body, in_names, out_names, head) -> BoundQuery.  The
#: counting engines rebuild their canonical rules on every run, so
#: per-engine caches recompile the same few query shapes over and over;
#: sharing across runs is safe because a BoundQuery is immutable after
#: construction.  Bounded defensively: real programs have few shapes,
#: fuzzed test runs generate many.
_BOUND_QUERY_CACHE = {}
_BOUND_QUERY_LIMIT = 2048


def bound_query(body, in_names, out_names, head=None):
    """A shared :class:`BoundQuery`, cached on structural identity."""
    key = (tuple(body), tuple(in_names), tuple(out_names), head)
    try:
        query = _BOUND_QUERY_CACHE.get(key)
    except TypeError:
        # Unhashable terms (exotic constant values); build uncached.
        return BoundQuery(body, in_names, out_names, head)
    if query is None:
        if len(_BOUND_QUERY_CACHE) >= _BOUND_QUERY_LIMIT:
            _BOUND_QUERY_CACHE.clear()
        query = BoundQuery(body, in_names, out_names, head)
        _BOUND_QUERY_CACHE[key] = query
    return query


# -- compiled rules (semi-naive call shape) --------------------------


class CompiledRule:
    """A whole rule compiled for the semi-naive engine.

    ``compiled`` is the body, ``head`` builds the ground head tuple
    from a match, ``head_spec`` is the row spec the batch emitters
    consume, ``emit`` is the body's batch emitter for that spec (None
    when the body has none; see :meth:`CompiledBody.emitter`), and
    ``premises`` (used only when tracing) yields one ground value tuple
    per positive body atom in body order.
    """

    __slots__ = ("rule", "compiled", "head", "head_spec", "emit",
                 "premises")

    def __init__(self, rule):
        self.rule = rule
        compiled = compile_body(rule.body)
        self.compiled = compiled
        self.head_spec = compile_row_spec(
            rule.head.args, compiled, _head_unground(rule.head)
        )
        self.head = row_spec_fn(self.head_spec)
        self.emit = compiled.emitter(self.head_spec)
        self.premises = tuple(
            compile_row(atom.args, compiled, _premise_unground(atom))
            for atom in rule.body_atoms()
        )


#: Structural rule -> CompiledRule, mirroring ``_BOUND_QUERY_CACHE``:
#: the rewritings rebuild structurally equal rule objects on every run,
#: and a CompiledRule is immutable after construction, so sharing
#: across engines is safe.  Rule equality ignores labels, which is fine
#: — consumers read only structural parts (``rule.head.key``) from the
#: cached instance; labels always come from the caller's own rule
#: object.
_COMPILED_RULE_CACHE = {}
_COMPILED_RULE_LIMIT = 2048


def compiled_rule(rule):
    """A shared :class:`CompiledRule`, cached on structural identity."""
    try:
        cached = _COMPILED_RULE_CACHE.get(rule)
    except TypeError:
        # Unhashable constant values somewhere in the rule.
        return CompiledRule(rule)
    if cached is None:
        if len(_COMPILED_RULE_CACHE) >= _COMPILED_RULE_LIMIT:
            _COMPILED_RULE_CACHE.clear()
        cached = CompiledRule(rule)
        _COMPILED_RULE_CACHE[rule] = cached
    return cached
