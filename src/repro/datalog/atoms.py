"""Literals: atoms, negated atoms, comparisons and membership tests.

A rule body is a sequence of literals.  Three literal kinds exist:

* :class:`Atom` — a predicate applied to terms; the positive building
  block of bodies and the only legal head.
* :class:`Negation` — negation-as-failure over an atom; only allowed on
  predicates of strictly lower strata (checked by the engine).
* :class:`Comparison` — built-in relations between two terms.  The
  operator set includes ``is`` (arithmetic assignment, binding its left
  variable), the usual orderings, and ``in`` (set/list membership, used
  by the cyclic counting method's ``A  in  T`` goals).
"""

from .terms import Term, Variable

#: Comparison operators that only test already-bound values.
TEST_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: Operators that may bind a variable on their left side.
BINDING_OPS = ("is", "in")
#: All comparison operators.
COMPARISON_OPS = TEST_OPS + BINDING_OPS


class Literal:
    """Abstract base class of body literals."""

    __slots__ = ()

    def variables(self):
        raise NotImplementedError

    def iter_variables(self):
        """Yield variable names in occurrence order (with repeats)."""
        raise NotImplementedError


class Atom(Literal):
    """A predicate applied to a tuple of terms.

    Atoms are immutable; ``key``, the ``(name, arity)`` pair
    identifying the predicate, is computed once here because every
    layer (adornment, clique analysis, the engine's relation lookups)
    reads it repeatedly.
    """

    __slots__ = ("pred", "args", "key")

    def __init__(self, pred, args=()):
        self.pred = pred
        self.args = tuple(args)
        for arg in self.args:
            if not isinstance(arg, Term):
                raise TypeError("atom argument is not a Term: %r" % (arg,))
        self.key = (pred, len(self.args))

    @property
    def arity(self):
        return len(self.args)

    def variables(self):
        names = set()
        for arg in self.args:
            names |= arg.variables()
        return names

    def iter_variables(self):
        for arg in self.args:
            yield from arg.iter_variables()

    def is_ground(self):
        return all(arg.is_ground() for arg in self.args)

    def with_args(self, args):
        """Return a copy of this atom with different arguments."""
        return Atom(self.pred, args)

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and other.pred == self.pred
            and other.args == self.args
        )

    def __hash__(self):
        return hash(("atom", self.pred, self.args))

    def __repr__(self):
        return "Atom(%r, %r)" % (self.pred, self.args)


class Negation(Literal):
    """Negation-as-failure: ``not atom``."""

    __slots__ = ("atom",)

    def __init__(self, atom):
        if not isinstance(atom, Atom):
            raise TypeError("negation must wrap an Atom")
        self.atom = atom

    def variables(self):
        return self.atom.variables()

    def iter_variables(self):
        return self.atom.iter_variables()

    def __eq__(self, other):
        return isinstance(other, Negation) and other.atom == self.atom

    def __hash__(self):
        return hash(("neg", self.atom))

    def __repr__(self):
        return "Negation(%r)" % (self.atom,)


class Comparison(Literal):
    """A built-in comparison ``left op right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in COMPARISON_OPS:
            raise ValueError("unknown comparison operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def variables(self):
        return self.left.variables() | self.right.variables()

    def iter_variables(self):
        yield from self.left.iter_variables()
        yield from self.right.iter_variables()

    def binds_left(self):
        """True if the operator may bind an unbound left variable."""
        return self.op in BINDING_OPS and isinstance(self.left, Variable)

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("cmp", self.op, self.left, self.right))

    def __repr__(self):
        return "Comparison(%r, %r, %r)" % (self.op, self.left, self.right)
