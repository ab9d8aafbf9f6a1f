"""Program-level form of Algorithm 2 (extended counting for cyclic
databases).

Algorithm 2's rewritten program uses three LDL constructs the paper
inherits from [5, 12, 22]: object identifiers (``A : c_p(X, _)``),
set-term grouping (``<(R, C, Id)>``) and membership (``(R, C, Id) in
T``).  Its counting rules are *weakly stratified* — they negate their
own predicate to ensure a node enters the counting set only after all
of its ahead predecessors.

The paper itself observes (§4, discussion after Theorem 2) that in
practice one does not evaluate that program generically: the Bushy-
Depth-First fixpoint computes the counting set during the DFS that
classifies the arcs, folds the back-arc information into the counting
tuples and makes the auxiliary predicate ``f`` unnecessary.  Our
executable form of Algorithm 2 is exactly that computation —
:class:`repro.exec.counting_engine.CountingEngine`.

This module renders the *program-level* rewriting as text in the
paper's notation, for inspection and for the structural tests that
check our rule generation against the paper's Example 5.
"""

from ..datalog.pretty import format_literal
from .adornment import adorn_query
from .counting import COUNT_PREFIX


def _fmt_vars(names):
    return ", ".join(names)


def _fmt_value(value):
    from ..datalog.pretty import format_value

    return format_value(value)


def cyclic_counting_program_text(query):
    """Render Algorithm 2's rewritten program for ``query``.

    Returns the program as a string in the paper's extended syntax
    (object identifiers, set terms, membership goals).
    """
    adorned = query if hasattr(query, "origins") else adorn_query(query)
    clique, _support = adorned.goal_clique()
    canonical = adorned.canonical_clique()
    goal = adorned.goal
    lines = []
    out = lines.append

    goal_pred = goal.pred
    seed_values = ", ".join(
        _fmt_value(arg.value) for arg in goal.args if arg.is_ground()
    )
    out("%% counting rules")
    out("%s%s(%s, {(r0, [], nil)})." % (COUNT_PREFIX, goal_pred, seed_values))
    for rule in canonical.recursive_rules:
        if rule.is_left_linear_shape():
            continue
        c_head = COUNT_PREFIX + rule.rec_key[0]
        c_body = COUNT_PREFIX + rule.head_key[0]
        shared = "[%s]" % _fmt_vars(rule.shared_vars)
        left = "".join(
            ", %s" % format_literal(lit) for lit in rule.left
        )
        out(
            "%s(%s, <(%s, %s, Id)>) :- Id : %s(%s, _)%s,"
            % (
                c_head,
                _fmt_vars(rule.rec_bound_vars),
                rule.label,
                shared,
                c_body,
                _fmt_vars(rule.bound_vars),
                left,
            )
        )
        out(
            "    not (ahead_%s(W, %s), W != %s, not %s(W, _))."
            % (
                rule.label,
                _fmt_vars(rule.rec_bound_vars),
                _fmt_vars(rule.bound_vars) or "nil",
                c_body,
            )
        )
    out("")
    out("%% cycle rules")
    for rule in canonical.recursive_rules:
        if rule.is_left_linear_shape():
            continue
        c_head = "cycle_" + rule.rec_key[0]
        c_body = COUNT_PREFIX + rule.head_key[0]
        shared = "[%s]" % _fmt_vars(rule.shared_vars)
        out(
            "%s(%s, <(%s, %s, Id)>) :- Id : %s(%s, _), "
            "back_%s(%s, %s)."
            % (
                c_head,
                _fmt_vars(rule.rec_bound_vars),
                rule.label,
                shared,
                c_body,
                _fmt_vars(rule.bound_vars),
                rule.label,
                _fmt_vars(rule.bound_vars),
                _fmt_vars(rule.rec_bound_vars),
            )
        )
    out("")
    out("%% predecessor closure")
    for key in sorted(canonical.adornments):
        out(
            "f(A, S) :- A : %s%s(X, S1), "
            "if(cycle_%s(X, S2) then S = S1 + S2 else S = S1)."
            % (COUNT_PREFIX, key[0], key[0])
        )
    out("")
    out("%% modified rules")
    for exit_rule in canonical.exit_rules:
        body = ", ".join(
            format_literal(lit) for lit in exit_rule.body
        )
        out(
            "%s(%s, S) :- A : %s%s(%s, _), f(A, S), %s."
            % (
                exit_rule.head_key[0],
                _fmt_vars(exit_rule.free_vars),
                COUNT_PREFIX,
                exit_rule.head_key[0],
                _fmt_vars(exit_rule.bound_vars),
                body,
            )
        )
    for rule in canonical.recursive_rules:
        if rule.is_right_linear_shape():
            continue
        shared = "[%s]" % _fmt_vars(rule.shared_vars)
        right = ", ".join(format_literal(lit) for lit in rule.right)
        parts = [
            "%s(%s, T)" % (rule.rec_key[0], _fmt_vars(rule.rec_free_vars)),
            "(%s, %s, A) in T" % (rule.label, shared),
            "f(A, S)",
        ]
        if rule.bound_in_right:
            parts.append(
                "A : %s%s(%s, _)"
                % (COUNT_PREFIX, rule.head_key[0],
                   _fmt_vars(rule.bound_vars))
            )
        if right:
            parts.append(right)
        out(
            "%s(%s, S) :- %s."
            % (rule.head_key[0], _fmt_vars(rule.free_vars),
               ", ".join(parts))
        )
    out("")
    free = ", ".join(
        a.name for a in goal.args if not a.is_ground()
    )
    out("?- %s(%s, {(r0, [], nil)})." % (goal_pred, free))
    return "\n".join(lines)
