"""Extended counting for acyclic databases — Algorithm 1 (§3).

The classical integer index is generalized to a *path argument*: a list
of ``(rule-label, shared-values)`` entries operating as a stack.  The
counting rules push an entry for every application of a left part; the
modified rules pop entries, replaying the same rule sequence in reverse
while the right parts rebuild the answers.  This removes the classical
restrictions: any number of linear recursive rules, mutually recursive
predicates with different adornments, and variables shared between the
left and right parts (their values ride on the path entries; bound head
variables used on the right are recovered through the counting
predicate kept in the modified rule body — the ``D_r`` case).

Following Algorithm 1 verbatim:

* no counting rule is generated for a left-linear-shaped rule (its left
  part does not move the binding);
* a right-linear-shaped rule gets a counting rule that does *not* push
  (the path is unchanged) and no modified rule;
* the counting atom in a modified rule body is omitted when
  ``D_r = ∅``.

The output is plain Datalog-with-lists and runs on the generic
semi-naive engine; Theorem 1 guarantees equivalence when the left-part
graph is acyclic (the executor checks this first — on cyclic data the
path lists would grow without bound).
"""

from ..datalog.atoms import Atom
from ..datalog.rules import Program, Query, Rule
from ..datalog.terms import (
    NIL,
    Constant,
    Variable,
    cons,
    make_list,
    make_tuple,
)
from .adornment import adorn_query
from .canonical import query_constants
from .counting import COUNT_PREFIX

#: Name of the path variable introduced by the rewriting.
PATH_VAR = "CNT_PATH"


class ExtendedCountingRewriting:
    """Result of :func:`extended_counting_rewrite`."""

    __slots__ = (
        "adorned",
        "query",
        "counting_rules",
        "modified_rules",
        "support_rules",
        "counting_preds",
        "answer_preds",
        "canonical",
    )

    def __init__(self, adorned, query, counting_rules, modified_rules,
                 support_rules, counting_preds, answer_preds, canonical):
        self.adorned = adorned
        self.query = query
        self.counting_rules = tuple(counting_rules)
        self.modified_rules = tuple(modified_rules)
        self.support_rules = tuple(support_rules)
        #: original clique key -> counting predicate key
        self.counting_preds = dict(counting_preds)
        #: original clique key -> answer predicate key
        self.answer_preds = dict(answer_preds)
        self.canonical = canonical

    @property
    def program(self):
        return self.query.program

    def clique_keys(self):
        return set(self.counting_preds) | set(self.answer_preds)


def _entry_term(rule):
    """The path entry ``(label, [C_r...])`` for a recursive rule."""
    shared = make_list(Variable(v) for v in rule.shared_vars)
    return make_tuple((Constant(rule.label), shared))


def _counting_atom(counting_preds, key, var_names, path_term):
    name, _ = counting_preds[key]
    return Atom(
        name,
        tuple(Variable(v) for v in var_names) + (path_term,),
    )


def _answer_atom(answer_preds, key, var_names, path_term):
    name, _ = answer_preds[key]
    return Atom(
        name,
        tuple(Variable(v) for v in var_names) + (path_term,),
    )


def extended_counting_rewrite(query):
    """Apply Algorithm 1 (extended counting) to ``query``."""
    adorned = query if hasattr(query, "origins") else adorn_query(query)
    clique, support_rules = adorned.goal_clique()
    canonical = adorned.canonical_clique()
    goal = adorned.goal

    counting_preds = {}
    answer_preds = {}
    for rule in canonical.exit_rules:
        key = rule.head_key
        counting_preds.setdefault(
            key, (COUNT_PREFIX + key[0], len(rule.bound_vars) + 1)
        )
        answer_preds.setdefault(key, (key[0], len(rule.free_vars) + 1))
    for rule in canonical.recursive_rules:
        for key, bound, free in (
            (rule.head_key, rule.bound_vars, rule.free_vars),
            (rule.rec_key, rule.rec_bound_vars, rule.rec_free_vars),
        ):
            counting_preds.setdefault(
                key, (COUNT_PREFIX + key[0], len(bound) + 1)
            )
            answer_preds.setdefault(key, (key[0], len(free) + 1))

    path = Variable(PATH_VAR)
    counting_rules = [
        Rule(
            Atom(
                counting_preds[goal.key][0],
                tuple(Constant(v) for v in query_constants(goal)) + (NIL,),
            ),
            (),
            label="c_seed",
        )
    ]
    for rule in canonical.recursive_rules:
        if rule.is_left_linear_shape():
            continue
        if rule.is_right_linear_shape():
            head_path = path
        else:
            head_path = cons(_entry_term(rule), path)
        counting_rules.append(
            Rule(
                _counting_atom(
                    counting_preds, rule.rec_key, rule.rec_bound_vars,
                    head_path,
                ),
                (
                    _counting_atom(
                        counting_preds, rule.head_key, rule.bound_vars,
                        path,
                    ),
                )
                + rule.left,
                label="c_%s" % rule.label,
            )
        )

    modified_rules = []
    for exit_rule in canonical.exit_rules:
        modified_rules.append(
            Rule(
                _answer_atom(
                    answer_preds, exit_rule.head_key, exit_rule.free_vars,
                    path,
                ),
                (
                    _counting_atom(
                        counting_preds, exit_rule.head_key,
                        exit_rule.bound_vars, path,
                    ),
                )
                + exit_rule.body,
                label=exit_rule.label,
            )
        )
    for rule in canonical.recursive_rules:
        if rule.is_right_linear_shape():
            continue
        if rule.is_left_linear_shape():
            body_path = path
        else:
            body_path = cons(_entry_term(rule), path)
        body = [
            _answer_atom(
                answer_preds, rule.rec_key, rule.rec_free_vars, body_path
            )
        ]
        if rule.bound_in_right:
            body.append(
                _counting_atom(
                    counting_preds, rule.head_key, rule.bound_vars, path
                )
            )
        body.extend(rule.right)
        modified_rules.append(
            Rule(
                _answer_atom(
                    answer_preds, rule.head_key, rule.free_vars, path
                ),
                tuple(body),
                label=rule.label,
            )
        )

    free_args = tuple(arg for arg in goal.args if not arg.is_ground())
    new_goal = Atom(answer_preds[goal.key][0], free_args + (NIL,))
    program = Program(
        tuple(counting_rules) + tuple(modified_rules) + tuple(support_rules)
    )
    return ExtendedCountingRewriting(
        adorned,
        Query(new_goal, program),
        counting_rules,
        modified_rules,
        support_rules,
        counting_preds,
        answer_preds,
        canonical,
    )
