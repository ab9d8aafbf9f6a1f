"""Bottom-up evaluation engine: relations, database, stratified
semi-naive fixpoint and instrumentation."""

from .builtins import eval_comparison
from .compile import BoundQuery, CompiledBody, CompiledRule, compile_body
from .database import Database, DatabaseSnapshot
from .faults import FaultInjector, InjectedFault
from .fixpoint import QueryResult, evaluate_query, goal_filter, project_free
from .guard import CancellationToken, ResourceBudget
from .instrumentation import EvalStats
from .interning import InternPool
from .planner import reorder_body, reorder_program_rules
from .relation import EmptyRelation, Relation, WILDCARD
from .seminaive import SemiNaiveEngine, evaluate_program
from .stratify import check_stratified, is_stratified
from .tracing import DerivationNode, DerivationTrace

__all__ = [
    "BoundQuery",
    "CancellationToken",
    "CompiledBody",
    "CompiledRule",
    "Database",
    "DatabaseSnapshot",
    "FaultInjector",
    "InjectedFault",
    "InternPool",
    "ResourceBudget",
    "compile_body",
    "DerivationNode",
    "DerivationTrace",
    "EmptyRelation",
    "EvalStats",
    "reorder_body",
    "reorder_program_rules",
    "QueryResult",
    "Relation",
    "SemiNaiveEngine",
    "WILDCARD",
    "check_stratified",
    "eval_comparison",
    "evaluate_program",
    "evaluate_query",
    "goal_filter",
    "is_stratified",
    "project_free",
]
