"""Dedicated evaluators and uniform strategy executors."""

from .cache import AnswerCache, CountingTableStore
from .counting_engine import CountingEngine, CountingRow, CountingTable
from .magic_counting import MagicCountingEngine, recurring_nodes
from .prepared import PreparedQuery
from .qsq import QSQEngine, qsq_evaluate
from .resilient import (
    DEFAULT_CHAIN,
    AttemptRecord,
    ExecutionReport,
    FallbackPolicy,
    run_resilient,
)
from .weak_stratification import (
    tables_equivalent,
    wavefront_counting_table,
    weakly_stratified_counting_table,
)
from .strategies import STRATEGIES, ExecutionResult, run_strategy

__all__ = [
    "AnswerCache",
    "AttemptRecord",
    "CountingEngine",
    "CountingTableStore",
    "PreparedQuery",
    "CountingRow",
    "CountingTable",
    "DEFAULT_CHAIN",
    "ExecutionReport",
    "ExecutionResult",
    "FallbackPolicy",
    "MagicCountingEngine",
    "QSQEngine",
    "STRATEGIES",
    "qsq_evaluate",
    "run_resilient",
    "recurring_nodes",
    "run_strategy",
    "tables_equivalent",
    "wavefront_counting_table",
    "weakly_stratified_counting_table",
]
