"""Helpers shared by the experiment benchmark modules."""

from repro.bench.reporting import format_table
from repro.exec.strategies import run_strategy


def work_of(rows, label, method):
    """The deterministic work counter for one (label, method) cell."""
    for row in rows:
        if row.label == label and row.method == method:
            if row.work is None:
                raise AssertionError(
                    "%s/%s failed: %r" % (label, method, row.error)
                )
            return row.work
    raise AssertionError("no row for %s/%s" % (label, method))


def error_of(rows, label, method):
    """The recorded error for one cell (None if it succeeded)."""
    for row in rows:
        if row.label == label and row.method == method:
            return row.error
    raise AssertionError("no row for %s/%s" % (label, method))


def extras_of(rows, label, method):
    for row in rows:
        if row.label == label and row.method == method:
            return row.extras
    raise AssertionError("no row for %s/%s" % (label, method))


def make_timer(query, db, method, **options):
    """A zero-argument callable for pytest-benchmark.

    Extra ``options`` are forwarded to the strategy runner — the
    ``parallel`` strategy's ``workers=N`` travels this way.
    """

    def run():
        return run_strategy(method, query, db, **options)

    return run


def phase_split(result):
    """(plan_seconds, execute_seconds) for one execution result.

    Strategies with an explicit plan/execute split (the ``parallel``
    sharded fixpoint) record a ``phase_seconds`` block in their extras;
    for everything else the whole elapsed time is execution and the
    plan phase is zero — the two components always sum to (about) the
    strategy's wall time, so phase tables stay comparable across
    methods.
    """
    phases = result.extras.get("phase_seconds") or {}
    plan = phases.get("plan", 0.0)
    execute = phases.get("execute")
    if execute is None:
        execute = max(0.0, result.elapsed - plan)
    return plan, execute


def timed_phases(query, db, method, repeats=1, **options):
    """Best-of-``repeats`` wall times, split by phase.

    Returns ``{"total": s, "plan": s, "execute": s, "result": r}``
    where the phase components belong to the fastest repeat — phases
    from different repeats never mix, so ``plan + execute`` stays
    consistent with ``total``.
    """
    best = None
    for _ in range(max(1, repeats)):
        result = run_strategy(method, query, db, **options)
        if best is None or result.elapsed < best.elapsed:
            best = result
    plan, execute = phase_split(best)
    return {
        "total": best.elapsed,
        "plan": plan,
        "execute": execute,
        "result": best,
    }


def wall_clock_table(title, query, cells, repeats=5):
    """Pointer counting against magic sets in wall-clock time.

    ``cells`` lists ``(label, db)``.  Each method keeps the best of
    ``repeats`` runs over the cell's database (the first run builds the
    relation indexes later runs share), shown next to its work and the
    pointer/magic time ratio, which is below 1 where pointer counting
    is faster.
    """
    rows = []
    for label, db in cells:
        pointer = timed_phases(query, db, "pointer_counting", repeats)
        magic = timed_phases(query, db, "magic", repeats)
        rows.append([
            label,
            pointer["result"].stats.total_work,
            magic["result"].stats.total_work,
            round(pointer["total"] * 1e3, 2),
            round(magic["total"] * 1e3, 2),
            round(pointer["total"] / magic["total"], 2),
        ])
    return format_table(
        ["workload", "pointer work", "magic work", "pointer ms",
         "magic ms", "pointer/magic time"],
        rows, title=title,
    )


def assert_claims(benchmark, check):
    """Run claim assertions once under pytest-benchmark.

    Claim tests carry no timing content of their own, but they must not
    be skipped under ``--benchmark-only``; a single pedantic round keeps
    them in that run.
    """
    benchmark.pedantic(check, rounds=1, iterations=1)
