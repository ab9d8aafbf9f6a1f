"""Where the traced run puts its wrappers, and the per-layer metrics.

Layer names are the ``repro`` subpackages.  :func:`install` wraps one
public entry point (or a small set) per measured boundary; the metric
table below turns the recorded spans, the per-query counters and the
subsystem counters into the ``per_layer`` block of ``BENCHMARK.json``.
"""

from . import tracing


def install(tracer):
    """Wrap every measured entry point; :meth:`Tracer.uninstall` undoes it."""
    from repro.datalog import parser
    from repro.durability.durable import DurableDatabase
    from repro.durability.wal import WriteAheadLog
    from repro.engine import compile as compile_module
    from repro.engine.database import Database
    from repro.engine.seminaive import SemiNaiveEngine
    from repro.exec.counting_engine import CountingEngine
    from repro.exec.prepared import PreparedQuery
    from repro.graph import dfs
    from repro.parallel import plan
    from repro.parallel.executor import ParallelEngine
    from repro.rewriting import (counting, encoded, extended, magic,
                                 pipeline, reduction, supplementary)
    from repro.serve.service import QueryService
    from repro.tenancy.scheduler import FairScheduler

    patch = tracer.patch_function
    patch(parser, "parse_query", "datalog.parse")
    patch(pipeline, "optimize", "rewriting.plan")
    patch(pipeline, "choose_method", "rewriting.plan")
    for module, attr in ((magic, "magic_rewrite"),
                         (extended, "extended_counting_rewrite"),
                         (reduction, "reduce_rewriting"),
                         (supplementary, "supplementary_magic_rewrite"),
                         (counting, "classical_counting_rewrite"),
                         (encoded, "encoded_counting_rewrite")):
        patch(module, attr, "rewriting.rewrite")
    patch(compile_module, "compiled_rule", "engine.compile")
    patch(dfs, "classify_arcs", "graph.classify")
    patch(plan, "plan_partitions", "parallel.plan")

    method = tracer.patch_method
    method(SemiNaiveEngine, "run", "engine.fixpoint")
    method(Database, "snapshot", "engine.snapshot")
    # DurableDatabase.add_facts logs first, then calls the base method:
    # the base method alone is the in-memory apply.
    method(Database, "add_facts", "engine.ingest")
    method(CountingEngine, "build_counting_set", "exec.phase1")
    method(CountingEngine, "compute_answers", "exec.phase2")
    method(PreparedQuery, "__init__", "exec.prepare")
    method(PreparedQuery, "run", "exec.prepared_run")
    method(QueryService, "_attempts", "serve.eval",
           request_of=lambda args: ("svc", args[1].id))
    method(FairScheduler, "offer", "tenancy.schedule")
    # ``take`` blocks while the lanes are empty; its dequeue step is
    # the scheduling work.
    method(FairScheduler, "_next_locked", "tenancy.schedule")
    method(WriteAheadLog, "append", "durability.append")
    method(WriteAheadLog, "flush", "durability.flush")
    method(DurableDatabase, "checkpoint", "durability.checkpoint")
    method(ParallelEngine, "run", "parallel.run")


#: (metric, span name, field, per) — ``field`` is ``total`` / ``self``
#: seconds (reported in ms) or ``calls``; ``per`` divides by completed
#: queries or acknowledged writes of the traced window.
SPAN_METRICS = (
    ("datalog.parse_ms", "datalog.parse", "total", "query"),
    ("rewriting.plan_ms", "rewriting.plan", "total", "query"),
    ("rewriting.rewrite_ms", "rewriting.rewrite", "total", "query"),
    ("engine.compile_ms", "engine.compile", "total", "query"),
    ("engine.compile_calls", "engine.compile", "calls", "query"),
    ("engine.fixpoint_ms", "engine.fixpoint", "self", "query"),
    ("engine.snapshot_ms", "engine.snapshot", "total", "query"),
    ("engine.ingest_ms", "engine.ingest", "total", "write"),
    ("graph.classify_ms", "graph.classify", "total", "query"),
    ("exec.phase1_ms", "exec.phase1", "self", "query"),
    ("exec.phase2_ms", "exec.phase2", "total", "query"),
    ("exec.prepared_self_ms", "exec.prepared_run", "self", "query"),
    ("serve.eval_ms", "serve.eval", "total", "query"),
    ("tenancy.schedule_ms", "tenancy.schedule", "total", "query"),
    ("durability.append_ms", "durability.append", "total", "write"),
    ("durability.flush_ms", "durability.flush", "total", "write"),
    ("durability.checkpoint_ms", "durability.checkpoint", "total",
     "write"),
    ("parallel.plan_ms", "parallel.plan", "total", "query"),
    ("parallel.execute_ms", "parallel.run", "self", "query"),
)

#: (metric, unit, better) in ``BENCHMARK.json`` order.
PER_LAYER = (
    ("datalog.parse_ms", "ms", "lower"),
    ("rewriting.plan_ms", "ms", "lower"),
    ("rewriting.rewrite_ms", "ms", "lower"),
    ("engine.compile_ms", "ms", "lower"),
    ("engine.compile_calls", "count", "lower"),
    ("engine.fixpoint_ms", "ms", "lower"),
    ("engine.work", "count", "lower"),
    ("engine.rounds", "count", "lower"),
    ("engine.tuples_scanned", "count", "lower"),
    ("engine.facts_derived", "count", "lower"),
    ("engine.index_probes", "count", "lower"),
    ("engine.dup_ratio", "ratio", "lower"),
    ("engine.snapshot_ms", "ms", "lower"),
    ("engine.ingest_ms", "ms", "lower"),
    ("engine.work_seed_spread", "ratio", "lower"),
    ("graph.classify_ms", "ms", "lower"),
    ("exec.phase1_ms", "ms", "lower"),
    ("exec.phase2_ms", "ms", "lower"),
    ("exec.counting_rows", "count", "lower"),
    ("exec.counting_triples", "count", "lower"),
    ("exec.answer_states", "count", "lower"),
    ("exec.vs_magic_time", "ratio", "lower"),
    ("exec.vs_magic_work", "ratio", "lower"),
    ("exec.prepare_ms", "ms", "lower"),
    ("exec.prepared_self_ms", "ms", "lower"),
    ("exec.answer_hit_rate", "ratio", "higher"),
    ("exec.answer_evictions", "count", "lower"),
    ("exec.answer_invalidations", "count", "lower"),
    ("exec.table_hit_rate", "ratio", "higher"),
    ("serve.wait_ms", "ms", "lower"),
    ("serve.eval_ms", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.fallbacks", "count", "lower"),
    ("serve.max_depth", "count", "lower"),
    ("tenancy.schedule_ms", "ms", "lower"),
    ("durability.append_ms", "ms", "lower"),
    ("durability.flush_ms", "ms", "lower"),
    ("durability.fsyncs", "count", "lower"),
    ("durability.checkpoint_ms", "ms", "lower"),
    ("durability.wal_bytes_per_fact", "B", "lower"),
    ("durability.recover_ms", "ms", "lower"),
    ("parallel.plan_ms", "ms", "lower"),
    ("parallel.execute_ms", "ms", "lower"),
    ("parallel.exchange_bytes", "B", "lower"),
    ("parallel.barriers", "count", "lower"),
    ("parallel.repairs", "count", "lower"),
    ("parallel.vs_best_serial", "ratio", "lower"),
    ("trace.overhead_pct", "pct", "lower"),
)


def _per(total, count):
    return total / count if count else 0.0


def per_layer(spans, rec, counters, extras):
    """The per-layer metric values of one traced window.

    ``rec`` is the window's :class:`~perfbench.workloads.Recorder`;
    ``counters`` holds subsystem counter deltas over the window
    (answer cache, counting store, service, WAL); ``extras`` carries
    values measured outside the window (comparisons, recovery, seed
    spread, tracing overhead).
    """
    window = (rec.start, rec.end)
    sums = tracing.totals(spans, window)
    queries = rec.queries
    writes = len(rec.write_latencies)
    values = {}
    for metric, span, field, per in SPAN_METRICS:
        calls, total, own = sums.get(span, (0, 0.0, 0.0))
        amount = {"calls": calls, "total": total * 1e3,
                  "self": own * 1e3}[field]
        values[metric] = _per(amount, queries if per == "query" else writes)

    stats = rec.stats
    values["engine.work"] = _per(stats["total_work"], queries)
    values["engine.rounds"] = _per(stats["iterations"], queries)
    values["engine.tuples_scanned"] = _per(stats["tuples_scanned"], queries)
    values["engine.facts_derived"] = _per(stats["facts_derived"], queries)
    values["engine.index_probes"] = _per(stats["index_probes"], queries)
    values["engine.dup_ratio"] = _per(
        stats["facts_duplicate"],
        stats["facts_derived"] + stats["facts_duplicate"])
    for name in ("counting_rows", "counting_triples", "answer_states"):
        values["exec." + name] = _per(rec.extras[name],
                                      rec.extra_counts[name])
    values["parallel.exchange_bytes"] = _per(rec.extras["exchange_bytes"],
                                             queries)
    values["parallel.barriers"] = _per(rec.extras["barriers"], queries)
    values["parallel.repairs"] = _per(rec.repairs, queries)

    # Prepared-form construction happens at set-up, before the window.
    prepare = [s[3] - s[2] for s in spans if s[1] == "exec.prepare"]
    values["exec.prepare_ms"] = _per(sum(prepare) * 1e3, len(prepare))

    cache = counters.get("answer_cache", {})
    values["exec.answer_hit_rate"] = _per(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))
    values["exec.answer_evictions"] = _per(cache.get("evictions", 0),
                                           queries)
    values["exec.answer_invalidations"] = _per(
        cache.get("invalidations", 0), queries)
    store = counters.get("counting_store", {})
    values["exec.table_hit_rate"] = _per(
        store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0))

    service = counters.get("service", {})
    values["serve.shed"] = (service.get("shed_overload", 0)
                            + service.get("shed_quota", 0)
                            + service.get("shed_expired", 0))
    values["serve.failed"] = service.get("failed", 0)
    values["serve.retries"] = service.get("retried", 0)
    values["serve.fallbacks"] = service.get("fallbacks", 0)
    values["serve.max_depth"] = service.get("max_queue_depth", 0)
    evals = {}
    for span in spans:
        if span[1] == "serve.eval" and window[0] <= span[2] <= window[1]:
            evals[span[5][1]] = evals.get(span[5][1], 0.0) + span[3] - span[2]
    waits = [rec.request_latency[rid] - seconds
             for rid, seconds in evals.items()
             if rid in rec.request_latency]
    values["serve.wait_ms"] = _per(sum(waits) * 1e3, len(waits))

    wal = counters.get("wal", {})
    values["durability.fsyncs"] = _per(wal.get("fsyncs", 0), writes)
    values["durability.wal_bytes_per_fact"] = extras.get(
        "wal_bytes_per_fact", 0.0)
    values["durability.recover_ms"] = extras.get("recover_ms", 0.0)

    for name in ("exec.vs_magic_time", "exec.vs_magic_work",
                 "parallel.vs_best_serial", "engine.work_seed_spread",
                 "trace.overhead_pct"):
        values[name] = extras.get(name, 0.0)
    return values
