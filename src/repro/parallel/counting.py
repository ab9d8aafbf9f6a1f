"""Phase 1 of the counting method (§3) on worker processes.

Phase 1 grows the left-part graph from the source in breadth waves
(:class:`~repro.exec.counting_engine.LeftGraph`); only the later
*classification* of the discovered arcs (tree/forward/cross/back)
depends on visit order, and it runs over the finished successor map.
A wave's node expansions are independent of one another, so
:class:`WavePool` runs the very same waves with each wave's batch split
across the pool:

1. the coordinator keeps the wave loop, the budget checks and the
   successor map; each wave's frontier is dealt round-robin to the
   workers, which expand their share with the batched left-queries;
2. every worker returns its successor lists *and* the work counters
   the share cost, and the coordinator merges each share's counters
   once — sums, so the totals are those of the serial waves;
3. the replay (:func:`~repro.graph.dfs.classify_arcs` over the map) and
   the level-batched unwind run in the coordinator, untouched — the
   :class:`~repro.exec.counting_engine.CountingTable` is byte-identical
   to a serial build.

Workers receive the full database (the left-queries' probe pattern is
value-driven, not partitionable ahead of time), shipped once over the
columnar fast path with a synchronized intern pool, like the sharded
fixpoint executor does.  Any pool failure raising
:class:`~repro.errors.EvaluationError` (a crashed or silent worker)
stops the pool; the wave that failed and every later one expand
serially in the coordinator, and ``extras["parallel_fallback"]`` names
the error.
"""

import multiprocessing

from ..engine.instrumentation import EvalStats
from ..engine.interning import InternPool
from ..engine.relation import Relation
from ..errors import EvaluationError, ReproError
from .executor import (
    WorkerCrashError,
    _BARRIER_TIMEOUT,
    _POLL_INTERVAL,
    _decode_rows,
    _encode_rows,
    _relation_rows,
    _send_error,
)

#: Counters shipped per share; ``rule_firings`` and the scan/probe pair
#: dominate, the rest are carried for completeness.
_COUNTER_FIELDS = (
    "rule_firings", "tuples_scanned", "facts_derived",
    "facts_duplicate", "iterations", "index_probes", "batch_rows",
)


def _counters(stats):
    return tuple(getattr(stats, name) for name in _COUNTER_FIELDS)


def _counting_worker_main(index, conn, payload):
    """Pool process for phase 1: build a wave expander over the shipped
    database, then expand frontier shares on request."""
    try:
        from ..exec.counting_engine import LeftGraph, query_binder

        pool = InternPool()
        for value in payload["values"]:
            pool.ident(value)
        relations = {}
        for key, (arity, blob) in sorted(payload["relations"].items()):
            relation = Relation(key[0], arity, pool=pool)
            for row in _decode_rows(pool, blob):
                relation.add(row)
            relations[key] = relation

        def get_relation(key):
            relation = relations.get(key)
            if relation is None:
                relation = Relation(key[0], key[1], pool=pool)
                relations[key] = relation
            return relation

        stats = EvalStats()
        left_graph = LeftGraph(payload["canonical"],
                               query_binder(get_relation), stats)
    except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
        _send_error(conn, exc)
        return
    try:
        while True:
            message = conn.recv()
            if message[0] == "close":
                return
            try:
                before = _counters(stats)
                lists = left_graph.expand(message[1])
                delta = tuple(
                    after - earlier
                    for earlier, after in zip(before, _counters(stats))
                )
                conn.send(("ok", (lists, delta)))
            except ReproError as exc:
                _send_error(conn, exc)
                return
    except (EOFError, OSError, KeyboardInterrupt):
        return


class WavePool:
    """Phase-1 waves expanded on ``workers`` processes.

    Install on a :class:`~repro.exec.counting_engine.CountingEngine` as
    ``engine.wave_pool``; :meth:`LeftGraph.successor_map
    <repro.exec.counting_engine.LeftGraph.successor_map>` then calls
    :meth:`expand` per wave and :meth:`close` when the map is done.
    The workers start on the first wave, so an engine whose table is
    served from a store never starts them.  ``extras`` receives
    ``parallel_phase1_workers`` after a clean parallel phase 1, or
    ``parallel_fallback`` (the error's type name) after a fallback.
    """

    def __init__(self, left_graph, db, workers, extras):
        if workers < 1:
            raise EvaluationError("parallel counting needs workers >= 1")
        self.left_graph = left_graph
        self.db = db
        self.workers = workers
        self.extras = extras
        self._members = []
        self._started = False
        self._failure = None

    def expand(self, frontier):
        """The wave's successor lists, aligned with ``frontier``."""
        if self._failure is None:
            try:
                if not self._started:
                    self._started = True
                    self._start()
                return self._expand(frontier)
            except EvaluationError as exc:
                self._failure = type(exc).__name__
                self._stop()
        return self.left_graph.expand(frontier)

    def close(self):
        """Stop the workers and record how phase 1 ran."""
        if self._failure is not None:
            self.extras["parallel_fallback"] = self._failure
        elif self._started:
            self.extras["parallel_phase1_workers"] = self.workers
        self._stop()

    def _start(self):
        db = self.db
        pool = db.intern_pool
        blobs = {}
        with db._lock:
            items = sorted(db._relations.items())
        for key, relation in items:
            blobs[key] = (
                key[1],
                _encode_rows(pool, _relation_rows(relation), key[1]),
            )
        payload = {
            "values": list(pool._values),
            "relations": blobs,
            "canonical": self.left_graph.canonical,
        }
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        for index in range(self.workers):
            parent, child = context.Pipe(duplex=True)
            process = context.Process(
                target=_counting_worker_main,
                args=(index, child, payload),
                daemon=True,
            )
            process.start()
            child.close()
            self._members.append((process, parent))

    def _expand(self, frontier):
        count = len(self._members)
        shares = [frontier[i::count] for i in range(count)]
        for share, (_process, conn) in zip(shares, self._members):
            if share:
                conn.send(("expand", share))
        replies = [
            _await_reply(index, process, conn) if share else ([], ())
            for index, (share, (process, conn))
            in enumerate(zip(shares, self._members))
        ]
        stats = self.left_graph.stats
        for _lists, delta in replies:
            for name, amount in zip(_COUNTER_FIELDS, delta):
                setattr(stats, name, getattr(stats, name) + amount)
        return [replies[i % count][0][i // count]
                for i in range(len(frontier))]

    def _stop(self):
        members, self._members = self._members, []
        for _process, conn in members:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
        for process, conn in members:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
            conn.close()


def _await_reply(index, process, conn):
    waited = 0.0
    while True:
        if conn.poll(_POLL_INTERVAL):
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashError(
                    "counting worker %d closed its channel" % index
                )
            if reply[0] == "error":
                raise reply[1]
            return reply[1]
        if not process.is_alive():
            raise WorkerCrashError(
                "counting worker %d died (exit code %r)"
                % (index, process.exitcode)
            )
        waited += _POLL_INTERVAL
        if waited > _BARRIER_TIMEOUT:
            raise WorkerCrashError(
                "counting worker %d silent for %.0fs" % (index, waited)
            )
