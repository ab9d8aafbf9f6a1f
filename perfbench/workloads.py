"""The benchmark's four workloads.

Every workload is closed-loop with one client: the next operation is
issued only when the client has room for it.  Its operation list is a
pure function of ``(workload, seed)`` — the same seed gives the same
list on any commit, so a faster commit simply gets further down it.

``counting_stream``
    Prepared same-generation forms (Examples 1, 3 and 4 over mirrored
    random trees, planned as ``pointer_counting``; Example 1 over
    cyclic ``up`` graphs, planned as ``cyclic_counting``) with no
    answer cache and no counting-table store, so every query runs both
    counting phases.  The paper's method on its home ground.
``adhoc_fixpoint``
    Query text to answer per operation: ``parse_query`` → ``optimize``
    → execute, the ``repro run`` path.  The forms plan onto the
    semi-naive engine (magic fallback, ``reduced_counting`` for mixed-
    and left-linear programs, linearized transitive closure), so each
    query pays rewriting and rule compilation.
``served_rw``
    A ``QueryService`` over a ``DurableDatabase`` with an answer cache,
    a counting-table store and three registered forms, Zipf-skewed
    bindings over a key space several times the cache, and a durable
    ``add_facts`` batch every ``WRITE_EVERY`` operations into a
    relation only one form reads.
``sharded_stream``
    ``run_strategy("parallel", workers=2)`` on same-generation chains
    and cylinders sized so that rounds and exchange dominate.
"""

import bisect
import gc
import hashlib
import os
import random
import shutil
import time
from collections import deque

import repro
from repro.durability.durable import DurableDatabase
from repro.exec.cache import AnswerCache, CountingTableStore
from repro.exec.prepared import PreparedQuery
from repro.exec.strategies import run_strategy
from repro.rewriting.pipeline import optimize
from repro.serve.service import QueryService
from repro.tenancy.forms import FormRegistry

from . import data

#: Worker processes of the sharded fixpoint; the benchmark never runs
#: more than the two cores it is calibrated on.
WORKERS = 2


def fingerprint(answers):
    """Order-independent digest of an answer set."""
    text = repr(sorted(answers, key=repr))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def make_db(facts):
    db = repro.Database()
    db.add_facts(facts)
    return db


class Recorder:
    """What one timed window did: latencies, counters, sampled answers."""

    STATS = ("total_work", "iterations", "tuples_scanned", "facts_derived",
             "facts_duplicate", "index_probes")
    EXTRAS = ("counting_rows", "counting_triples", "answer_states",
              "exchange_bytes", "barriers")

    def __init__(self, sampled):
        #: ``sampled(op_index, op)`` — whether the op's answers are
        #: kept for the correctness gate.
        self.sampled = sampled
        self.latencies = []
        self.write_latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = []
        #: Service request id -> latency, kept by traced windows only
        #: (``serve.wait_ms``), so untraced runs do not hold one entry
        #: per request in memory.
        self.request_latency = {}
        self.stats = dict.fromkeys(self.STATS, 0)
        self.extras = dict.fromkeys(self.EXTRAS, 0)
        self.extra_counts = dict.fromkeys(self.EXTRAS, 0)
        self.repairs = 0
        self.methods = {}
        #: First op's start and last op's end over every slice of the
        #: window; ``seconds`` sums the slices.
        self.start = None
        self.end = None
        self.seconds = 0.0

    def query(self, index, op, latency, result, context=None):
        self.attempted += 1
        self.latencies.append(latency)
        stats = result.stats
        for name in self.STATS:
            self.stats[name] += getattr(stats, name)
        extras = result.extras
        for name in self.EXTRAS:
            value = extras.get(name)
            if isinstance(value, int):
                self.extras[name] += value
                self.extra_counts[name] += 1
        recovery = extras.get("recovery")
        if isinstance(recovery, dict):
            self.repairs += recovery.get("repairs", 0)
        self.methods[result.method] = self.methods.get(result.method,
                                                       0) + 1
        if self.sampled(index, op):
            self.samples.append((index, op, result.answers, context))

    def write(self, latency):
        self.attempted += 1
        self.write_latencies.append(latency)

    def fail(self, index, op, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("op %d %r: %s: %s"
                               % (index, op, type(exc).__name__, exc))

    @property
    def queries(self):
        return len(self.latencies)

    def open_slice(self):
        """Start one slice of the window; returns its start time."""
        started = time.perf_counter()
        if self.start is None:
            self.start = started
        return started

    def close_slice(self, started):
        self.end = time.perf_counter()
        self.seconds += self.end - started


class OpList:
    """A lazily extended, seed-determined operation list."""

    def __init__(self, generator):
        self._gen = generator
        self._ops = []

    def __getitem__(self, index):
        while index >= len(self._ops):
            self._ops.append(next(self._gen))
        return self._ops[index]

    def prefix(self, count):
        return [self[i] for i in range(count)]


def _pool_cycle(rng, items):
    """Distinct draws from ``items`` in a seeded order, reshuffled on
    exhaustion."""
    items = list(items)
    while True:
        rng.shuffle(items)
        for item in items:
            yield item


class Workload:
    """Common closed-loop machinery; subclasses define data and ops."""

    name = None
    why = None
    heavy = ()
    light = ()
    fsync = "n/a"
    #: Whether the traced run adds the sharded-fixpoint probe.
    parallel_probe = False
    #: Whether the run pins itself to one CPU (see ``served_rw``).
    one_cpu = False
    #: Called with each op's index before it is issued; the traced run
    #: sets it so spans carry the request they serve.
    request_hook = None
    #: One op in ``SAMPLE_EVERY`` (seeded offset) is checked against
    #: the reference, up to ``SAMPLE_CAP`` ops per window.
    SAMPLE_EVERY = 50
    SAMPLE_CAP = 40

    def __init__(self, seed, tiny=False, workdir="."):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self._offset = random.Random("%s/sample/%d" % (self.name, seed)) \
            .randrange(self.SAMPLE_EVERY)
        self.ops = OpList(self._generate(
            random.Random("%s/ops/%d" % (self.name, seed))))
        self.cursor = 0
        self._data = None

    def rng(self, purpose):
        return random.Random("%s/%s/%d" % (self.name, purpose, self.seed))

    def shape(self):
        """The seed-independent stream that fixes data structure."""
        return random.Random("%s/shape/%s" % (self.name, self.tiny))

    def datasets(self):
        """The workload's data, generated once and shared by the op
        generator and :meth:`build`."""
        if self._data is None:
            self._data = self._datasets()
        return self._data

    def recorder(self):
        cap = self.SAMPLE_CAP
        offset = self._offset
        every = self.SAMPLE_EVERY
        must_check = self.must_check
        counter = [0]

        def sampled(index, op):
            if must_check(op):
                return True
            if index % every != offset or counter[0] >= cap:
                return False
            counter[0] += 1
            return True

        return Recorder(sampled)

    # -- hooks -------------------------------------------------------

    def must_check(self, op):
        """Whether ``op``'s answers are checked outside the sample."""
        return False

    def build(self):
        """Generate data and prepare everything the window needs."""
        raise NotImplementedError

    def teardown(self):
        """Finish after the window; returns report extras."""
        return {}

    def execute(self, op):
        """Run one op; returns an ``ExecutionResult``."""
        raise NotImplementedError

    def reference(self, op):
        """The reference answer set for a sampled query op."""
        raise NotImplementedError

    def storage_backend(self):
        db = getattr(self, "db", None) or next(iter(self.dbs.values()))
        return db.storage_info()["backend"]

    def layer_extras(self):
        """Traced-run-only comparisons, computed outside the window."""
        return {}

    # -- the timed window --------------------------------------------

    def window(self, seconds, rec):
        """Issue ops from the cursor for ``seconds``, as one slice of
        ``rec``'s window."""
        clock = time.perf_counter
        deadline = rec.open_slice() + seconds
        ops = self.ops
        index = self.cursor
        hook = self.request_hook
        while clock() < deadline:
            op = ops[index]
            if hook is not None:
                hook(index)
            started = clock()
            try:
                result = self.execute(op)
            except Exception as exc:  # a failed op is a measured outcome
                rec.fail(index, op, exc)
            else:
                rec.query(index, op, clock() - started, result)
            index += 1
        rec.close_slice(deadline - seconds)
        self.cursor = index

    def verify(self, rec):
        """Compare sampled answers with the reference; returns
        ``(checked, mismatches)``."""
        mismatches = []
        for index, op, answers, _context in rec.samples:
            expected = self.reference(op)
            if frozenset(expected) != answers:
                mismatches.append(
                    "op %d %r: got %s, reference %s"
                    % (index, op, fingerprint(answers),
                       fingerprint(expected))
                )
        return len(rec.samples), mismatches


class CountingStream(Workload):
    name = "counting_stream"
    why = ("prepared counting forms, no caches: the paper's method on "
           "its home ground")
    heavy = ("exec", "graph")
    light = ("rewriting", "engine", "serve", "durability", "parallel")

    FORMS = ("sg", "multi", "shared", "cyclic")
    EXPECTED = {"sg": "pointer_counting", "multi": "pointer_counting",
                "shared": "pointer_counting", "cyclic": "cyclic_counting"}

    def _datasets(self):
        shape, rng = self.shape(), self.rng("data")
        trees, depth, comps = (3, 3, 6) if self.tiny else (24, 6, 60)
        sets = {}
        for form, kind, text in (("sg", "sg", data.SG),
                                 ("multi", "multi", data.MULTI_RULE),
                                 ("shared", "shared", data.SHARED_VARS)):
            facts, levels = data.mirrored_forest(shape, rng, trees, depth,
                                                 form, kind)
            sets[form] = (text, facts, levels[:-1])
        facts, nodes = data.cyclic_components(shape, rng, comps, "k")
        sets["cyclic"] = (data.SG, facts, [nodes])
        return sets

    def _generate(self, rng):
        """Forms in shuffled rounds; per form, tree levels in shuffled
        rounds; per level, distinct nodes until the level is used up."""
        pools = {}
        for form, (_text, _facts, levels) in self.datasets().items():
            pools[form] = (_pool_cycle(rng, range(len(levels))),
                           [_pool_cycle(rng, level) for level in levels])
        forms = _pool_cycle(rng, self.FORMS)
        while True:
            form = next(forms)
            level_order, nodes = pools[form]
            yield (form, next(nodes[next(level_order)]))

    def build(self):
        self.dbs = {}
        self.prepared = {}
        for form, (text, facts, levels) in self.datasets().items():
            db = make_db(facts)
            query = repro.parse_query(text % levels[0][0])
            prepared = PreparedQuery(query, db, method="auto")
            if prepared.method != self.EXPECTED[form]:
                raise RuntimeError(
                    "form %s planned as %s, expected %s"
                    % (form, prepared.method, self.EXPECTED[form]))
            self.dbs[form] = db
            self.prepared[form] = prepared

    def execute(self, op):
        form, node = op
        return self.prepared[form].run((node,), db=self.dbs[form])

    def reference(self, op):
        form, node = op
        prepared = self.prepared[form]
        return run_strategy("magic", prepared.bind((node,)),
                            self.dbs[form]).answers

    def layer_extras(self):
        """Counting against magic on the same bindings (the paper's
        claim), timed here outside the window."""
        ops = self.ops.prefix(self.SAMPLE_EVERY * 4)
        counting_time = magic_time = 0.0
        counting_work = magic_work = 0
        for form, node in ops:
            prepared = self.prepared[form]
            db = self.dbs[form]
            started = time.perf_counter()
            result = prepared.run((node,), db=db)
            counting_time += time.perf_counter() - started
            counting_work += result.stats.total_work
            started = time.perf_counter()
            result = run_strategy("magic", prepared.bind((node,)), db)
            magic_time += time.perf_counter() - started
            magic_work += result.stats.total_work
        return {
            "exec.vs_magic_time": counting_time / magic_time,
            "exec.vs_magic_work": counting_work / magic_work,
        }


class AdhocFixpoint(Workload):
    name = "adhoc_fixpoint"
    why = ("query text to answer on the semi-naive engine: parse, "
           "rewrite and compile on every query")
    heavy = ("datalog", "rewriting", "engine")
    light = ("exec", "serve", "durability", "parallel")
    parallel_probe = True

    FORMS = ("nonlinear", "mixed", "left", "tc")

    def _datasets(self):
        shape, rng = self.shape(), self.rng("data")
        scale = 0.15 if self.tiny else 1.0

        def n(count):
            return max(12, int(count * scale))

        sets = {}
        facts, names = data.parent_forest(shape, rng, n(600), "a")
        sets["nonlinear"] = (data.NONLINEAR, facts, names)
        facts, names = data.mixed_linear(shape, rng, n(150), "x")
        sets["mixed"] = (data.MIXED_LINEAR, facts, names)
        facts, names = data.left_linear(shape, rng, n(200), n(300), "l")
        sets["left"] = (data.LEFT_LINEAR, facts, names)
        facts, names = data.sparse_graph(shape, rng, n(400), "g")
        sets["tc"] = (data.SQUARE_TC, facts, names)
        return sets

    def _generate(self, rng):
        pools = {form: _pool_cycle(rng, names)
                 for form, (_t, _f, names) in self.datasets().items()}
        forms = _pool_cycle(rng, self.FORMS)
        while True:
            form = next(forms)
            yield (form, next(pools[form]))

    def build(self):
        self.dbs = {}
        self.texts = {}
        self.naive = {}
        for form, (text, facts, _names) in self.datasets().items():
            self.dbs[form] = make_db(facts)
            self.texts[form] = text

    def execute(self, op):
        form, node = op
        db = self.dbs[form]
        query = repro.parse_query(self.texts[form] % node)
        return optimize(query, db).execute(db)

    def reference(self, op):
        """Magic sets on the original program for the forms planned as
        counting; the binding-free ``naive`` fixpoint (one evaluation
        shared by every binding) for the magic-planned form."""
        form, node = op
        db = self.dbs[form]
        query = repro.parse_query(self.texts[form] % node)
        if form != "nonlinear":
            return run_strategy("magic", query, db).answers
        prepared = self.naive.get(form)
        if prepared is None:
            prepared = self.naive[form] = PreparedQuery(query, db,
                                                        method="naive")
        return prepared.run((node,), db=db).answers


class ShardedStream(Workload):
    name = "sharded_stream"
    why = ("the sharded multiprocess fixpoint, the only workload where "
           "the parallel layer runs")
    heavy = ("parallel", "engine")
    light = ("exec", "serve", "durability")
    SAMPLE_EVERY = 8
    SAMPLE_CAP = 16

    SHAPES = ("chain", "cylinder")
    SERIAL = ("magic", "sup_magic", "pointer_counting", "reduced_counting")

    def _datasets(self):
        rng = self.rng("data")
        if self.tiny:
            depths, sizes = (6, 10), ((2, 3), (3, 5))
        else:
            depths = (8, 10, 10, 12, 12, 14)
            sizes = ((3, 5), (3, 6), (4, 6))
        return {"chain": data.chain_pairs(rng, depths, "c"),
                "cylinder": data.cylinders(rng, sizes, "y")}

    def _generate(self, rng):
        pools = {shape: _pool_cycle(rng, starts)
                 for shape, (_f, starts) in self.datasets().items()}
        shapes = _pool_cycle(rng, self.SHAPES)
        while True:
            shape = next(shapes)
            yield (shape, next(pools[shape]))

    def build(self):
        self.dbs = {}
        self.queries = {}
        for shape, (facts, starts) in self.datasets().items():
            self.dbs[shape] = make_db(facts)
            for start in starts:
                self.queries[start] = repro.parse_query(data.SG % start)

    def execute(self, op):
        shape, start = op
        return run_strategy("parallel", self.queries[start],
                            self.dbs[shape], workers=WORKERS)

    def reference(self, op):
        shape, start = op
        return run_strategy("pointer_counting", self.queries[start],
                            self.dbs[shape]).answers

    def layer_extras(self):
        """Sharded time over the fastest serial strategy, same ops."""
        ops = self.ops.prefix(8 if self.tiny else 16)
        totals = {}
        for method in ("parallel",) + self.SERIAL:
            options = {"workers": WORKERS} if method == "parallel" else {}
            started = time.perf_counter()
            for shape, start in ops:
                run_strategy(method, self.queries[start], self.dbs[shape],
                             **options)
            totals[method] = time.perf_counter() - started
        best = min(totals[m] for m in self.SERIAL)
        return {"parallel.vs_best_serial": totals["parallel"] / best}


class ServedReadWrite(Workload):
    name = "served_rw"
    why = ("cached reads beside durable writes through the service, "
           "scheduler and write-ahead log")
    heavy = ("serve", "tenancy", "exec", "durability", "engine")
    light = ("graph", "parallel")
    fsync = "batch"
    #: The client and the service thread hand each request back and
    #: forth under the interpreter lock.  Whether the kernel keeps the
    #: two threads on one CPU or wakes one across CPUs swings
    #: throughput by up to 2x for a whole run, so the run pins itself
    #: to one CPU; the lock already lets only one of them compute.
    one_cpu = True

    #: Requests the client keeps in flight (<= nproc).
    OUTSTANDING = 2
    #: Service worker threads.  Two workers behind the same lock add
    #: a second source of the same run-long regime swings.
    SERVICE_WORKERS = 1
    #: Every WRITE_EVERY-th op is an ``add_facts`` batch ...
    WRITE_EVERY = 100
    #: ... and every CHECKPOINT_EVERY-th batch also cuts a checkpoint.
    CHECKPOINT_EVERY = 32
    #: One batch in PROBE_EVERY is read before and after it lands.
    PROBE_EVERY = 4
    CACHE_CAPACITY = 448
    ZIPF_S = 1.1
    SAMPLE_EVERY = 40
    SAMPLE_CAP = 48

    FORMS = (("sg", data.SG), ("multi", data.MULTI_RULE),
             ("reach", data.REACH))

    def _datasets(self):
        """Facts, key strata and the DAG's node names.

        Keys are grouped into strata (form and tree level; DAG nodes by
        position in their component) so the Zipf ranking can deal hot ranks across strata
        evenly: every seed then has a hot set of the same make-up.
        """
        shape, rng = self.shape(), self.rng("data")
        trees, depth, comps = (2, 3, 3) if self.tiny else (10, 5, 40)
        sg, sg_levels = data.mirrored_forest(shape, rng, trees, depth, "s",
                                             "sg")
        multi, m_levels = data.mirrored_forest(shape, rng, trees, depth,
                                               "m", "multi")
        reach, positions = data.dag_components(shape, rng, comps, 30, "n",
                                               "link")
        names = [name for nodes in positions for name in nodes]
        strata = ([[("sg", n) for n in level] for level in sg_levels[:-1]]
                  + [[("multi", n) for n in level]
                     for level in m_levels[:-1]]
                  + [[("reach", n) for p in range(start, start + 6)
                      for n in positions[p]]
                     for start in range(0, 30, 6)])
        return sg + multi + reach, strata, names

    def _batch(self, index, names):
        """Write batch ``index``: a fresh two-node chain into the DAG.

        The chain only leads into existing nodes, so no existing key's
        answers (or cost) change; reads of its head before and after
        the batch check that the write is seen exactly when it should
        be.
        """
        rng = random.Random("%s/batch/%d/%d" % (self.name, self.seed,
                                                index))
        head, mid = "w%da" % index, "w%db" % index
        return [("link", (head, mid)), ("link", (mid, rng.choice(names)))]

    def _generate(self, rng):
        _facts, strata, names = self.datasets()
        strata = [list(stratum) for stratum in strata]
        for stratum in strata:
            rng.shuffle(stratum)
        keys = []
        while any(strata):
            for stratum in strata:
                if stratum:
                    keys.append(stratum.pop())
        weights = [1.0 / (rank + 1) ** self.ZIPF_S
                   for rank in range(len(keys))]
        cumulative = []
        total = 0.0
        for weight in weights:
            total += weight
            cumulative.append(total)
        batch = 0
        index = 0
        while True:
            slot = index % self.WRITE_EVERY
            probe = batch % self.PROBE_EVERY == 0
            if slot == self.WRITE_EVERY - 1:
                yield ("write", batch, self._batch(batch, names))
                batch += 1
            elif probe and slot == self.WRITE_EVERY - 2:
                yield ("query", "reach", "w%da" % batch)
            elif batch and (batch - 1) % self.PROBE_EVERY == 0 \
                    and slot == 1:
                yield ("query", "reach", "w%da" % (batch - 1))
            else:
                form, node = keys[bisect.bisect_left(
                    cumulative, rng.random() * total)]
                yield ("query", form, node)
            index += 1

    def must_check(self, op):
        """Probe reads are the only reads whose answers a write changes,
        so every one is checked (data node names never start with
        ``w``)."""
        return op[2].startswith("w")

    def build(self):
        facts, _strata, _names = self.datasets()
        self.base = facts
        self.directory = os.path.join(
            self.workdir, "durable-%d-%d" % (os.getpid(), self.seed))
        shutil.rmtree(self.directory, ignore_errors=True)
        db = DurableDatabase(self.directory, fsync=self.fsync)
        for start in range(0, len(facts), 2000):
            db.add_facts(facts[start:start + 2000])
        db.checkpoint()
        self.db = db
        self.facts_ingested = len(facts)
        self.cache = AnswerCache(capacity=self.CACHE_CAPACITY)
        self.store = CountingTableStore(capacity=self.CACHE_CAPACITY)
        self.registry = FormRegistry(db)
        for form, text in self.FORMS:
            anchor = "n0" if form == "reach" else form[0] + "0_u0"
            self.registry.register(
                form, repro.parse_query(text % anchor), method="auto",
                cache=self.cache, counting_store=self.store)
        self.service = QueryService(None, db, workers=self.SERVICE_WORKERS,
                                    registry=self.registry)
        self.acked = []

    def write(self, op):
        """Durable batch: log and apply, fsync before acknowledging,
        and every CHECKPOINT_EVERY-th batch cut a checkpoint."""
        _kind, batch, facts = op
        self.db.add_facts(facts)
        self.db.flush()
        if (batch + 1) % self.CHECKPOINT_EVERY == 0:
            self.db.checkpoint()
        self.acked.append(op)

    def window(self, seconds, rec):
        clock = time.perf_counter
        deadline = rec.open_slice() + seconds
        pending = deque()
        ops = self.ops
        index = self.cursor
        hook = self.request_hook

        def complete():
            future, i, op, started, writes = pending.popleft()
            try:
                result = future.result()
            except Exception as exc:  # a failed request is measured
                rec.fail(i, op, exc)
                return
            latency = clock() - started
            if hook is not None:
                rec.request_latency[future.request_id] = latency
            rec.query(i, op, latency, result, context=writes)

        while clock() < deadline:
            op = ops[index]
            if hook is not None:
                hook(index)
            if op[0] == "write":
                started = clock()
                try:
                    self.write(op)
                except Exception as exc:  # a failed write is measured
                    rec.fail(index, op, exc)
                else:
                    rec.write(clock() - started)
                    self.facts_ingested += len(op[2])
            else:
                while len(pending) >= self.OUTSTANDING:
                    complete()
                started = clock()
                try:
                    future = self.service.submit((op[2],), form=op[1])
                except Exception as exc:  # shed: counted as failed
                    rec.fail(index, op, exc)
                else:
                    pending.append((future, index, op, started,
                                    len(self.acked)))
            index += 1
        while pending:
            complete()
        rec.close_slice(deadline - seconds)
        self.cursor = index

    def verify(self, rec):
        """Single-threaded, uncached evaluation on the state each
        sampled request was admitted against (base facts plus the
        batches acknowledged before its submit)."""
        samples = sorted(rec.samples, key=lambda s: s[3])
        db = make_db(self.base)
        prepared = {}
        applied = 0
        mismatches = []
        for index, op, answers, writes in samples:
            while applied < writes:
                db.add_facts(self.acked[applied][2])
                applied += 1
            form = op[1]
            if form not in prepared:
                served = self.registry.get(form).prepared
                prepared[form] = PreparedQuery(served.template, db,
                                               method=served.method)
            expected = prepared[form].run((op[2],), db=db).answers
            if expected != answers:
                mismatches.append(
                    "op %d %r after %d writes: got %s, reference %s"
                    % (index, op[:2], writes, fingerprint(answers),
                       fingerprint(expected)))
        return len(samples), mismatches

    def teardown(self):
        """Drain the service, close the log, recover the directory and
        check every acknowledged write survived; then remove it."""
        self.service.drain()
        stored = sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory))
        wal = self.db.wal_stats
        self.db.close()
        started = time.perf_counter()
        recovered = DurableDatabase(self.directory, fsync=self.fsync)
        recover_s = time.perf_counter() - started
        lost = 0
        for _kind, _batch, facts in self.acked:
            for pred, values in facts:
                if tuple(values) not in recovered.get((pred, len(values))):
                    lost += 1
        recovered.close()
        shutil.rmtree(self.directory, ignore_errors=True)
        extras = {
            "stored_bytes_per_fact": stored / self.facts_ingested,
            "wal_bytes_per_fact": wal["bytes"] / self.facts_ingested,
            "recover_ms": recover_s * 1e3,
            "lost_writes": lost,
            "acked_writes": len(self.acked),
        }
        self.db = self.service = self.registry = None
        self.cache = self.store = None
        gc.collect()
        return extras


WORKLOADS = {
    cls.name: cls
    for cls in (CountingStream, AdhocFixpoint, ServedReadWrite,
                ShardedStream)
}
