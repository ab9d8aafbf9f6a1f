"""Prepared queries, the answer cache, and epoch-based invalidation."""

import io
import pickle

import pytest

from repro.cli import main as cli_main
from repro.data.workloads import (
    WORKLOADS,
    forest_bindings,
    forest_root,
    sg_forest,
)
from repro.datalog.rules import Rule
from repro.engine.database import Database
from repro.engine.instrumentation import EvalStats
from repro.engine.relation import EmptyRelation, Relation
from repro.errors import ReproError
from repro.exec import (
    STRATEGIES,
    AnswerCache,
    CountingTableStore,
    PreparedQuery,
    run_strategy,
)


def make_chain(depth=10):
    db, _source = WORKLOADS["sg_chain"].make_db(depth=depth)
    return db


# -- epochs on relations and databases ---------------------------------

class TestEpochs:
    def test_epoch_counts_new_rows_only(self):
        rel = Relation("up", 2)
        assert rel.epoch == 0
        assert rel.add(("a", "b"))
        assert rel.epoch == 1
        assert not rel.add(("a", "b"))  # duplicate: no bump
        assert rel.epoch == 1
        rel.add(("b", "c"))
        assert rel.epoch == 2

    def test_copy_preserves_epoch(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        clone = rel.copy()
        assert clone.epoch == rel.epoch
        clone.add(("b", "c"))
        assert clone.epoch == rel.epoch + 1
        assert rel.epoch == 1  # original untouched

    def test_database_epoch_of_and_snapshot(self):
        db = Database()
        assert db.epoch_of(("up", 2)) == 0  # absent relation
        db.add_fact("up", "a", "b")
        assert db.epoch_of(("up", 2)) == 1
        snapshot = db.epochs((("up", 2), ("down", 2)))
        assert snapshot == (1, 0)
        db.add_fact("down", "x", "y")
        assert db.epochs((("up", 2), ("down", 2))) == (1, 1)

    def test_empty_relation_has_epoch(self):
        assert EmptyRelation("up", 2).epoch == 0


# -- satellite fixes ---------------------------------------------------

class TestSatelliteFixes:
    def test_ensure_index_counts_builds(self):
        rel = Relation("up", 2)
        rel.add(("a", "b"))
        stats = EvalStats()
        rel.ensure_index([0], stats=stats)
        assert stats.index_builds == 1
        rel.ensure_index([0], stats=stats)  # cached: no rebuild
        assert stats.index_builds == 1

    def test_empty_relation_lookup_validates_positions(self):
        empty = EmptyRelation("up", 2)
        assert empty.lookup((0,), ("a",)) == ()
        with pytest.raises(ValueError):
            empty.lookup((2,), ("a",))
        with pytest.raises(ValueError):
            empty.lookup((-1,), ("a",))


# -- warm == cold across every applicable strategy ---------------------

#: Extras only a prepared run reports.
PREPARED_EXTRAS = ("prepared", "cache_hit", "counting_table_reused")


def outcome(run):
    """Answers, counters and extras of ``run()``, or its typed error."""
    try:
        result = run()
    except ReproError as exc:
        return type(exc), str(exc)
    extras = {
        name: value for name, value in result.extras.items()
        if name not in PREPARED_EXTRAS
    }
    return result.answers, result.stats.as_dict(), extras


class TestWarmEqualsCold:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "method", sorted(set(STRATEGIES) - {"parallel"})
    )
    def test_first_run_equals_cold(self, workload, method):
        # Every cell, applicable or not: the prepared form's first run
        # gives the cold run's answers, counters and extras, or raises
        # the same error with the same message.
        query = WORKLOADS[workload].query
        db, _source = WORKLOADS[workload].make_db()
        cold = outcome(lambda: run_strategy(method, query, db))
        db, _source = WORKLOADS[workload].make_db()
        prepared = outcome(
            lambda: PreparedQuery(query, db, method=method).run(db=db)
        )
        assert prepared == cold

    @pytest.mark.parametrize(
        "method", WORKLOADS["sg_chain"].applicable
    )
    def test_acyclic_workload(self, method):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        prepared = PreparedQuery(
            workload.query, db, method=method,
            cache=AnswerCache(), counting_store=CountingTableStore(),
        )
        for constant in ("a", "x1", "x2", "a"):
            cold = run_strategy(
                method, prepared.bind((constant,)), db
            )
            warm = prepared.run((constant,), db=db)
            assert warm.answers == cold.answers, (method, constant)

    @pytest.mark.parametrize(
        "method", WORKLOADS["sg_cyclic"].applicable
    )
    def test_cyclic_workload(self, method):
        workload = WORKLOADS["sg_cyclic"]
        db, _source = workload.make_db()
        prepared = PreparedQuery(
            workload.query, db, method=method,
            cache=AnswerCache(), counting_store=CountingTableStore(),
        )
        cold = run_strategy(method, prepared.bind(), db)
        warm = prepared.run(db=db)
        assert warm.answers == cold.answers

    def test_auto_method_matches_plan(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        prepared = PreparedQuery(workload.query, db)
        assert prepared.method == "pointer_counting"
        cold = run_strategy(prepared.method, prepared.bind(), db)
        assert prepared.run(db=db).answers == cold.answers


# -- answer cache behaviour --------------------------------------------

class TestAnswerCache:
    def test_repeat_is_a_hit(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db, cache=cache)
        first = prepared.run(db=db)
        second = prepared.run(db=db)
        assert first.stats.cache_hits == 0
        assert first.stats.cache_misses == 1
        assert second.stats.cache_hits == 1
        assert second.extras["cache_hit"] is True
        assert second.answers == first.answers
        assert cache.hits == 1 and cache.misses == 1

    def test_form_key_hashed_once_and_shared(self, monkeypatch):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        first = PreparedQuery(workload.query, db, cache=cache)
        first.run(db=db)
        hashes = []
        original = Rule.__hash__

        def counted(rule):
            hashes.append(rule)
            return original(rule)

        monkeypatch.setattr(Rule, "__hash__", counted)
        # A second instance of the same form hashes its program once,
        # building its key, then hits the first instance's entry.
        second = PreparedQuery(workload.query, db, cache=cache)
        built = len(hashes)
        assert built > 0
        hit = second.run(db=db)
        assert hit.stats.cache_hits == 1
        assert len(hashes) == built
        assert second._form_key == first._form_key
        assert second._form_key is not first._form_key

    def test_form_key_pickles_without_its_hash(self):
        key = PreparedQuery(WORKLOADS["sg_chain"].query)._form_key
        assert key.__reduce__()[1] == (key.parts,)
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and hash(clone) == hash(key)

    def test_mutation_invalidates_dependent_entries(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db, cache=cache)
        before = prepared.run(db=db)
        db.add_fact("flat", "a", "fresh_peer")
        after = prepared.run(db=db)
        cold = run_strategy(prepared.method, prepared.bind(), db)
        assert after.stats.cache_hits == 0  # stale entry not served
        assert after.answers == cold.answers
        assert ("fresh_peer",) in after.answers
        assert ("fresh_peer",) not in before.answers

    def test_unrelated_mutation_keeps_entries_valid(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db, cache=cache)
        prepared.run(db=db)
        db.add_fact("unrelated_pred", "x", "y")
        again = prepared.run(db=db)
        assert again.stats.cache_hits == 1

    def test_lru_eviction_bounds_size(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        cache = AnswerCache(capacity=2)
        prepared = PreparedQuery(workload.query, db, cache=cache)
        for constant in ("a", "x1", "x2"):
            prepared.run((constant,), db=db)
        assert len(cache) == 2
        assert cache.evictions == 1
        # "a" was evicted (least recently used): re-running misses but
        # still answers correctly.
        result = prepared.run(("a",), db=db)
        assert result.stats.cache_hits == 0
        cold = run_strategy(prepared.method, prepared.bind(("a",)), db)
        assert result.answers == cold.answers

    def test_cache_rejects_entry_from_other_database(self):
        workload = WORKLOADS["sg_chain"]
        db_one = make_chain()
        db_two = make_chain()  # same facts, same epochs, different db
        cache = AnswerCache()
        prepared = PreparedQuery(workload.query, db_one, cache=cache)
        prepared.run(db=db_one)
        result = prepared.run(db=db_two)
        assert result.stats.cache_hits == 0
        assert cache.invalidations == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=0)

    def test_stats_snapshot_is_consistent(self):
        cache = AnswerCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        snap = cache.stats()
        assert snap == {
            "size": 2, "capacity": 2, "lookups": 2, "hits": 1,
            "misses": 1, "evictions": 1, "invalidations": 0,
            "hit_rate": 0.5,
        }
        assert cache.hit_rate == 0.5

    def test_stats_never_torn_under_contention(self):
        # hit_rate and stats() read multiple counters; each snapshot
        # must satisfy hits + misses == lookups even while other
        # threads are mid-lookup.
        import threading

        cache = AnswerCache(capacity=8)
        stop = threading.Event()
        torn = []

        def mutate():
            i = 0
            while not stop.is_set():
                cache.put(i % 16, i)
                cache.get((i + 3) % 16)
                i += 1

        def observe():
            for _ in range(2000):
                snap = cache.stats()
                if snap["hits"] + snap["misses"] != snap["lookups"]:
                    torn.append(snap)
                    break
                if not 0.0 <= cache.hit_rate <= 1.0:  # pragma: no cover
                    torn.append("hit_rate")
                    break

        workers = [threading.Thread(target=mutate) for _ in range(3)]
        watcher = threading.Thread(target=observe)
        for thread in workers:
            thread.start()
        watcher.start()
        watcher.join(timeout=60.0)
        stop.set()
        for thread in workers:
            thread.join(timeout=60.0)
        assert not torn
        cache.assert_consistent()

    def test_prepare_reuse_counter(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        prepared = PreparedQuery(workload.query, db)
        first = prepared.run(("a",), db=db)
        second = prepared.run(("x1",), db=db)
        assert first.stats.prepare_reuse == 0
        assert second.stats.prepare_reuse == 1
        assert second.extras["prepared"] is True


# -- counting-table memoization ----------------------------------------

class TestCountingTableStore:
    def test_warm_repeat_skips_phase_one(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        store = CountingTableStore()
        prepared = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        first = prepared.run(db=db)
        second = prepared.run(db=db)
        assert first.extras["counting_table_reused"] is False
        assert second.extras["counting_table_reused"] is True
        assert second.answers == first.answers
        assert store.hits == 1

    def test_mutation_invalidates_stored_table(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        store = CountingTableStore()
        prepared = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        prepared.run(db=db)
        db.add_fact("up", "x9", "x_extra")
        result = prepared.run(db=db)
        assert result.extras["counting_table_reused"] is False
        assert store.invalidations == 1
        cold = run_strategy("pointer_counting", prepared.bind(), db)
        assert result.answers == cold.answers

    def test_store_shared_across_prepared_instances(self):
        workload = WORKLOADS["sg_chain"]
        db = make_chain()
        store = CountingTableStore()
        first = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        first.run(db=db)
        second = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        result = second.run(db=db)
        assert result.extras["counting_table_reused"] is True

    def test_parallel_phase_one_looks_up_once_per_run(self):
        # Shipping phase 1 to workers must not add a store probe of its
        # own: the engine's lookup is the only one.
        workload = WORKLOADS["sg_tree"]
        db, _source = workload.make_db(fanout=2, depth=4)
        store = CountingTableStore()
        prepared = PreparedQuery(
            workload.query, db, method="pointer_counting",
            counting_store=store,
        )
        runs = [prepared.run(db=db, workers=2) for _ in range(3)]
        assert store.lookups == len(runs)
        assert (store.hits, store.misses) == (2, 1)
        assert runs[0].extras["parallel_phase1_workers"] == 2
        assert "parallel_phase1_workers" not in runs[1].extras
        assert runs[1].extras["counting_table_reused"] is True

    def test_store_stats_snapshot(self):
        store = CountingTableStore(capacity=1)
        epochs = (("up", 2, 1),)
        store.put("n1", epochs, "table-one")
        assert store.get("n1", epochs) == "table-one"
        assert store.get("n1", (("up", 2, 9),)) is None  # stale
        store.put("n2", epochs, "table-two")
        snap = store.stats()
        assert snap == {
            "size": 1, "capacity": 1, "lookups": 2, "hits": 1,
            "misses": 1, "evictions": 0, "invalidations": 1,
            "hit_rate": 0.5,
        }
        assert store.hit_rate == 0.5
        assert "1 hits" in repr(store)
        store.assert_consistent()


# -- batches and the forest workload -----------------------------------

class TestRunBatch:
    def test_results_follow_binding_order(self):
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        bindings = forest_bindings(trees=3, queries=9)
        prepared = PreparedQuery(
            WORKLOADS["sg_forest"].query, db, cache=AnswerCache(),
        )
        results = prepared.run_batch(bindings, db=db)
        assert len(results) == len(bindings)
        for binding, result in zip(bindings, results):
            cold = run_strategy(
                prepared.method, prepared.bind(binding), db
            )
            assert result.answers == cold.answers

    def test_batch_is_deterministic(self):
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        bindings = forest_bindings(trees=3, queries=6)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        first = [
            r.answers for r in prepared.run_batch(bindings, db=db)
        ]
        second = [
            r.answers for r in prepared.run_batch(bindings, db=db)
        ]
        assert first == second

    def test_forest_roots_are_disjoint(self):
        db, _source = sg_forest(trees=3, fanout=2, depth=3)
        prepared = PreparedQuery(WORKLOADS["sg_forest"].query, db)
        answer_sets = [
            prepared.run((forest_root(i),), db=db).answers
            for i in range(3)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (answer_sets[i] & answer_sets[j])
            assert answer_sets[i]

    def test_binding_arity_checked(self):
        db = make_chain()
        prepared = PreparedQuery(WORKLOADS["sg_chain"].query, db)
        with pytest.raises(ValueError):
            prepared.run(("a", "b"), db=db)
        with pytest.raises(TypeError):
            prepared.run(("a",))  # no database


# -- CLI ---------------------------------------------------------------

class TestCli:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "sg.dl"
        path.write_text("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        return str(path)

    @pytest.fixture
    def db_file(self, tmp_path):
        path = tmp_path / "facts.dl"
        path.write_text("""
            up(a, b). up(b, c).
            flat(c, c1). flat(b, b1).
            down(c1, d1). down(d1, e1). down(b1, f1).
        """)
        return str(path)

    def run_cli(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_cache_flag(self, program_file, db_file):
        code, text = self.run_cli(
            "run", program_file, "--db", db_file, "--cache"
        )
        assert code == 0
        assert "(prepared)" in text
        assert "cache  :" in text

    def test_batch_flag_marks_repeats(self, program_file, db_file):
        code, text = self.run_cli(
            "run", program_file, "--db", db_file, "--cache",
            "--batch", "a,b,a",
        )
        assert code == 0
        assert text.count("(cached)") == 1
        assert "1 hits, 2 misses" in text

    def test_cache_conflicts_with_resilient(self, program_file, db_file):
        code, text = self.run_cli(
            "run", program_file, "--db", db_file, "--cache",
            "--resilient",
        )
        assert code == 1
        assert "cannot be combined" in text
