"""Epoch-pinned snapshots: read views that never move.

The serving layer evaluates every request against a
``Database.snapshot()`` generation.  The contract under test: a reader
pinned to epoch E observes exactly the first E insertions of each
relation — never a row added after the pin, never a half-applied
``add_facts`` batch — even while writer threads mutate the source
concurrently.
"""

import threading

import pytest

from repro import Database, DatabaseSnapshot, evaluate_query, parse_query
from repro.engine.relation import Relation, WILDCARD


class TestRelationPinned:
    def test_pinned_prefix_matches_insertion_order(self):
        rel = Relation("r", 1)
        for index in range(5):
            rel.add((index,))
        view = rel.pinned(3)
        assert set(view) == {(0,), (1,), (2,)}
        assert view.epoch == 3
        assert len(view) == 3

    def test_pinned_ignores_later_adds(self):
        rel = Relation("r", 1)
        rel.add((1,))
        view = rel.pinned(rel.epoch)
        rel.add((2,))
        assert set(view) == {(1,)}
        assert (2,) not in view

    def test_pinned_bounds_checked(self):
        rel = Relation("r", 1)
        rel.add((1,))
        with pytest.raises(ValueError):
            rel.pinned(2)
        with pytest.raises(ValueError):
            rel.pinned(-1)

    def test_duplicate_adds_do_not_bump_epoch_or_log(self):
        rel = Relation("r", 1)
        rel.add((1,))
        rel.add((1,))
        assert rel.epoch == 1
        assert set(rel.pinned(1)) == {(1,)}

    def test_pinned_lookup_and_match_work(self):
        rel = Relation("r", 2)
        rel.add(("a", 1))
        rel.add(("a", 2))
        view = rel.pinned(1)
        assert list(view.lookup((0,), "a")) == [("a", 1)]
        assert set(view.match(("a", WILDCARD))) == {("a", 1)}


class TestDatabaseSnapshot:
    def test_snapshot_is_frozen_view(self):
        db = Database.from_text("up(a, b). flat(b, c).")
        snap = db.snapshot()
        db.add_fact("up", "b", "c")
        db.add_fact("down", "x", "y")
        assert set(snap.get(("up", 2))) == {("a", "b")}
        assert len(snap.get(("down", 2))) == 0
        assert set(db.get(("up", 2))) == {("a", "b"), ("b", "c")}

    def test_snapshot_is_read_only(self):
        snap = Database.from_text("up(a, b).").snapshot()
        with pytest.raises(TypeError):
            snap.add_fact("up", "x", "y")
        with pytest.raises(TypeError):
            snap.add_facts([("up", ("x", "y"))])

    def test_snapshot_of_snapshot_is_itself(self):
        snap = Database.from_text("up(a, b).").snapshot()
        assert snap.snapshot() is snap
        assert isinstance(snap, DatabaseSnapshot)
        assert isinstance(snap, Database)

    def test_relation_access_never_creates(self):
        snap = Database.from_text("up(a, b).").snapshot()
        missing = snap.relation("ghost", 2)
        assert len(missing) == 0
        assert ("ghost", 2) not in snap.keys()

    def test_snapshot_epochs_are_pinned(self):
        db = Database.from_text("up(a, b).")
        snap = db.snapshot()
        before = snap.epochs((("up", 2),))
        db.add_fact("up", "b", "c")
        assert snap.epochs((("up", 2),)) == before
        assert db.epochs((("up", 2),)) != before

    def test_snapshot_copy_is_mutable_and_detached(self):
        db = Database.from_text("up(a, b).")
        snap = db.snapshot()
        clone = snap.copy()
        clone.add_fact("up", "b", "c")
        assert set(clone.get(("up", 2))) == {("a", "b"), ("b", "c")}
        assert set(snap.get(("up", 2))) == {("a", "b")}

    def test_evaluate_against_snapshot(self):
        query = parse_query("""
            sg(X, Y) :- flat(X, Y).
            sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
            ?- sg(a, Y).
        """)
        db = Database.from_text("""
            up(a, b). flat(b, c). down(c, d).
        """)
        snap = db.snapshot()
        before = evaluate_query(query, snap).answers
        db.add_fact("flat", "a", "direct")
        after_live = evaluate_query(query, db).answers
        after_snap = evaluate_query(query, snap).answers
        assert after_snap == before
        assert ("direct",) in after_live
        assert ("direct",) not in after_snap


class TestRefreshed:
    """``refreshed()`` re-pins only what moved since the snapshot."""

    def make_db(self):
        return Database.from_text("""
            up(a, b). up(b, c). link(a, b).
        """)

    def test_quiet_database_returns_same_snapshot(self):
        snap = self.make_db().snapshot()
        assert snap.refreshed() is snap

    def test_unchanged_view_is_shared_across_a_write(self):
        db = self.make_db()
        old = db.snapshot()
        up_view = old.get(("up", 2))
        # Materialize the view's rows and an index; both must carry over.
        assert list(up_view.lookup((0,), "a")) == [("a", "b")]
        db.add_fact("link", "b", "c")
        new = old.refreshed()
        assert new is not old
        assert new.get(("up", 2)) is up_view
        assert new.get(("link", 2)) is not old.get(("link", 2))
        assert set(new.get(("link", 2))) == {("a", "b"), ("b", "c")}
        assert new.epochs([("link", 2)]) == db.epochs([("link", 2)])

    def test_old_generation_does_not_see_new_rows(self):
        db = self.make_db()
        old = db.snapshot()
        db.add_fact("link", "b", "c")
        db.add_fact("fresh", "x")
        new = old.refreshed()
        assert set(old.get(("link", 2))) == {("a", "b")}
        assert ("fresh", 1) not in old
        assert set(new.get(("fresh", 1))) == {("x",)}
        assert new.refreshed() is new


class TestConcurrentPinning:
    """Property: a reader pinned to epoch E never sees row E+1."""

    WRITERS = 4
    ROWS_PER_WRITER = 300

    def test_reader_never_sees_rows_past_pin(self):
        db = Database()
        db.add_fact("r", 0, 0)
        stop = threading.Event()
        errors = []

        def writer(writer_id):
            for index in range(1, self.ROWS_PER_WRITER + 1):
                db.add_fact("r", writer_id, index)

        def reader():
            try:
                while not stop.is_set():
                    snap = db.snapshot()
                    rel = snap.get(("r", 2))
                    pinned_epoch = rel.epoch
                    first = set(rel)
                    # Re-reads of the same pinned view are frozen ...
                    assert set(rel) == first
                    assert len(first) == pinned_epoch
                    # ... while the live relation only ever grows.
                    assert len(db.get(("r", 2))) >= pinned_epoch
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [
            threading.Thread(target=writer, args=(writer_id,))
            for writer_id in range(self.WRITERS)
        ]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []
        assert len(db.get(("r", 2))) == (
            self.WRITERS * self.ROWS_PER_WRITER + 1
        )

    def test_add_facts_batches_are_atomic_under_snapshots(self):
        """A snapshot sees whole ``add_facts`` batches or nothing."""
        db = Database()
        batch_size = 7
        batches = 120
        stop = threading.Event()
        errors = []

        def writer():
            for batch_id in range(batches):
                db.add_facts(
                    ("r", (batch_id, item))
                    for item in range(batch_size)
                )

        def reader():
            try:
                while not stop.is_set():
                    snap = db.snapshot()
                    count = len(snap.get(("r", 2)))
                    assert count % batch_size == 0, (
                        "snapshot saw a torn batch: %d rows" % count
                    )
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        reader_threads = [
            threading.Thread(target=reader) for _ in range(3)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in reader_threads:
            thread.start()
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for thread in reader_threads:
            thread.join()
        assert errors == []
        assert len(db.get(("r", 2))) == batch_size * batches

    def test_interning_identity_stable_across_threads(self):
        """Interned constants keep one identity under concurrent adds."""
        db = Database()
        names = ["c%d" % index for index in range(50)]

        def writer(offset):
            for index, name in enumerate(names):
                db.add_fact("r", name, offset * 1000 + index)

        threads = [
            threading.Thread(target=writer, args=(offset,))
            for offset in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pool = db.intern_pool
        for name in names:
            assert pool.ident(name) == pool.ident(name)
        idents = [pool.ident(name) for name in names]
        assert len(set(idents)) == len(names)
