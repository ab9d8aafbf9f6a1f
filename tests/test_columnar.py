"""The storage layer's columnar id mirror, and the oracle matrix.

Every strategy must produce the rendered answers of the independent
tuple-at-a-time oracle (``tests/oracle.py``) on every workload it
applies to — the e1–e10 experiment shapes plus the S1
(``sg_cylinder``) and S3 (``sg_forest``) workloads.  The rest of the
suite covers the storage primitives those answers rest on: the
:class:`ColumnStore` id mirror, the lossless decode contract, and
``pinned()`` prefix snapshots under concurrent writers.
"""

import functools
import threading

import pytest

from repro.data.workloads import WORKLOADS
from repro.engine.columnar import ColumnStore
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.exec.strategies import run_strategy
from tests import oracle

#: Every (workload, strategy) cell of the paper matrix.  This spans the
#: program shapes of experiments e1–e10 (trees, chains, multi-rule,
#: shared variables, cyclic data, mixed/right/left-linear) plus the S1
#: cylinder and S3 forest workloads.
MATRIX = [
    (wname, sname)
    for wname, workload in sorted(WORKLOADS.items())
    for sname in workload.applicable
]


@functools.lru_cache(maxsize=None)
def _oracle_rendered(wname):
    workload = WORKLOADS[wname]
    db, _source = workload.make_db()
    return oracle.render(oracle.query_answers(workload.query, db))


class TestDifferentialBackends:
    """Each strategy's engine against the oracle evaluator."""

    @pytest.mark.parametrize("wname,sname", MATRIX)
    def test_backends_agree(self, wname, sname):
        workload = WORKLOADS[wname]
        db, _source = workload.make_db()
        result = run_strategy(sname, workload.query, db)
        assert oracle.render(result.answers) == _oracle_rendered(wname)


class TestColumnStore:
    def test_append_row_roundtrip(self):
        store = ColumnStore(3)
        store.append((1, 2, 3))
        store.append((4, 5, 6))
        assert len(store) == 2
        assert store.row(0) == (1, 2, 3)
        assert store.row(1) == (4, 5, 6)
        assert list(store.column(1)) == [2, 5]

    def test_zero_arity(self):
        store = ColumnStore(0)
        assert len(store) == 0
        with pytest.raises(ValueError):
            ColumnStore(-1)

    def test_matching_scans_bound_columns(self):
        store = ColumnStore(2)
        for row in ((1, 10), (2, 20), (1, 30), (1, 10)):
            store.append(row)
        assert store.matching((0,), (1,)) == [0, 2, 3]
        assert store.matching((0, 1), (1, 10)) == [0, 3]
        assert store.matching((1,), (99,)) == []
        # No bound positions: every ordinal, in insertion order.
        assert store.matching((), ()) == [0, 1, 2, 3]

    def test_prefix_is_a_copy(self):
        store = ColumnStore(2)
        store.append((1, 2))
        store.append((3, 4))
        prefix = store.prefix(1)
        assert len(prefix) == 1
        assert prefix.row(0) == (1, 2)
        store.append((5, 6))
        assert len(prefix) == 1
        with pytest.raises(ValueError):
            store.prefix(7)

    def test_bytes_roundtrip(self):
        store = ColumnStore(2)
        store.append((1, -2))
        store.append((2 ** 40, 7))
        data = store.to_bytes()
        assert ColumnStore.from_bytes(data) == store
        # 16-byte header + arity * rows machine words.
        assert len(data) == 16 + 2 * 2 * 8

    def test_bytes_rejects_corruption(self):
        store = ColumnStore(1)
        store.append((42,))
        data = store.to_bytes()
        with pytest.raises(ValueError):
            ColumnStore.from_bytes(data[:-1])
        with pytest.raises(ValueError):
            ColumnStore.from_bytes(b"\xff" * 16)


class TestDecodeContract:
    def test_decode_ordinal_matches_insertion_log(self):
        db = Database()
        rel = db.relation("edge", 2)
        rows = [("n%d" % i, "n%d" % (i + 1)) for i in range(50)]
        rel.add_all(rows)
        for ordinal, row in enumerate(rows):
            assert rel.decode_ordinal(ordinal) == row
        assert rel.column_bytes() == rel._ids.to_bytes()

    def test_row_backend_has_no_columns(self):
        # A relation built without an intern pool keeps row storage.
        rel = Relation("edge", 2)
        rel.add(("a", "b"))
        for probe in (
            lambda: rel.id_column(0),
            lambda: rel.id_row(0),
            lambda: rel.scan_ids((0,), ("a",)),
            lambda: rel.column_bytes(),
        ):
            with pytest.raises(TypeError):
                probe()

    def test_scan_ids_matches_lookup(self):
        db = Database()
        rel = db.relation("edge", 2)
        rel.add_all([("a", "b"), ("c", "b"), ("a", "d")])
        ordinals = rel.scan_ids((0,), ("a",))
        decoded = {rel.decode_ordinal(o) for o in ordinals}
        assert decoded == set(rel.lookup((0,), "a"))
        # A constant the pool never interned cannot match anything.
        assert rel.scan_ids((0,), ("zzz",)) == []


class TestPinnedUnderConcurrentWriters:
    """``pinned()`` must serve a frozen prefix while writers append."""

    ROWS = 400

    def _hammer(self, columnar):
        if columnar:
            rel = Database().relation("edge", 2)
        else:
            rel = Relation("edge", 2)
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            while not stop.is_set():
                rel.add(("w%d" % i, "w%d" % (i + 1)))
                i += 1
                if i >= self.ROWS:
                    break

        def reader():
            while not stop.is_set():
                epoch = rel.epoch
                pinned = rel.pinned(epoch)
                try:
                    assert len(pinned) == epoch
                    assert pinned.epoch == epoch
                    assert set(pinned._log) == pinned.tuples
                    if pinned.columnar:
                        for ordinal in (0, epoch // 2, epoch - 1):
                            if 0 <= ordinal < epoch:
                                assert (
                                    pinned.decode_ordinal(ordinal)
                                    == pinned._log[ordinal]
                                )
                except AssertionError as exc:  # pragma: no cover
                    failures.append(exc)
                    stop.set()
                if epoch >= self.ROWS:
                    break

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        assert not failures
        return rel

    def test_columnar_pinned_is_consistent_prefix(self):
        rel = self._hammer(True)
        assert rel.columnar

    def test_row_pinned_is_consistent_prefix(self):
        rel = self._hammer(False)
        assert not rel.columnar

    def test_pinned_views_agree_across_backends(self):
        # A pool relation (id columns) and a pool-less one (rows only)
        # pin identical row prefixes.
        rows = [("p%d" % i, "p%d" % (i + 1)) for i in range(64)]
        columnar = Database().relation("edge", 2)
        plain = Relation("edge", 2)
        for rel in (columnar, plain):
            rel.add_all(rows)
        views = {True: columnar.pinned(32), False: plain.pinned(32)}
        assert views[False].tuples == views[True].tuples
        assert views[False]._log == views[True]._log
        assert views[True]._ids is not None
        assert len(views[True]._ids) == 32

    def test_snapshot_equivalence_across_backends(self):
        # A database snapshot exposes the same frozen rows as a
        # pool-less relation pinned at the same epoch.
        db = Database()
        rel = db.relation("edge", 2)
        plain = Relation("edge", 2)
        for target in (rel, plain):
            target.add_all([("a", "b"), ("b", "c")])
        snap = db.snapshot()
        pinned = plain.pinned(plain.epoch)
        rel.add(("c", "d"))
        plain.add(("c", "d"))
        assert set(snap.get(("edge", 2))) == set(pinned) == {
            ("a", "b"), ("b", "c"),
        }


class TestStorageInfo:
    def test_database_storage_info(self):
        db = Database()
        db.add_fact("edge", "a", "b")
        info = db.storage_info()
        assert info["backend"] == "columnar"
        assert info["relations"]["edge/2"]["backend"] == "columnar"
        assert info["column_bytes"] > 0

    def test_relation_without_pool_stays_rows(self):
        # Bare relations (no intern pool) cannot encode ids.
        rel = Relation("scratch", 2)
        rel.add(("a", "b"))
        assert not rel.columnar
        assert rel.storage_info()["backend"] == "rows"
