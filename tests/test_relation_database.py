"""Relation storage, indexing and database tests."""

import pytest

from repro.engine.relation import WILDCARD, EmptyRelation, Relation
from repro.engine.database import Database


class TestRelation:
    def test_add_and_len(self):
        rel = Relation("p", 2)
        assert rel.add(("a", "b"))
        assert not rel.add(("a", "b"))
        assert len(rel) == 1

    def test_arity_checked(self):
        rel = Relation("p", 2)
        with pytest.raises(ValueError):
            rel.add(("a",))

    def test_match_all(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        pattern = (WILDCARD, WILDCARD)
        assert sorted(rel.match(pattern)) == [("a", "b"), ("a", "c")]

    def test_match_bound_first(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        rel.add(("x", "y"))
        assert list(rel.match(("a", WILDCARD))) == [("a", "b")]

    def test_match_fully_bound(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        assert list(rel.match(("a", "b"))) == [("a", "b")]
        assert list(rel.match(("a", "z"))) == []

    def test_index_updated_after_add(self):
        rel = Relation("p", 2)
        rel.add(("a", "b"))
        # Force index creation, then add more rows.
        list(rel.match(("a", WILDCARD)))
        rel.add(("a", "c"))
        assert sorted(rel.match(("a", WILDCARD))) == [("a", "b"), ("a", "c")]

    def test_match_pattern_arity_checked(self):
        rel = Relation("p", 2)
        with pytest.raises(ValueError):
            list(rel.match(("a",)))

    def test_none_is_a_value_not_wildcard(self):
        rel = Relation("p", 1)
        rel.add((None,))
        rel.add(("a",))
        assert list(rel.match((None,))) == [(None,)]

    def test_copy_is_independent(self):
        rel = Relation("p", 1)
        rel.add(("a",))
        clone = rel.copy()
        clone.add(("b",))
        assert len(rel) == 1
        assert len(clone) == 2

    def test_add_all_reports_new(self):
        rel = Relation("p", 1)
        rel.add(("a",))
        added = rel.add_all([("a",), ("b",)])
        assert added == [("b",)]

    def test_contains(self):
        rel = Relation("p", 1)
        rel.add(("a",))
        assert ("a",) in rel
        assert ("b",) not in rel

    def test_structured_values(self):
        rel = Relation("c", 2)
        rel.add(("a", (("r1", (1,)),)))
        assert list(rel.match(("a", WILDCARD)))

    def test_unindexed_scan_mode(self):
        rel = Relation("p", 2, use_indexes=False)
        rel.add(("a", "b"))
        rel.add(("a", "c"))
        rel.add(("z", "w"))
        assert sorted(rel.match(("a", WILDCARD))) == [("a", "b"),
                                                      ("a", "c")]
        assert list(rel.match(("a", "c"))) == [("a", "c")]
        assert rel._indexes == {}
        clone = rel.copy()
        assert not clone.use_indexes

    def test_extend_new_equals_adds(self):
        # Bulk insertion of rows known to be new, into an unindexed
        # pool-less relation (a semi-naive delta), leaves it in the
        # state the same adds would; indexes built afterwards see it.
        first = [("a", "b"), ("a", "c")]
        rest = [("b", "c"), ("a", "d"), ("c", "c")]
        one, bulk = Relation("p", 2), Relation("p", 2)
        for row in first:
            one.add(row)
        bulk.extend_new(first)
        for row in rest:
            one.add(row)
        bulk.extend_new(rest)
        assert bulk.tuples == one.tuples
        assert bulk._log == one._log
        assert bulk.epoch == one.epoch == 5
        assert sorted(bulk.lookup((0,), "a")) == [("a", "b"), ("a", "c"),
                                                   ("a", "d")]
        assert sorted(bulk.pinned(2)) == first


class TestEmptyRelation:
    def test_behaves_empty(self):
        rel = EmptyRelation("p", 2)
        assert len(rel) == 0
        assert list(rel.match((WILDCARD, WILDCARD))) == []
        assert ("a", "b") not in rel


class TestDatabase:
    def test_add_fact(self):
        db = Database()
        db.add_fact("up", "a", "b")
        assert ("a", "b") in db.relation("up", 2)

    def test_from_facts(self):
        db = Database.from_facts([("up", ("a", "b")), ("up", ("b", "c"))])
        assert len(db.relation("up", 2)) == 2

    def test_from_text(self):
        db = Database.from_text("up(a, b). flat(c, 1).")
        assert ("c", 1) in db.relation("flat", 2)

    def test_from_text_rejects_rules(self):
        with pytest.raises(ValueError):
            Database.from_text("p(X) :- q(X).")

    def test_get_missing_is_empty(self):
        db = Database()
        assert len(db.get(("nope", 3))) == 0

    def test_same_name_different_arity(self):
        db = Database()
        db.add_fact("p", "a")
        db.add_fact("p", "a", "b")
        assert len(db.relation("p", 1)) == 1
        assert len(db.relation("p", 2)) == 1

    def test_constants(self):
        db = Database.from_text("up(a, b). down(b, 3).")
        assert db.constants() == {"a", "b", 3}
        assert db.constants([("up", 2)]) == {"a", "b"}

    def test_total_facts(self):
        db = Database.from_text("up(a, b). up(b, c). flat(a, a).")
        assert db.total_facts() == 3

    def test_copy_independent(self):
        db = Database.from_text("up(a, b).")
        clone = db.copy()
        clone.add_fact("up", "b", "c")
        assert db.total_facts() == 1
        assert clone.total_facts() == 2
