"""Golden counters of the counting family.

Every :data:`repro.data.WORKLOADS` cell is run cold under
``pointer_counting``, ``cyclic_counting`` and ``magic_counting`` (plus
a few larger instances, Bushy-Depth-First answer-phase cells and one
prepared cell whose phase 1 runs on two worker processes).  Each cell
records a digest of its answers, ``stats.as_dict()``, the extras, and
digests of ``table.render()`` and of every answer's ``answer_path`` —
or the typed error and its message.  The counting engines must
reproduce ``tests/golden/counting_counters.json`` exactly: a change to
any counter, counting-table id, in-triple order or unwinding parent is
a behaviour change, not a refactoring.

The payload is computed in a child process under ``PYTHONHASHSEED=0``,
the seed the file was written under.  Two parts of it still depend on
the hash seed (see ``tests/test_counting_seeds.py`` for the parts that
do not): the unwinding parents, because a relation's hash-index
buckets list rows in set-iteration order and the first derivation of a
state wins, and the counters of ``magic_counting`` cells whose
recurring part runs through the semi-naive magic fixpoint.

Regenerate (only after an *intentional* change, then review the diff)::

    PYTHONPATH=src python tests/test_counting_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "counting_counters.json")

#: ``PYTHONHASHSEED`` the golden file is written and checked under.
GOLDEN_SEED = 0

METHODS = ("pointer_counting", "cyclic_counting", "magic_counting")

#: Larger instances on top of every workload's default database.
LARGER = (
    ("sg_tree", {"fanout": 3, "depth": 5}),
    ("sg_tree", {"fanout": 2, "depth": 8}),
    ("sg_cyclic", {"cycle_length": 6, "down_length": 30}),
    ("sg_cylinder", {"width": 6, "height": 10}),
    ("multi_rule", {"depth": 32}),
    ("shared_vars", {"depth": 24}),
    ("mixed_linear", {"up_depth": 12, "down_depth": 12}),
    ("mutual", {"depth": 20}),
)


def _digest(value):
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()[:16]


def _answers_digest(answers):
    return _digest(sorted(answers, key=repr))


class _Capture:
    """Records every counting engine whose ``run`` is called."""

    def __init__(self):
        from repro.exec.counting_engine import CountingEngine
        from repro.exec.magic_counting import MagicCountingEngine

        self.classes = (CountingEngine, MagicCountingEngine)
        self.engines = []
        self._saved = []

    def __enter__(self):
        for cls in self.classes:
            original = cls.run

            def run(engine, _original=original):
                self.engines.append(engine)
                return _original(engine)

            self._saved.append((cls, original))
            cls.run = run
        return self

    def __exit__(self, *exc):
        for cls, original in self._saved:
            cls.run = original
        return False


def _engine_payload(engine, answers):
    table = getattr(engine, "table", None)
    payload = {
        "table": None if table is None else _digest(table.render()),
        "paths": None,
    }
    if hasattr(engine, "answer_path"):
        payload["paths"] = _digest([
            engine.answer_path(values)
            for values in sorted(answers, key=repr)
        ])
    return payload


def _outcome(run):
    from repro.errors import ReproError

    with _Capture() as capture:
        try:
            result = run()
        except ReproError as exc:
            return {"error": [type(exc).__name__, str(exc)]}
    payload = {
        "answers": _answers_digest(result.answers),
        "stats": result.stats.as_dict(),
        "extras": {key: result.extras[key] for key in sorted(result.extras)},
    }
    if capture.engines:
        payload.update(_engine_payload(capture.engines[-1], result.answers))
    return payload


def _dfs_outcome(query, db):
    """The Bushy-Depth-First answer phase over the cyclic evaluator's
    prepared clique."""
    from repro.engine.instrumentation import EvalStats
    from repro.errors import ReproError
    from repro.exec.counting_engine import CountingEngine
    from repro.exec.strategies import STRATEGIES, support_resolver

    stats = EvalStats()
    try:
        form = STRATEGIES["cyclic_counting"].prepare(query)
        engine = CountingEngine(
            form.canonical, form.goal_key, form.source,
            support_resolver(form.support_rules, db, stats),
            stats=stats, answer_order="dfs",
        )
        answers = engine.run()
    except ReproError as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    payload = {
        "answers": _answers_digest(answers),
        "stats": stats.as_dict(),
        "extras": {"answer_states": engine.state_count,
                   "counting_rows": len(engine.table),
                   "counting_triples": engine.table.triple_count,
                   "max_frontier": engine.max_frontier},
    }
    payload.update(_engine_payload(engine, answers))
    return payload


def _cell_name(workload, params, method):
    text = ",".join("%s=%s" % item for item in sorted(params.items()))
    return "%s[%s]/%s" % (workload, text, method)


def golden_payload():
    """``{cell: payload}`` for every golden cell, in a fixed order."""
    from repro.data.workloads import WORKLOADS
    from repro.exec import PreparedQuery, run_strategy

    cells = [(name, {}) for name in sorted(WORKLOADS)] + list(LARGER)
    payload = {}
    for name, params in cells:
        workload = WORKLOADS[name]
        for method in METHODS:
            db, _source = workload.make_db(**params)
            payload[_cell_name(name, params, method)] = _outcome(
                lambda: run_strategy(method, workload.query, db)
            )
        db, _source = workload.make_db(**params)
        payload[_cell_name(name, params, "dfs")] = _dfs_outcome(
            workload.query, db
        )
    workload = WORKLOADS["sg_tree"]
    params = {"fanout": 3, "depth": 5}
    db, _source = workload.make_db(**params)
    prepared = PreparedQuery(workload.query, db, method="pointer_counting")
    payload[_cell_name("sg_tree", params, "pointer_counting@workers=2")] = \
        _outcome(lambda: prepared.run(db=db, workers=2))
    return payload


def payload_at_seed(seed):
    """:func:`golden_payload` computed in a child process under
    ``PYTHONHASHSEED=seed``, as it reads back from JSON."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--print"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current():
    return payload_at_seed(GOLDEN_SEED)


def test_golden_cells_unchanged(current):
    golden = load_golden()
    assert sorted(current) == sorted(golden)
    changed = [cell for cell in sorted(golden)
               if current[cell] != golden[cell]]
    assert not changed, "cells differ from the golden file: %s" % changed


def test_golden_covers_every_counting_cell():
    from repro.data.workloads import WORKLOADS

    golden = load_golden()
    for name in WORKLOADS:
        for method in METHODS:
            assert _cell_name(name, {}, method) in golden
    ran = [cell for cell, value in golden.items() if "error" not in value]
    assert len(ran) > len(golden) // 2


def test_parallel_phase_one_matches_serial(current):
    # The two-worker phase 1 must build exactly the serial table.
    parallel = current[_cell_name("sg_tree", {"fanout": 3, "depth": 5},
                                  "pointer_counting@workers=2")]
    serial = current[_cell_name("sg_tree", {"fanout": 3, "depth": 5},
                                "pointer_counting")]
    extras = parallel["extras"]
    assert extras.pop("parallel_phase1_workers") == 2
    # Markers of the prepared path itself, not of its phase 1.
    assert (extras.pop("prepared"), extras.pop("cache_hit")) == (True, False)
    for key in ("answers", "stats", "extras", "table", "paths"):
        assert parallel[key] == serial[key]


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        json.dump(golden_payload(), sys.stdout, sort_keys=True)
    else:
        with open(GOLDEN, "w") as handle:
            json.dump(payload_at_seed(GOLDEN_SEED), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print("wrote", GOLDEN, file=sys.stderr)
