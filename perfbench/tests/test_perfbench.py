"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, fingerprint  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _answers(workload, ops):
    """Fingerprints of ``ops`` run one at a time, outside any window."""
    prints = []
    for op in ops:
        if workload.name != "served_rw":
            prints.append(fingerprint(workload.execute(op).answers))
        elif op[0] == "write":
            workload.write(op)
        else:
            result = workload.service.run((op[2],), form=op[1])
            prints.append(fingerprint(result.answers))
    return prints


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_ops_and_answers(name, tmp_path):
    cls = WORKLOADS[name]
    runs = []
    for _ in range(2):
        workload = cls(7, tiny=True, workdir=str(tmp_path))
        workload.build()
        try:
            ops = workload.ops.prefix(30)
            runs.append((ops, _answers(workload, ops)))
        finally:
            workload.teardown()
    assert runs[0] == runs[1]
    other = cls(8, tiny=True, workdir=str(tmp_path)).ops.prefix(30)
    assert other != runs[0][0]


def test_self_times_subtract_children():
    spans = [
        (1, "a", 0.0, 10.0, None, None),
        (2, "b", 1.0, 4.0, 1, None),
        (3, "c", 5.0, 6.0, 1, None),
        (4, "b", 2.0, 3.0, 2, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    sums = tracing.totals(spans)
    # The nested "b" adds a call but no time its ancestor already has.
    assert sums["b"] == (2, 3.0, 3.0)


@pytest.mark.parametrize("name", ["counting_stream", "adhoc_fixpoint"])
def test_traced_spans_nest_and_self_time_fits_wall(name, tmp_path):
    workload = WORKLOADS[name](3, tiny=True, workdir=str(tmp_path))
    workload.build()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        rec = workload.recorder()
        workload.window(0.5, rec)
    finally:
        tracer.uninstall()
        workload.teardown()
    spans = tracer.spans
    assert spans, "no spans recorded"
    by_id = {span[0]: span for span in spans}
    for span in spans:
        if span[4] is not None:
            parent = by_id[span[4]]
            assert parent[2] <= span[2] <= span[3] <= parent[3]
    selfs = tracing.self_times(spans)
    inside = [selfs[s[0]] for s in spans if rec.start <= s[2] <= rec.end]
    assert 0 <= sum(inside) <= rec.seconds
    assert all(value >= 0 for value in selfs.values())


def test_uninstall_restores_originals():
    from repro.engine.database import Database
    from repro.rewriting import pipeline

    original_optimize = pipeline.optimize
    original_snapshot = Database.__dict__["snapshot"]
    tracer = tracing.Tracer()
    layers.install(tracer)
    assert pipeline.optimize is not original_optimize
    tracer.uninstall()
    assert pipeline.optimize is original_optimize
    assert Database.__dict__["snapshot"] is original_snapshot


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", name, "--seed", "5",
         "--seconds", "5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    block = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in block}
    for metric in block:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    text = "\n".join(lines[:-1])
    for metric, unit, only in run.END_TO_END:
        assert metric in text
        if only in (None, name):
            line = [l for l in lines if l.strip().startswith(metric + " ")]
            assert line and (unit in line[0] or "omitted" in line[0])


#: Faults injected into a tiny ``served_rw`` run, each of which the
#: run must catch.
FAULTS = {
    # The first read of a written chain's head answers as if the write
    # had not landed (a stale snapshot).
    "stale_answer": """
from repro.exec.strategies import ExecutionResult
record = workloads.Recorder.query
stale = []

def query(self, index, op, latency, result, context=None):
    if op[2].startswith("w") and result.answers and not stale:
        stale.append(op)
        result = ExecutionResult(result.method, (), result.stats,
                                 result.extras)
    record(self, index, op, latency, result, context)

workloads.Recorder.query = query
""",
    # One batch is acknowledged but never logged or applied.
    "lost_write": """
from repro.durability.durable import DurableDatabase
add_facts = DurableDatabase.add_facts

def dropping(self, facts):
    add_facts(self, [fact for fact in facts if fact[1][0] != "w3a"])

DurableDatabase.add_facts = dropping
""",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_the_run(fault, tmp_path):
    script = tmp_path / "faulty_run.py"
    script.write_text(
        "import sys\n"
        "sys.path[:0] = [%r, %r]\n"
        "from perfbench import run, workloads\n"
        "%s\n"
        "sys.exit(run.main())\n"
        % (os.path.join(ROOT, "src"), ROOT, FAULTS[fault]))
    done = subprocess.run(
        [sys.executable, str(script), "--workload", "served_rw", "--seed",
         "5", "--seconds", "3", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED="1"))
    assert done.returncode != 0, done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "counting_stream", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
