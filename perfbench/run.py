"""The repository benchmark: one command, four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload counting_stream --seed 1 \\
        --seconds 30 --trace 0

``--workload`` is one of ``counting_stream``, ``adhoc_fixpoint``,
``served_rw``, ``sharded_stream`` or ``all`` (each workload in its own
child process, one after another).  ``--trace 0`` measures the
end-to-end metrics with no wrappers installed; ``--trace 1`` is the
separate traced run: untraced and traced slices alternate, the
per-layer metrics come from the traced ones and ``trace.overhead_pct``
compares the two.  ``--tiny`` shrinks the data for quick checks.
``BENCHMARK.json`` lists every workload but ``sharded_stream``, whose
wall clock is too unsteady to gate (see :func:`parallel_probe`).

Every run checks a seeded sample of answers against a reference from a
different strategy family (``served_rw``: single-threaded evaluation
on the same state), checks that acknowledged writes survive recovery,
and that no thread or child process outlives the workload.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; any wrong answer, lost
write or leaked worker makes the exit code nonzero.

``PYTHONHASHSEED`` is not pinned: when it is unset the run draws a
fresh one, re-executes itself under it and reports it, so hash-order
effects stay visible and every run can still be replayed.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_run")

#: ``setup_s`` is the median over this many fresh child processes of
#: the time from importing the program to the workload being ready for
#: its first operation (data generation, DB build, form preparation,
#: service start, durable-dir open).
SETUPS = 7

#: A traced run alternates this many untraced and traced slices.
TRACE_SLICES = 10

#: Length of the traced sharded-fixpoint probe (see
#: :func:`parallel_probe`).
PROBE_SECONDS = 2.0

WORKLOAD_NAMES = ("counting_stream", "adhoc_fixpoint", "served_rw",
                  "sharded_stream")

#: (name, unit, applies-to) of every end-to-end metric the run prints.
END_TO_END = (
    ("setup_s", "s", None),
    ("query_p50_ms", "ms", None),
    ("query_p90_ms", "ms", None),
    ("query_p99_ms", "ms", None),
    ("queries_per_s", "1/s", None),
    ("write_p50_ms", "ms", "served_rw"),
    ("write_p99_ms", "ms", "served_rw"),
    ("failed_share", "ratio", None),
    ("peak_rss_mb", "MB", None),
    ("stored_bytes_per_fact", "B", "served_rw"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small data, for quick checks and tests")
    parser.add_argument("--seed-cells", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-once", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _ensure_hash_seed():
    """Re-execute under a freshly drawn ``PYTHONHASHSEED`` if unset."""
    if "PYTHONHASHSEED" in os.environ:
        return
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(1 + int.from_bytes(os.urandom(4), "big")
                                % 4294967295)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def percentile(values, q):
    """Nearest-rank percentile, or None unless at least ten samples lie
    beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def child_pids():
    """Live children of this process (all threads)."""
    pids = []
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children")) as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


# -- hash-seed spread --------------------------------------------------

def seed_cells():
    """Work counters of fixed cells, for one hash seed (child side)."""
    from repro.data.workloads import WORKLOADS
    from repro.exec.strategies import run_strategy

    cells = (("sg_tree", {"fanout": 2, "depth": 8}, "magic"),
             ("sg_chain", {"depth": 32}, "magic"),
             ("multi_rule", {"depth": 16}, "magic"),
             ("sg_tree", {"fanout": 2, "depth": 6}, "sup_magic"))
    work = {}
    for name, params, method in cells:
        workload = WORKLOADS[name]
        db, _source = workload.make_db(**params)
        result = run_strategy(method, workload.query, db)
        work["%s/%s/%s" % (name, params, method)] = result.stats.total_work
    print(json.dumps(work, sort_keys=True))


def work_seed_spread():
    """Relative spread of ``engine.work`` over hash seeds 0 and 1."""
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--seed-cells"],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    diff = sum(abs(runs[0][cell] - runs[1][cell]) for cell in runs[0])
    mean = sum((runs[0][cell] + runs[1][cell]) / 2 for cell in runs[0])
    return diff / mean, runs


# -- set-up time -------------------------------------------------------

def setup_once(args):
    """Time one set-up in this fresh process (child side)."""
    started = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny,
                                        workdir=WORKDIR)
    workload.build()
    workload.ops[0]
    elapsed = time.perf_counter() - started
    workload.teardown()
    print(json.dumps(elapsed))


def setup_times(args):
    """Set-up seconds of ``SETUPS`` child processes, one after another."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-once",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    times = []
    for _ in range(SETUPS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


# -- one workload ------------------------------------------------------

def parallel_probe(seed, tiny):
    """Per-layer ``parallel.*`` metrics from a short traced
    ``sharded_stream`` window.

    The sharded fixpoint's wall clock is too unsteady on a shared
    two-core host to gate, so ``BENCHMARK.json`` does not list its
    workload; the traced run of a listed workload runs this probe
    outside its own window instead, so the layer is still measured and
    its answers still checked.  Returns ``(values, recorder, checked, mismatches)``.
    """
    from perfbench import layers, tracing
    from perfbench.workloads import ShardedStream

    probe = ShardedStream(seed, tiny=tiny, workdir=WORKDIR)
    probe.build()
    tracer = tracing.Tracer()
    layers.install(tracer)
    probe.request_hook = tracer.set_request
    try:
        rec = probe.recorder()
        probe.window(PROBE_SECONDS, rec)
    finally:
        tracer.uninstall()
    extras = probe.layer_extras()
    checked, mismatches = probe.verify(rec)
    probe.teardown()
    values = layers.per_layer(tracer.spans, rec, {}, extras)
    values = {name: value for name, value in values.items()
              if name.startswith("parallel.")}
    return values, rec, checked, mismatches


def _counters(workload):
    """Subsystem counters a traced window diffs (``served_rw`` only)."""
    if getattr(workload, "service", None) is None:
        return {}
    return {
        "answer_cache": workload.cache.stats(),
        "counting_store": workload.store.stats(),
        "service": workload.service.counters(),
        "wal": workload.db.wal_stats,
    }


def _accumulate(totals, before, after):
    """Add the counter movement from ``before`` to ``after`` into
    ``totals`` (high-water marks keep their latest value)."""
    for block, values in after.items():
        into = totals.setdefault(block, {})
        for key, value in values.items():
            if not isinstance(value, (int, float)) or isinstance(value,
                                                                 bool):
                continue
            if key.startswith("max_"):
                into[key] = value
            else:
                into[key] = into.get(key, 0) + value - before[block].get(
                    key, 0)


def run_workload(args):
    from perfbench import layers, tracing
    from perfbench.workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    load_start = os.getloadavg()
    setups = setup_times(args)
    setup_s = statistics.median(setups)
    cls = WORKLOADS[args.workload]
    if cls.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        layers.install(tracer)

    workload = cls(args.seed, tiny=args.tiny, workdir=WORKDIR)
    workload.build()

    windows = []
    layer_values = None
    overhead = None
    if args.trace:
        # Untraced and traced slices alternate, so both halves of the
        # window see the same warm-up and the same host conditions.
        tracer.uninstall()
        plain = workload.recorder()
        traced = workload.recorder()
        counters = {}
        chunk = args.seconds / (2 * TRACE_SLICES)
        for _ in range(TRACE_SLICES):
            workload.window(chunk, plain)
            before = _counters(workload)
            layers.install(tracer)
            workload.request_hook = tracer.set_request
            workload.window(chunk, traced)
            workload.request_hook = None
            tracer.uninstall()
            _accumulate(counters, before, _counters(workload))
        windows = [plain, traced]
        timed = plain
        p_plain = percentile(plain.latencies, 0.5)
        p_traced = percentile(traced.latencies, 0.5)
        if p_plain and p_traced:
            overhead = (p_traced - p_plain) / p_plain * 100
    else:
        timed = workload.recorder()
        workload.window(args.seconds, timed)
        windows = [timed]

    extras = {}
    if args.trace:
        extras.update(workload.layer_extras())
        extras["engine.work_seed_spread"], seed_runs = work_seed_spread()
        extras["trace.overhead_pct"] = overhead or 0.0
    checked = 0
    mismatches = []
    for rec in windows:
        count, wrong = workload.verify(rec)
        checked += count
        mismatches.extend(wrong)
    backend = workload.storage_backend()
    down = workload.teardown()
    extras.update(down)
    if args.trace:
        layer_values = layers.per_layer(tracer.spans, traced, counters,
                                        extras)
        tracer.dump(os.path.join(WORKDIR, "trace-%s.jsonl"
                                 % args.workload))
        if cls.parallel_probe:
            values, probe_rec, count, wrong = parallel_probe(args.seed,
                                                             args.tiny)
            layer_values.update(values)
            windows.append(probe_rec)
            checked += count
            mismatches.extend(wrong)

    leaked_threads = [t.name for t in threading.enumerate()
                      if t is not threading.main_thread()]
    leaked_children = child_pids()
    load_end = os.getloadavg()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "sharded_stream":
        rss_kb = max(rss_kb, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted = sum(rec.attempted for rec in windows)
    op_failures = sum(rec.failed for rec in windows)
    lost = down.get("lost_writes", 0)
    failed = op_failures + len(mismatches) + lost
    hygiene_ok = not leaked_threads and not leaked_children
    correct = (not mismatches and not lost and hygiene_ok
               and op_failures == 0)

    queries, writes = timed.latencies, timed.write_latencies
    e2e = {
        "setup_s": setup_s,
        "query_p50_ms": percentile(queries, 0.5),
        "query_p90_ms": percentile(queries, 0.9),
        "query_p99_ms": percentile(queries, 0.99),
        "queries_per_s": timed.queries / timed.seconds,
        "write_p50_ms": percentile(writes, 0.5),
        "write_p99_ms": percentile(writes, 0.99),
        "failed_share": failed / max(1, attempted),
        "peak_rss_mb": rss_kb / 1024.0,
        "stored_bytes_per_fact": down.get("stored_bytes_per_fact"),
    }
    for name in ("query_p50_ms", "query_p90_ms", "query_p99_ms",
                 "write_p50_ms", "write_p99_ms"):
        if e2e[name] is not None:
            e2e[name] *= 1e3

    report = {
        "workload": args.workload,
        "why": cls.why,
        "heavy": list(cls.heavy),
        "light": list(cls.light),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "storage_backend": backend,
            "fsync": cls.fsync,
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
        },
        "samples": {"queries": len(queries), "writes": len(writes)},
        "setup_runs_s": setups,
        "methods": timed.methods,
        "checked_answers": checked,
        "mismatches": mismatches,
        "errors": [e for rec in windows for e in rec.errors],
        "lost_writes": lost,
        "leaked_threads": leaked_threads,
        "leaked_children": leaked_children,
        "durability": down,
    }
    if args.trace:
        report["seed_cells"] = seed_runs
    print("perfbench %s seed=%d seconds=%g trace=%d%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             " tiny" if args.tiny else ""))
    machine = report["machine"]
    print("machine: CPython %s, nproc %s, load %.2f -> %.2f, backend %s, "
          "fsync %s, PYTHONHASHSEED %s"
          % (machine["python"], machine["nproc"], load_start[0],
             load_end[0], backend, cls.fsync, machine["hash_seed"]))
    samples = {"query": len(queries), "write": len(writes)}
    for name, unit, only in END_TO_END:
        value = e2e[name]
        if only is not None and only != args.workload:
            shown = "n/a (%s only)" % only
        elif value is None:
            shown = "omitted (fewer than ten samples beyond it)"
        else:
            shown = "%.6g %s" % (value, unit)
        kind = "write" if name.startswith("write") else "query"
        note = (" [%d %s samples]" % (samples[kind], kind)
                if name.endswith(("_p50_ms", "_p90_ms", "_p99_ms")) else "")
        print("  %-22s %s%s" % (name, shown, note))
    if layer_values is not None:
        for name, unit, _better in layers.PER_LAYER:
            print("  %-32s %.6g %s" % (name, layer_values[name], unit))
    for line in mismatches + report["errors"]:
        print("  MISMATCH/ERROR %s" % line)
    if not hygiene_ok:
        print("  LEAKED threads=%s children=%s"
              % (leaked_threads, leaked_children))
    if lost:
        print("  LOST %d acknowledged facts after recovery" % lost)
    print(json.dumps({"report": report, "end_to_end": {
        name: {"value": e2e[name], "unit": unit}
        for name, unit, _only in END_TO_END}}, default=str))

    gated = _benchmark_metrics(args.trace)
    metrics = {}
    missing = []
    for name, unit in gated:
        value = layer_values.get(name) if args.trace else e2e.get(name)
        if value is None:
            missing.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    if missing:
        print("perfbench: cannot report %s for %s (too few samples)"
              % (", ".join(missing), args.workload), file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _benchmark_metrics(trace):
    """(name, unit) pairs the result line carries, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    block = spec["per_layer"] if trace else spec["end_to_end"]
    return [(entry["name"], entry["unit"]) for entry in block]


def run_all(args):
    """Each workload in its own child process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        status = status or done.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail("repro sources not found under %s; run from a checkout of "
              "the repository" % SRC)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _ensure_hash_seed()
    sys.path[:0] = [SRC, ROOT]
    if args.seed_cells:
        seed_cells()
        return 0
    if args.setup_once:
        setup_once(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
