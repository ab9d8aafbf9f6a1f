"""The counting family's counters do not depend on the hash seed.

The golden payload of ``tests/test_counting_golden.py`` is computed
under ``PYTHONHASHSEED`` 0 and 1.  For the dedicated pointer and cyclic
evaluators (cold, Bushy-Depth-First and the two-worker phase 1) the
answers, ``stats.as_dict()``, extras and counting tables must agree
across the two seeds, and with the golden file: the left-graph
expansion, the arc classification and the answer phase may not pick up
set or dict iteration order anywhere.

Two parts of the payload are left out on purpose, and the golden test
pins both under its fixed seed: ``answer_path`` parents (the first
derivation of a state wins, and derivations arrive in hash-index bucket
order) and ``magic_counting`` cells, whose recurring part runs the
semi-naive magic fixpoint.
"""

from tests.test_counting_golden import GOLDEN_SEED, load_golden, \
    payload_at_seed


def counting_family(payload):
    """The seed-independent part of a golden payload."""
    kept = {}
    for cell, value in payload.items():
        if cell.endswith("/magic_counting"):
            continue
        kept[cell] = {key: item for key, item in value.items()
                      if key != "paths"}
    return kept


def test_two_seeds_agree():
    other = 1 - GOLDEN_SEED
    first = counting_family(payload_at_seed(GOLDEN_SEED))
    second = counting_family(payload_at_seed(other))
    differing = [cell for cell in sorted(first)
                 if first[cell] != second.get(cell)]
    assert sorted(first) == sorted(second)
    assert not differing, "seed-dependent cells: %s" % differing
    assert first == counting_family(load_golden())
