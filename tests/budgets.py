"""Small root-batch, chunk and lookup budgets for the builder and counter,
and a deadlock guard for runs on the batch runner."""

import threading

import numpy as np

from turanshadow import graph, shadow


def shrink_budgets(monkeypatch, budget):
    """Run the builder at small budgets; returns the batches it made.

    "unit" sets the chunk and lookup budgets to one element, so every root
    batch holds one root and every oriented_table chunk one vertex with
    out-neighbours; "batch3" cuts batches at 2 * 96 member-pair elements,
    three roots of width 8. Each call of root_batches adds a list with, per
    batch, (sum of W * W, W * W of its lowest root id, roots).
    """
    if budget == "unit":
        monkeypatch.setattr(shadow, "_CHUNK_ELEMS", 1)
        monkeypatch.setattr(graph, "_LOOKUP_CHUNK", 1)
    elif budget == "batch3":
        monkeypatch.setattr(shadow, "_CHUNK_ELEMS", 96)
    calls = []
    root_batches = shadow.root_batches

    def spy(*args):
        batches = []
        calls.append(batches)
        for group in root_batches(*args):
            ids = np.concatenate([ids for ids, _ in group])
            pairs = np.concatenate([np.full(ids.size, width ** 2)
                                    for ids, width in group])
            batches.append((int(pairs.sum()), int(pairs[ids.argmin()]),
                            ids.size))
            yield group

    monkeypatch.setattr(shadow, "root_batches", spy)
    return calls


def check_batches(budget, calls):
    """Batches are cut greedily at 2 * _CHUNK_ELEMS member pairs: each one
    fits or holds one root, and closed only because the next root did not
    fit. Each held one root at "unit"; at "batch3", at most three, and at
    least two held three."""
    limit = 2 * shadow._CHUNK_ELEMS
    for batches in calls:
        for pairs, _, roots in batches:
            assert pairs <= limit or roots == 1
        for (pairs, _, _), (_, first, _) in zip(batches, batches[1:]):
            assert pairs + first > limit
    counts = [roots for batches in calls for _, _, roots in batches]
    if budget == "unit":
        assert set(counts) == {1}
    elif budget == "batch3":
        assert max(counts) == 3 and counts.count(3) >= 2


def run_bounded(fn, seconds=60.0):
    """fn() on a daemon thread; fails, rather than hangs, on a deadlock."""
    box = []

    def target():
        try:
            box.append(("ok", fn()))
        except BaseException as error:  # handed back to the test thread
            box.append(("error", error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "map_batches did not finish"
    kind, value = box[0]
    if kind == "error":
        raise value
    return value
