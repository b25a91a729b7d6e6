"""Small root-batch and chunk budgets for the builder and counter,
a deadlock guard for runs on the batch runner, and a spy on the builds of
the degeneracy order and the oriented table."""

import threading

import numpy as np

from turanshadow import graph, shadow


def shrink_budgets(monkeypatch, budget):
    """Run the builder at small budgets; returns the batches it made.

    A root of out-degree d costs d * d member slots. "unit" sets the chunk
    budget to one element, so every root batch holds one root and every
    oriented_table chunk one vertex with out-neighbours.
    "batch3" sets, at each call of root_batches, the cut 2 * _CHUNK_ELEMS
    below the least cost of four roots in a row, so no batch holds four.
    Each call adds (its cut, its batches) to the list returned, with per
    batch (sum of its roots' costs, cost of its lowest root id, roots).
    """
    if budget == "unit":
        monkeypatch.setattr(shadow, "_CHUNK_ELEMS", 1)
    calls = []
    root_batches = shadow.root_batches

    def spy(order, k):
        cost = order.out_degree ** 2
        if budget == "batch3":
            spent = np.cumsum([0, *cost[order.out_degree >= k - 1]])
            least = min((spent[4:] - spent[:-4]).tolist(),
                        default=int(spent[-1]) + 2)
            monkeypatch.setattr(shadow, "_CHUNK_ELEMS", (least - 1) // 2)
        batches = []
        calls.append((2 * shadow._CHUNK_ELEMS, batches))
        for group in root_batches(order, k):
            ids = np.concatenate([ids for ids, _ in group])
            batches.append((int(cost[ids].sum()), int(cost[ids.min()]),
                            ids.size))
            yield group

    monkeypatch.setattr(shadow, "root_batches", spy)
    return calls


def check_batches(budget, calls):
    """Batches are cut greedily at 2 * _CHUNK_ELEMS member slots: each one
    fits or holds one root, and closed only because the next root did not
    fit. Each held one root at "unit"; at "batch3", at most three, and at
    least two held three."""
    for limit, batches in calls:
        for cost, _, roots in batches:
            assert cost <= limit or roots == 1
        for (cost, _, _), (_, first, _) in zip(batches, batches[1:]):
            assert cost + first > limit
    counts = [roots for _, batches in calls for _, _, roots in batches]
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


def spy_builds(monkeypatch):
    """Record every degeneracy order peeled and oriented table filled.

    Returns {"order": [...], "table": [...]}: an order is recorded when a
    DegeneracyOrder is made, which only a peel does, and a table when
    oriented_table returns one it has not returned before. A call that
    returns what the graph keeps records nothing.
    """
    built = {"order": [], "table": []}
    make_order, oriented_table = graph.DegeneracyOrder, shadow.oriented_table

    def order_spy(*args):
        built["order"].append(make_order(*args))
        return built["order"][-1]

    def table_spy(*args, **kwargs):
        table = oriented_table(*args, **kwargs)
        if not any(table is t for t in built["table"]):
            built["table"].append(table)
        return table

    monkeypatch.setattr(graph, "DegeneracyOrder", order_spy)
    monkeypatch.setattr(shadow, "oriented_table", table_spy)
    return built
