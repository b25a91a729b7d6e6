"""Fixed reference work: a yardstick for the machine's current speed.

Does the same kinds of work as the program, in a fresh interpreter, but
never imports it: import numpy, parse a text edge list, build CSR adjacency
with numpy, peel the graph with a binary heap, count edges inside vertex
sets held as Python-int bitmasks, test random vertex tuples for cliqueness
by fancy indexing into a dense adjacency matrix, and count triangles by set
intersection. The input is fixed, so its run time changes only when the
machine's speed does. run.py times it next to every CLI operation and
reports the CLI's time relative to it.

    python3 perfbench/refwork.py
"""

from __future__ import annotations

import heapq

import numpy as np

N, M, DENSE, TUPLES, SEED = 8000, 48000, 1200, 300_000, 20_161_117


def main() -> int:
    rng = np.random.default_rng(SEED)
    text = "\n".join(f"{u} {v}" for u, v in
                     rng.integers(0, N, size=(M, 2)).tolist())
    pairs = np.array([line.split() for line in text.splitlines()],
                     dtype=np.int64)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    und = np.unique(np.sort(pairs, axis=1), axis=0)
    src = np.concatenate([und[:, 0], und[:, 1]])
    dst = np.concatenate([und[:, 1], und[:, 0]])[np.lexsort(
        (np.concatenate([und[:, 1], und[:, 0]]), src))]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=N))])
    adj = [set(dst[indptr[v]:indptr[v + 1]].tolist()) for v in range(N)]

    deg = [len(a) for a in adj]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = bytearray(N)
    later: list[set] = [set() for _ in range(N)]
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = 1
        for u in adj[v]:
            if not removed[u]:
                later[v].add(u)
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    triangles = sum(len(later[v] & later[u]) for v in range(N)
                    for u in later[v])

    dense = rng.random((DENSE, DENSE)) < 0.6
    dense = dense & dense.T
    rows = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(),
                           "little") for r in dense]
    inside = 0
    for mask in np.packbits(rng.random((60, DENSE)) < 0.5, axis=1,
                            bitorder="little"):
        members = int.from_bytes(mask.tobytes(), "little")
        m = members
        while m:
            low = m & -m
            inside += (rows[low.bit_length() - 1] & members).bit_count()
            m ^= low
    picks = rng.integers(0, DENSE, size=(TUPLES, 5))
    ok = np.ones(TUPLES, dtype=bool)
    for a in range(5):
        for b in range(a + 1, 5):
            ok &= dense[picks[:, a], picks[:, b]]
    return 0 if triangles + inside + int(ok.sum()) >= 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
