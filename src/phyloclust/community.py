"""Weighted graphs and short-random-walk community detection.

Communities are grown by agglomerative merging of adjacent groups,
choosing at each step the merge with the smallest Ward-style increase in
the sum of squared walk distances between vertices and their community.
The merge tree is then cut at the level of maximum modularity.
"""

from __future__ import annotations

import heapq
import itertools
import logging

import numpy as np

from .errors import EmptyInput
from .io_formats import Partition

log = logging.getLogger(__name__)


class WeightedGraph:
    """Undirected weighted graph on ids, held as an edge list.

    Edge k joins vertices i[k] < j[k] with weight w[k] > 0, in condensed
    (row-major) pair order, each pair at most once and no self-loops; the
    constructor does not check these rules.
    """

    def __init__(self, ids: list[str], i: np.ndarray, j: np.ndarray, w: np.ndarray):
        self.ids, self.i, self.j, self.w = ids, i, j, w

    @property
    def n(self) -> int:
        return len(self.ids)

    def degrees(self) -> np.ndarray:
        # each vertex adds its lower neighbours' weights, then its upper ones'
        ends = np.concatenate([self.j, self.i])
        return np.bincount(ends, np.concatenate([self.w, self.w]), self.n)

    def total_weight(self) -> float:
        return float(self.w.sum())


def partition_adjacency(p: Partition) -> WeightedGraph:
    """Unit-weight edges between every co-clustered pair of ids."""
    ids = p.ids()
    if not ids:
        raise EmptyInput("empty partition")
    members: dict[str, list[int]] = {}
    for k, ident in enumerate(ids):
        members.setdefault(p.assignment[ident], []).append(k)
    pairs = sorted(
        pair for grp in members.values() for pair in itertools.combinations(grp, 2)
    )
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return WeightedGraph(ids, i, j, np.ones(len(pairs)))


def modularity(g: WeightedGraph, p: Partition) -> float:
    """Newman modularity sum_c (e_c/m - (d_c/2m)^2) with weighted degrees.

    Zero for an edgeless graph.  Every id of p must be a vertex of g; a
    vertex that p does not assign contributes nothing.
    """
    deg = g.degrees()
    two_m = float(deg.sum())
    if two_m == 0.0:
        return 0.0
    idx = {ident: k for k, ident in enumerate(g.ids)}
    codes: dict[str, int] = {}
    # clusters are codes 0..; a vertex p does not assign has a code of its
    # own past n, so it shares no edge or degree sum with anyone
    code = list(range(g.n, 2 * g.n))
    for ident, label in p.assignment.items():
        code[idx[ident]] = codes.setdefault(label, len(codes))
    code = np.array(code)
    # sum_c e_c is the weight of the edges inside a cluster and d_c sums
    # its members' degrees: Q = (2 sum_c e_c - |d|^2/2m) / 2m
    inside = float(g.w[code[g.i] == code[g.j]].sum())
    d = np.bincount(code, deg)[: len(codes)]
    return float((2.0 * inside - d @ d / two_m) / two_m)


def walktrap_communities(g: WeightedGraph, walk_length: int = 4) -> Partition:
    """Community detection by agglomeration of short-random-walk profiles.

    Vertices with no edges stay their own communities.  Only adjacent
    communities merge; candidate merges are ordered by the Ward increase,
    ties by the lowest community index pair.  The returned partition is
    the dendrogram level of maximum modularity.
    """
    n = g.n
    if n == 0:
        raise EmptyInput("empty graph")
    if walk_length < 1:
        raise ValueError("walk_length must be at least 1")
    active = np.unique(np.concatenate([g.i, g.j]))
    if active.size == 0:
        return Partition.from_clusters([[i] for i in g.ids])
    isolated = [g.ids[k] for k in np.setdiff1d(np.arange(n), active)]

    # the edges renumbered over the active vertices keep i < j and their order
    na = int(active.size)
    ea, eb = np.searchsorted(active, g.i), np.searchsorted(active, g.j)
    sub = np.zeros((na, na))
    sub[ea, eb] = sub[eb, ea] = g.w
    sdeg = g.degrees()[active]
    p_t = np.linalg.matrix_power(sub / sdeg[:, None], walk_length)
    # pre-scale columns by 1/sqrt(deg) so the walk distance between two
    # communities is a plain Euclidean norm of profile rows
    profiles = p_t / np.sqrt(sdeg)[None, :]

    total_m = g.total_weight()
    size: dict[int, int] = {k: 1 for k in range(na)}
    profile: dict[int, np.ndarray] = {k: profiles[k] for k in range(na)}
    internal: dict[int, float] = {k: 0.0 for k in range(na)}
    degsum: dict[int, float] = {k: float(sdeg[k]) for k in range(na)}
    neighbors: dict[int, set[int]] = {k: set() for k in range(na)}
    cross: dict[tuple[int, int], float] = {}
    for a, b, w in zip(ea.tolist(), eb.tolist(), g.w.tolist()):
        neighbors[a].add(b)
        neighbors[b].add(a)
        cross[(a, b)] = w

    def _ord(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def ward(a: int, b: int) -> float:
        diff = profile[a] - profile[b]
        return size[a] * size[b] / (size[a] + size[b]) / na * float(diff @ diff)

    def contrib(k: int) -> float:
        return internal[k] / total_m - (degsum[k] / (2.0 * total_m)) ** 2

    heap: list[tuple[float, int, int]] = [
        (ward(a, b), a, b) for (a, b) in cross
    ]
    heapq.heapify(heap)

    alive = set(range(na))
    q_now = sum(contrib(k) for k in alive)
    q_levels = [q_now]
    merges: list[tuple[int, int]] = []
    nxt = na
    while len(alive) > 1 and heap:
        _, a, b = heapq.heappop(heap)
        if a not in alive or b not in alive:
            continue
        key = _ord(a, b)
        c = nxt
        nxt += 1
        q_now -= contrib(a) + contrib(b)
        profile[c] = (size[a] * profile[a] + size[b] * profile[b]) / (
            size[a] + size[b]
        )
        size[c] = size[a] + size[b]
        internal[c] = internal.pop(a) + internal.pop(b) + cross.pop(key)
        degsum[c] = degsum.pop(a) + degsum.pop(b)
        nb = (neighbors.pop(a) | neighbors.pop(b)) - {a, b}
        neighbors[c] = nb
        for x in nb:
            w = cross.pop(_ord(a, x), 0.0) + cross.pop(_ord(b, x), 0.0)
            cross[_ord(c, x)] = w
            neighbors[x].discard(a)
            neighbors[x].discard(b)
            neighbors[x].add(c)
        for k in (a, b):
            del profile[k], size[k]
        alive.discard(a)
        alive.discard(b)
        alive.add(c)
        q_now += contrib(c)
        q_levels.append(q_now)
        merges.append((a, b))
        for x in neighbors[c]:
            heapq.heappush(heap, (ward(c, x), *_ord(c, x)))

    best_level = int(np.argmax(q_levels))
    log.debug(
        "walktrap: %d merges, best modularity %.6f at level %d",
        len(merges),
        q_levels[best_level],
        best_level,
    )

    # replay merges up to the best level to recover the membership
    groups: dict[int, list[int]] = {k: [k] for k in range(na)}
    nxt = na
    for a, b in merges[:best_level]:
        groups[nxt] = groups.pop(a) + groups.pop(b)
        nxt += 1
    clusters = [
        [g.ids[active[v]] for v in vs] for vs in groups.values()
    ]
    clusters.extend([i] for i in isolated)
    return Partition.from_clusters(clusters)
