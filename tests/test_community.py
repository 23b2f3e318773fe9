"""Weighted graphs, modularity, and walktrap communities."""

import heapq
import itertools

import numpy as np
import pytest

from phyloclust import MatrixKind, Partition
from phyloclust.community import (
    WeightedGraph,
    modularity,
    partition_adjacency,
    walktrap_communities,
)

from phyloclust.distance import read_nonzero_pairs_binary, write_matrix_binary

from conftest import cocluster_fraction, dense, graph_square, weighted_graph


def two_cliques(bridge=0.1):
    n = 10
    w = np.zeros((n, n))
    for base in (0, 5):
        for i in range(base, base + 5):
            for j in range(i + 1, base + 5):
                w[i, j] = w[j, i] = 1.0
    w[4, 5] = w[5, 4] = bridge
    return weighted_graph([f"v{i}" for i in range(n)], w)


def set_partitions(items):
    """Every partition of `items` (Bell-number enumeration)."""
    if not items:
        yield []
        return
    head, *rest = items
    for sub in set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[head] + sub[k]] + sub[k + 1 :]
        yield [[head]] + sub


def naive_modularity(w, groups):
    """Direct Q = sum_c (in_c/m - (deg_c/2m)^2) over weighted edges."""
    m = w.sum() / 2.0
    if m == 0:
        return 0.0
    q = 0.0
    for group in groups:
        idx = np.array(group)
        inside = w[np.ix_(idx, idx)].sum() / 2.0
        degree = w[idx, :].sum()
        q += inside / m - (degree / (2.0 * m)) ** 2
    return q


def test_adjacency_two_blocks():
    p = Partition.from_labels([f"s{i}" for i in range(1, 7)],
                              ["1", "1", "1", "2", "2", "2"])
    g = partition_adjacency(p)
    w = graph_square(g)
    pos = {ident: k for k, ident in enumerate(g.ids)}
    for a, b in itertools.combinations(range(1, 7), 2):
        i, j = pos[f"s{a}"], pos[f"s{b}"]
        same = (a <= 3) == (b <= 3)
        assert w[i, j] == (1.0 if same else 0.0)
    assert np.all(np.diag(w) == 0.0)


def test_adjacency_singletons_zero():
    p = Partition.from_labels(["a", "b", "c"], ["1", "2", "3"])
    assert np.all(graph_square(partition_adjacency(p)) == 0.0)


def test_adjacency_matches_equality_scan():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        ids = [f"x{i}" for i in range(n)]
        labels = [str(int(v)) for v in rng.integers(0, 4, n)]
        p = Partition.from_labels(ids, labels)
        g = partition_adjacency(p)
        w = graph_square(g)
        pos = {ident: k for k, ident in enumerate(g.ids)}
        for a, b in itertools.combinations(ids, 2):
            expect = 1.0 if p.label_of(a) == p.label_of(b) else 0.0
            assert w[pos[a], pos[b]] == expect


def pair_loop_fraction(partitions, ids):
    """Co-clustering fractions by a loop over pairs and partitions, as a
    square with a unit diagonal; 0 off the diagonal when there are none."""
    n = len(ids)
    out = np.eye(n)
    for a, b in itertools.combinations(range(n), 2):
        same = sum(p.label_of(ids[a]) == p.label_of(ids[b]) for p in partitions)
        out[a, b] = out[b, a] = same / len(partitions) if partitions else 0.0
    return out


def test_cocluster_fraction_matches_pair_loop():
    rng = np.random.default_rng(41)
    for k in range(6):
        for n in (0, 1, 2, 3, 7, 40, 200):
            ids = [f"id{i}" for i in rng.permutation(n)]
            # every partition draws from the same few label strings
            parts = []
            for r in range(k):
                labels = rng.integers(0, 1 + n // 4, n)
                if r % 2:  # each label fills one run of ids
                    labels = np.sort(labels)
                parts.append(Partition.from_labels(ids, [f"L{int(v)}" for v in labels]))
            dm = cocluster_fraction(parts, ids)
            assert dm.ids == ids and dm.kind is MatrixKind.COCLUSTER
            ref = pair_loop_fraction(parts, ids)
            np.fill_diagonal(ref, 0.0)
            assert dense(dm).tobytes() == ref.tobytes(), (k, n)


def test_modularity_matches_naive():
    rng = np.random.default_rng(19)
    g = two_cliques()
    w = graph_square(g)
    for _ in range(20):
        labels = rng.integers(0, 3, 10)
        p = Partition.from_labels(g.ids, [str(int(v)) for v in labels])
        groups = [[i for i in range(10) if labels[i] == v] for v in set(labels)]
        assert modularity(g, p) == pytest.approx(naive_modularity(w, groups))


def test_modularity_edgeless_zero():
    g = weighted_graph(["a", "b"], np.zeros((2, 2)))
    p = Partition.from_labels(["a", "b"], ["1", "2"])
    assert modularity(g, p) == 0.0


def test_walktrap_two_cliques_planted():
    g = two_cliques(bridge=0.1)
    part = walktrap_communities(g)
    got = sorted(sorted(c) for c in part.clusters().values())
    assert got == [[f"v{i}" for i in range(5)], [f"v{i}" for i in range(5, 10)]]


def test_walktrap_matches_exhaustive_max_on_two_cliques():
    """10 vertices is small enough to scan every partition."""
    g = two_cliques(bridge=0.1)
    part = walktrap_communities(g)
    w = graph_square(g)
    best = max(
        naive_modularity(w, groups) for groups in set_partitions(list(range(10)))
    )
    assert modularity(g, part) == pytest.approx(best, abs=1e-12)


def test_walktrap_edgeless_singletons():
    g = weighted_graph(["a", "b", "c"], np.zeros((3, 3)))
    part = walktrap_communities(g)
    assert part.num_clusters() == 3


def test_walktrap_single_clique():
    n = 6
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    part = walktrap_communities(weighted_graph([f"v{i}" for i in range(n)], w))
    assert part.num_clusters() == 1


def test_walktrap_permutation_equivariant():
    rng = np.random.default_rng(23)
    g = two_cliques(bridge=0.05)
    base = walktrap_communities(g)
    for _ in range(5):
        perm = rng.permutation(10)
        ids = [g.ids[k] for k in perm]
        w = graph_square(g)[np.ix_(perm, perm)]
        got = walktrap_communities(weighted_graph(ids, w))
        assert got.same_grouping(base)


def test_walktrap_beats_trivial_partitions():
    g = two_cliques(bridge=0.2)
    part = walktrap_communities(g)
    q = modularity(g, part)
    singletons = Partition.from_labels(g.ids, [str(i) for i in range(10)])
    lump = Partition.from_labels(g.ids, ["1"] * 10)
    assert q >= modularity(g, singletons)
    assert q >= modularity(g, lump)


def dense_walktrap(weights, ids, walk_length=4):
    """The walktrap of a dense n×n weight matrix, as the library ran it
    before the graph became an edge list: degrees are row sums of the
    square, and the cross weights come from a scan of every active pair."""
    deg = weights.sum(axis=1)
    active = np.flatnonzero(deg > 0)
    isolated = [ids[k] for k in np.flatnonzero(deg == 0)]
    if active.size == 0:
        return Partition.from_clusters([[i] for i in ids])

    sub = weights[np.ix_(active, active)]
    sdeg = deg[active]
    p_t = np.linalg.matrix_power(sub / sdeg[:, None], walk_length)
    # pre-scale columns by 1/sqrt(deg) so the walk distance between two
    # communities is a plain Euclidean norm of profile rows
    profiles = p_t / np.sqrt(sdeg)[None, :]

    na = int(active.size)
    total_m = float(weights.sum()) / 2.0
    size: dict[int, int] = {k: 1 for k in range(na)}
    profile: dict[int, np.ndarray] = {k: profiles[k] for k in range(na)}
    internal: dict[int, float] = {k: 0.0 for k in range(na)}
    degsum: dict[int, float] = {k: float(sdeg[k]) for k in range(na)}
    neighbors: dict[int, set[int]] = {k: set() for k in range(na)}
    cross: dict[tuple[int, int], float] = {}
    for a in range(na):
        for b in range(a + 1, na):
            w = float(sub[a, b])
            if w > 0.0:
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

    # replay merges up to the best level to recover the membership
    groups: dict[int, list[int]] = {k: [k] for k in range(na)}
    nxt = na
    for a, b in merges[:best_level]:
        groups[nxt] = groups.pop(a) + groups.pop(b)
        nxt += 1
    clusters = [
        [ids[active[v]] for v in vs] for vs in groups.values()
    ]
    clusters.extend([i] for i in isolated)
    return Partition.from_clusters(clusters)


def random_cocluster(rng):
    """Co-clustering fractions of k in 1..5 random partitions; about a
    quarter of the ids are alone in every partition, so they are isolated."""
    n = int(rng.integers(2, 41))
    ids = [f"id{i}" for i in rng.permutation(n)]
    alone = rng.random(n) < 0.25
    parts = []
    for _ in range(int(rng.integers(1, 6))):
        labels = rng.integers(0, 1 + n // 3, n)
        names = [f"solo{i}" if a else f"L{v}"
                 for i, (a, v) in enumerate(zip(alone, labels))]
        parts.append(Partition.from_labels(ids, names))
    return cocluster_fraction(parts, ids)


def test_walktrap_matches_dense_oracle():
    rng = np.random.default_rng(2006)
    graphs = [random_cocluster(rng) for _ in range(200)]
    cliques = two_cliques()
    for dm in graphs:
        got = walktrap_communities(weighted_graph(dm.ids, dense(dm)))
        assert got.same_grouping(dense_walktrap(dense(dm), dm.ids)), dm.ids
    for walk_length in (1, 2, 4, 7):
        got = walktrap_communities(cliques, walk_length)
        want = dense_walktrap(graph_square(cliques), cliques.ids, walk_length)
        assert got.same_grouping(want)


def test_graph_is_the_triangles_nonzero_pairs(tmp_path):
    """linkage's graph of a written triangle holds the dense square's weights."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        dm = random_cocluster(rng)
        write_matrix_binary(dm, tmp_path / "c.bin")
        g = WeightedGraph(*read_nonzero_pairs_binary(tmp_path / "c.bin"))
        sq = dense(dm)
        assert g.ids == dm.ids and graph_square(g).tobytes() == sq.tobytes()
        assert np.all(g.w > 0) and np.all(g.i < g.j)
        assert np.allclose(g.degrees(), sq.sum(axis=1), rtol=1e-15, atol=0)
        assert g.total_weight() == pytest.approx(sq.sum() / 2.0, rel=1e-15)
