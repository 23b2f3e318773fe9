"""Largest-gap friendship clustering."""

import math

import numpy as np
import pytest

from phyloclust import MatrixKind, Partition, read_matrix_binary, write_matrix_binary
from phyloclust.errors import UndefinedDistance
from phyloclust.gap import GapConfig, _row_cut, gap_cluster

from conftest import blob_matrix, dense, square_dm


def friend_set(dm, i, config=GapConfig()):
    """Friend indices of row i: the others at or under the row's cut."""
    sq = dense(dm)
    others = [j for j in range(dm.n) if j != i]
    cut = _row_cut(np.sort(sq[i, others]), config.search_quantile)
    return {j for j in others if sq[i, j] <= cut}


def reference_gap_cluster(dm, config=GapConfig()):
    """The stable-argsort procedure: each row's friends are the sorted
    prefix before the first largest window gap; components of the
    either-direction friendship graph are the clusters."""
    n = dm.n
    sq = dense(dm)
    np.fill_diagonal(sq, -np.inf)
    order = np.argsort(sq, axis=1, kind="stable")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(n):
        row_order = order[i, 1:]
        row = sq[i, row_order]
        friends = row_order[:0]
        if n - 1 == 1:
            friends = row_order[:1]
        else:
            m = math.ceil(config.search_quantile * (n - 1))
            if m >= 2:
                gaps = row[1:m] - row[: m - 1]
                j = int(np.argmax(gaps))
                if gaps[j] > 0.0:
                    friends = row_order[: j + 1]
        for k in friends:
            parent[find(int(k))] = find(i)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(dm.ids[i])
    return Partition.from_clusters(groups.values())


def test_friend_set_dominant_gap():
    # row 0 sees (0.01, 0.012, 0.30, 0.31): the 0.288 jump wins
    arr = np.zeros((5, 5))
    dists = [0.01, 0.012, 0.30, 0.31]
    for j, d in enumerate(dists, start=1):
        arr[0, j] = arr[j, 0] = d
    for i in range(1, 5):
        for j in range(i + 1, 5):
            arr[i, j] = arr[j, i] = 0.5
    dm = square_dm([f"q{i}" for i in range(5)], arr)
    assert friend_set(dm, 0, GapConfig(0.90)) == {1, 2}


def test_friend_set_all_equal_is_empty():
    ids, arr = blob_matrix([4], 0.2, 0.2)
    dm = square_dm(ids, arr)
    assert friend_set(dm, 0, GapConfig(0.90)) == set()


def test_friend_set_pair_always_linked():
    dm = square_dm(["x", "y"], [[0.0, 0.9], [0.9, 0.0]])
    assert friend_set(dm, 0) == {1}
    assert friend_set(dm, 1) == {0}


def test_friend_set_matches_exhaustive_scan():
    """Independent re-derivation of the rule: sort, window, largest jump."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(3, 16))
        pts = np.concatenate([rng.normal(0, 0.02, n // 2), rng.normal(1, 0.02, n - n // 2)])
        arr = np.abs(pts[:, None] - pts[None, :])
        dm = square_dm([f"p{i}" for i in range(n)], arr)
        q = float(rng.choice([0.5, 0.75, 0.90, 1.0]))
        for i in range(n):
            row = sorted((arr[i, j], j) for j in range(n) if j != i)
            m = math.ceil(q * (n - 1))
            expect = set()
            if n - 1 == 1:
                expect = {row[0][1]}
            elif m >= 2:
                window = [d for d, _ in row[:m]]
                gaps = [b - a for a, b in zip(window, window[1:])]
                best = max(range(len(gaps)), key=lambda k: (gaps[k], -k))
                if gaps[best] > 0:
                    expect = {j for _, j in row[: best + 1]}
            assert friend_set(dm, i, GapConfig(q)) == expect


@pytest.mark.parametrize("q", [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
def test_gap_matches_argsort_reference_with_ties(q):
    """Values quantized to a few levels put ties at the friend cutoff."""
    rng = np.random.default_rng(int(q * 1000))
    for n in [2, 3, *rng.integers(4, 48, size=58).tolist()]:
        k = int(rng.integers(1, 5))
        levels = rng.choice([0.0, 0.01, 0.02, 0.05, 0.1, 0.3], size=k)
        arr = rng.choice(levels, size=(n, n))
        arr = np.triu(arr, 1)
        arr = arr + arr.T
        dm = square_dm([f"t{i}" for i in range(n)], arr)
        expect = reference_gap_cluster(dm, GapConfig(q))
        assert gap_cluster(dm, GapConfig(q)).assignment == expect.assignment


def test_two_blobs_recovered():
    ids, arr = blob_matrix([5, 5], 0.01, 0.5)
    part = gap_cluster(square_dm(ids, arr), GapConfig(0.90))
    sizes = sorted(len(c) for c in part.clusters().values())
    assert sizes == [5, 5]
    assert part.label_of("q0") != part.label_of("q5")


def test_pair_is_one_cluster():
    dm = square_dm(["x", "y"], [[0.0, 3.0], [3.0, 0.0]])
    part = gap_cluster(dm)
    assert part.num_clusters() == 1


def test_undefined_distance_rejected():
    arr = np.array([[0.0, np.nan, 0.1], [np.nan, 0.0, 0.1], [0.1, 0.1, 0.0]])
    dm = square_dm(["a", "b", "c"], arr)
    with pytest.raises(UndefinedDistance):
        gap_cluster(dm)


def test_undefined_distance_names_first_pair():
    # undefined pairs (b, c) and (a, d): (a, d) comes first in row order
    arr = np.full((4, 4), 0.1)
    np.fill_diagonal(arr, 0.0)
    arr[1, 2] = arr[2, 1] = arr[0, 3] = arr[3, 0] = np.nan
    with pytest.raises(UndefinedDistance) as err:
        gap_cluster(square_dm(["a", "b", "c", "d"], arr))
    assert (err.value.i, err.value.j) == ("a", "d")


def test_undefined_distance_in_a_binary_file_names_its_pair(tmp_path):
    """A NaN pair read from a .bin file in strips stops gap as one held in
    memory does; 300 ids take several strips, and the pair lies in a
    later one."""
    rng = np.random.default_rng(83)
    n = 300
    arr = rng.random((n, n))
    arr = arr + arr.T
    np.fill_diagonal(arr, 0.0)
    arr[250, 290] = arr[290, 250] = np.nan
    ids = [f"t{k}" for k in range(n)]
    write_matrix_binary(square_dm(ids, arr), tmp_path / "p.bin")
    dm = read_matrix_binary(tmp_path / "p.bin")
    assert len(list(dm.strips())) > 1
    with pytest.raises(UndefinedDistance) as err:
        gap_cluster(dm)
    assert (err.value.i, err.value.j) == ("t250", "t290")


def test_scale_invariance():
    rng = np.random.default_rng(29)
    pts = np.concatenate([rng.normal(0, 0.05, 6), rng.normal(2, 0.05, 7)])
    arr = np.abs(pts[:, None] - pts[None, :])
    ids = [f"p{i}" for i in range(13)]
    base = gap_cluster(square_dm(ids, arr))
    for c in (0.001, 7.0, 1e6):
        scaled = gap_cluster(square_dm(ids, arr * c))
        assert scaled.same_grouping(base)


def test_separable_blobs_never_split():
    """When every within-blob distance sits under every between-blob
    distance and the window covers the blob, components keep blobs whole."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 6)) for _ in range(k)]
        n = sum(sizes)
        arr = np.empty((n, n))
        start = 0
        blocks = []
        for s in sizes:
            blocks.append(range(start, start + s))
            start += s
        for bi, rows in enumerate(blocks):
            for bj, cols in enumerate(blocks):
                for i in rows:
                    for j in cols:
                        if i == j:
                            arr[i, j] = 0.0
                        elif bi == bj:
                            arr[i, j] = rng.uniform(0.001, 0.01)
                        else:
                            arr[i, j] = rng.uniform(0.5, 0.6)
        arr = np.minimum(arr, arr.T)
        part = gap_cluster(square_dm([f"p{i}" for i in range(n)], arr))
        for rows in blocks:
            labels = {part.label_of(f"p{i}") for i in rows}
            assert len(labels) == 1


def test_planted_simulation_recovery():
    from phyloclust import adjusted_rand_index, build_distance_matrix
    from phyloclust.simulate import SimConfig, simulate_alignment, simulate_tree

    hits = []
    for seed in range(3):
        cfg = SimConfig(
            cluster_sizes=(8,) * 6,
            within_mean=0.002,
            between_mean=0.4,
            stem_min=0.08,
            rng_seed=seed,
        )
        tree, planted = simulate_tree(cfg)
        aln = simulate_alignment(tree, cfg)
        dm = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
        part = gap_cluster(dm, GapConfig(0.90))
        hits.append(adjusted_rand_index(part, planted))
    assert min(hits) >= 0.90
