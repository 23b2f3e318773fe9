"""Partition scoring: ARI, partial-gold transform, sweeps, summaries."""

import itertools

import numpy as np
import pytest

from phyloclust import Partition
from phyloclust.errors import EmptyPartition, IdSetMismatch
from phyloclust.evaluation import (
    ReferenceSet,
    adjusted_rand_index,
    cutpoint_sweep,
    method_cocluster_matrix,
    partial_gold_transform,
    partition_summary,
    reference_ari,
)
from phyloclust.threshold import ClusterCriteria, Statistic


def pair_counting_ari(p, q):
    """ARI from the four pair-agreement counts, nothing shared with the
    contingency-table implementation."""
    ids = p.ids()
    n11 = n00 = n10 = n01 = 0
    for a, b in itertools.combinations(ids, 2):
        same_p = p.label_of(a) == p.label_of(b)
        same_q = q.label_of(a) == q.label_of(b)
        if same_p and same_q:
            n11 += 1
        elif same_p:
            n10 += 1
        elif same_q:
            n01 += 1
        else:
            n00 += 1
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0 if p.same_grouping(q) else 0.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def random_partition(rng, ids):
    k = int(rng.integers(1, len(ids) + 1))
    return Partition.from_labels(ids, [str(int(v)) for v in rng.integers(0, k, len(ids))])


def test_ari_identical_is_one():
    p = Partition.from_labels(["a", "b", "c", "d"], ["1", "1", "2", "2"])
    assert adjusted_rand_index(p, p) == 1.0


def test_ari_crossed_pairs():
    p = Partition.from_labels(["a", "b", "c", "d"], ["1", "1", "2", "2"])
    q = Partition.from_labels(["a", "b", "c", "d"], ["1", "2", "1", "2"])
    assert adjusted_rand_index(p, q) == pytest.approx(-0.5, abs=1e-15)


def test_ari_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(3)
    ids = [f"s{i}" for i in range(10)]
    for _ in range(50):
        p = random_partition(rng, ids)
        q = random_partition(rng, ids)
        assert adjusted_rand_index(p, q) == adjusted_rand_index(q, p)
        shuffled = Partition.from_labels(
            ids, [f"z{p.label_of(i)}" for i in ids]
        )
        assert adjusted_rand_index(shuffled, q) == adjusted_rand_index(p, q)


def test_ari_degenerate_cases():
    ids = ["a", "b", "c"]
    singles = Partition.from_labels(ids, ["1", "2", "3"])
    lump = Partition.from_labels(ids, ["1", "1", "1"])
    assert adjusted_rand_index(singles, singles) == 1.0
    assert adjusted_rand_index(lump, lump) == 1.0
    assert adjusted_rand_index(singles, lump) == pair_counting_ari(singles, lump)


def test_ari_matches_pair_counting_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 13))
        ids = [f"s{i}" for i in range(n)]
        p = random_partition(rng, ids)
        q = random_partition(rng, ids)
        assert adjusted_rand_index(p, q) == pytest.approx(
            pair_counting_ari(p, q), abs=1e-12
        )


S1_IDS = [f"s{i}" for i in range(1, 11)]


def s1_reference():
    return ReferenceSet(
        reference=Partition.from_labels(S1_IDS[:6], ["1", "1", "1", "2", "2", "2"]),
        universe=tuple(S1_IDS),
    )


def test_partial_gold_worked_example():
    candidate = Partition.from_labels(
        S1_IDS, ["1", "1", "2", "3", "3", "3", "3", "4", "4", "5"]
    )
    transformed, gold = partial_gold_transform(candidate, s1_reference())
    assert [transformed.label_of(i) for i in S1_IDS] == [
        "1", "1", "2", "3", "3", "3", "3", "4", "4", "4"
    ]
    assert [gold.label_of(i) for i in S1_IDS] == [
        "1", "1", "1", "2", "2", "2", "3", "3", "3", "3"
    ]


def test_partial_gold_identity_scores_one():
    candidate = Partition.from_labels(
        S1_IDS, ["1", "1", "1", "2", "2", "2", "9", "9", "9", "9"]
    )
    assert reference_ari(candidate, s1_reference()) == 1.0


def test_partial_gold_all_singletons_collapse():
    candidate = Partition.from_labels(S1_IDS, [str(i) for i in range(10)])
    transformed, _ = partial_gold_transform(candidate, s1_reference())
    outside = {transformed.label_of(i) for i in S1_IDS[6:]}
    assert len(outside) == 1
    touching = {transformed.label_of(i) for i in S1_IDS[:6]}
    assert len(touching) == 6
    assert not outside & touching


def test_partial_gold_requires_universe_coverage():
    candidate = Partition.from_labels(S1_IDS[:4], ["1"] * 4)
    with pytest.raises(IdSetMismatch):
        partial_gold_transform(candidate, s1_reference())


def test_partial_gold_keeps_touching_coclusters():
    rng = np.random.default_rng(17)
    ref = s1_reference()
    for _ in range(40):
        candidate = random_partition(rng, S1_IDS)
        transformed, _ = partial_gold_transform(candidate, ref)
        touching_ids = [
            i for i in S1_IDS
            if any(candidate.label_of(i) == candidate.label_of(r)
                   for r in S1_IDS[:6])
        ]
        for a, b in itertools.combinations(touching_ids, 2):
            before = candidate.label_of(a) == candidate.label_of(b)
            after = transformed.label_of(a) == transformed.label_of(b)
            assert before == after


def test_reference_validation():
    with pytest.raises(IdSetMismatch):
        ReferenceSet(
            reference=Partition.from_labels(["zz"], ["1"]),
            universe=("a", "b"),
        )


def _table_runner(table, gold):
    """Sweep runner that plays back canned partitions per grid cell."""

    def run(criteria: ClusterCriteria) -> Partition:
        return table.get((criteria.support_min, criteria.distance_max), gold)

    return run


def test_sweep_unique_max_found():
    ids = [f"s{i}" for i in range(1, 11)]
    ref = ReferenceSet(
        reference=Partition.from_labels(ids[:6], ["1", "1", "1", "2", "2", "2"]),
        universe=tuple(ids),
    )
    gold_like = Partition.from_labels(
        ids, ["1", "1", "1", "2", "2", "2", "7", "7", "7", "7"]
    )
    noise = Partition.from_labels(ids, [str(i % 2) for i in range(10)])
    table = {}
    for s in (0.70, 0.90, 0.95):
        for d in (0.015, 0.03, 0.045, 0.068, 0.077):
            table[(s, d)] = noise
    table[(0.70, 0.077)] = gold_like
    best, score, grid = cutpoint_sweep(_table_runner(table, noise), ref)
    assert (best.support_min, best.distance_max) == (0.70, 0.077)
    assert score == 1.0
    assert len(grid) == 15


def test_sweep_tie_prefers_smaller_distance_then_larger_support():
    ids = [f"s{i}" for i in range(1, 11)]
    ref = ReferenceSet(
        reference=Partition.from_labels(ids[:6], ["1", "1", "1", "2", "2", "2"]),
        universe=tuple(ids),
    )
    gold_like = Partition.from_labels(
        ids, ["1", "1", "1", "2", "2", "2", "7", "7", "7", "7"]
    )
    best, _, _ = cutpoint_sweep(_table_runner({}, gold_like), ref)
    # every cell ties at 1.0: smallest distance wins, then largest support
    assert best.distance_max == 0.015
    assert best.support_min == 0.95


def test_sweep_grid_order_invariant():
    ids = [f"s{i}" for i in range(1, 11)]
    ref = s1_reference()
    rng = np.random.default_rng(23)
    table = {}
    parts = [random_partition(rng, S1_IDS) for _ in range(6)]
    support_grid = (0.70, 0.90)
    distance_grid = (0.01, 0.02, 0.03)
    cells = [(s, d) for s in support_grid for d in distance_grid]
    for cell, part in zip(cells, parts):
        table[cell] = part
    runner = _table_runner(table, parts[0])
    a = cutpoint_sweep(runner, ref, support_grid, distance_grid)
    b = cutpoint_sweep(runner, ref, support_grid[::-1], distance_grid[::-1])
    assert (a[0].support_min, a[0].distance_max) == (b[0].support_min, b[0].distance_max)
    assert a[1] == b[1]


def test_sweep_single_cell():
    ref = s1_reference()
    part = Partition.from_labels(S1_IDS, ["1"] * 10)
    best, score, grid = cutpoint_sweep(
        _table_runner({}, part), ref, (0.8,), (0.02,)
    )
    assert (best.support_min, best.distance_max) == (0.8, 0.02)
    assert list(grid) == [(0.8, 0.02)]


def test_cocluster_identical_partitions():
    ids = [f"s{i}" for i in range(6)]
    p = Partition.from_labels(ids, ["1", "1", "1", "2", "2", "2"])
    dm = method_cocluster_matrix([p] * 6, ids)
    sq = dm.square()
    pos = {ident: k for k, ident in enumerate(dm.ids)}
    assert sorted(dm.ids) == sorted(ids)
    for a, b in itertools.combinations(ids, 2):
        expect = 1.0 if p.label_of(a) == p.label_of(b) else 0.0
        assert sq[pos[a], pos[b]] == expect


def test_cocluster_drops_universal_singletons():
    ids = ["a", "b", "c"]
    p = Partition.from_labels(ids, ["1", "1", "2"])
    q = Partition.from_labels(ids, ["1", "1", "3"])
    dm = method_cocluster_matrix([p, q], ids)
    assert set(dm.ids) == {"a", "b"}


def test_cocluster_matches_manual_counts():
    rng = np.random.default_rng(29)
    ids = [f"s{i}" for i in range(15)]
    parts = [random_partition(rng, ids) for _ in range(3)]
    dm = method_cocluster_matrix(parts, ids)
    sq = dm.square()
    pos = {ident: k for k, ident in enumerate(dm.ids)}
    for a, b in itertools.combinations(dm.ids, 2):
        manual = sum(p.label_of(a) == p.label_of(b) for p in parts) / 3.0
        assert sq[pos[a], pos[b]] == pytest.approx(manual)
        assert sq[pos[a], pos[b]] in (0.0, 1 / 3, 2 / 3, 1.0)


def test_summary_hand_example():
    p = Partition.from_labels(["a", "b", "c"], ["1", "2", "2"])
    s = partition_summary(p)
    assert s.num_ids == 3
    assert s.num_clusters == 2
    assert s.mean_size == pytest.approx(1.5)
    assert s.mean_size_no_singletons == pytest.approx(2.0)
    assert s.num_singletons == 1
    assert s.num_clusters_ge2 == 1


def test_summary_matches_recount():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        ids = [f"s{i}" for i in range(n)]
        p = random_partition(rng, ids)
        s = partition_summary(p)
        sizes = sorted(len(c) for c in p.clusters().values())
        multi = [z for z in sizes if z >= 2]
        assert s.num_ids == n
        assert s.num_clusters == len(sizes)
        assert s.mean_size == pytest.approx(sum(sizes) / len(sizes))
        assert s.max_size == max(sizes)
        assert s.num_singletons == sizes.count(1)
        assert s.num_clusters_ge2 == len(multi)
        if multi:
            assert s.mean_size_no_singletons == pytest.approx(
                sum(multi) / len(multi)
            )
            mid = len(multi) // 2
            expect_median = (
                multi[mid]
                if len(multi) % 2
                else (multi[mid - 1] + multi[mid]) / 2.0
            )
            assert s.median_size_no_singletons == pytest.approx(expect_median)


def test_summary_empty_partition_rejected():
    with pytest.raises(EmptyPartition):
        partition_summary(Partition.from_labels([], []))
