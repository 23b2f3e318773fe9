"""Partition scoring: ARI, partial-gold transform, sweeps, co-clustering."""

import itertools

import numpy as np
import pytest

from phyloclust import MatrixKind, Partition
from phyloclust.distance import read_matrix_binary
from phyloclust.errors import IdSetMismatch
from phyloclust.evaluation import (
    ReferenceSet,
    Statistic,
    adjusted_rand_index,
    cutpoint_sweep,
    method_cocluster_matrix,
    partial_gold_transform,
    reference_ari,
)
from phyloclust.threshold import ClusterCriteria

from conftest import condensed, dense


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


def _points(supports, distances):
    return [
        ClusterCriteria(s, d, Statistic.MAX_PAIRWISE_P)
        for s in supports
        for d in distances
    ]


# the sweep command's default grid
CLI_POINTS = _points((0.70, 0.90, 0.95), (0.015, 0.03, 0.045, 0.068, 0.077))


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
    best, score, grid = cutpoint_sweep(_table_runner(table, noise), ref, CLI_POINTS)
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
    best, _, _ = cutpoint_sweep(_table_runner({}, gold_like), ref, CLI_POINTS)
    # every cell ties at 1.0: smallest distance wins, then largest support
    assert best.distance_max == 0.015
    assert best.support_min == 0.95


def test_sweep_grid_order_invariant():
    ids = [f"s{i}" for i in range(1, 11)]
    ref = s1_reference()
    rng = np.random.default_rng(23)
    table = {}
    parts = [random_partition(rng, S1_IDS) for _ in range(6)]
    points = _points((0.70, 0.90), (0.01, 0.02, 0.03))
    for c, part in zip(points, parts):
        table[(c.support_min, c.distance_max)] = part
    runner = _table_runner(table, parts[0])
    a = cutpoint_sweep(runner, ref, points)
    b = cutpoint_sweep(runner, ref, points[::-1])
    assert (a[0].support_min, a[0].distance_max) == (b[0].support_min, b[0].distance_max)
    assert a[1] == b[1]


def test_sweep_single_cell():
    ref = s1_reference()
    part = Partition.from_labels(S1_IDS, ["1"] * 10)
    runner = _table_runner({}, part)
    best, score, grid = cutpoint_sweep(runner, ref, _points((0.8,), (0.02,)))
    assert (best.support_min, best.distance_max) == (0.8, 0.02)
    assert list(grid) == [(0.8, 0.02)]


def cocluster_matrix(partitions, ids, path):
    """method_cocluster_matrix's file, read back."""
    method_cocluster_matrix(partitions, ids, path)
    return read_matrix_binary(path, MatrixKind.COCLUSTER)


def test_cocluster_identical_partitions(tmp_path):
    ids = [f"s{i}" for i in range(6)]
    p = Partition.from_labels(ids, ["1", "1", "1", "2", "2", "2"])
    dm = cocluster_matrix([p] * 6, ids, tmp_path / "c.bin")
    sq = dense(dm)
    pos = {ident: k for k, ident in enumerate(dm.ids)}
    assert sorted(dm.ids) == sorted(ids)
    for a, b in itertools.combinations(ids, 2):
        expect = 1.0 if p.label_of(a) == p.label_of(b) else 0.0
        assert sq[pos[a], pos[b]] == expect


def test_cocluster_drops_universal_singletons(tmp_path):
    ids = ["a", "b", "c"]
    p = Partition.from_labels(ids, ["1", "1", "2"])
    q = Partition.from_labels(ids, ["1", "1", "3"])
    dm = cocluster_matrix([p, q], ids, tmp_path / "c.bin")
    assert set(dm.ids) == {"a", "b"}


def test_cocluster_matches_manual_counts(tmp_path):
    rng = np.random.default_rng(29)
    ids = [f"s{i}" for i in range(15)]
    parts = [random_partition(rng, ids) for _ in range(3)]
    dm = cocluster_matrix(parts, ids, tmp_path / "c.bin")
    sq = dense(dm)
    pos = {ident: k for k, ident in enumerate(dm.ids)}
    for a, b in itertools.combinations(dm.ids, 2):
        manual = sum(p.label_of(a) == p.label_of(b) for p in parts) / 3.0
        assert sq[pos[a], pos[b]] == pytest.approx(manual)
        assert sq[pos[a], pos[b]] in (0.0, 1 / 3, 2 / 3, 1.0)


def square_and_permute_cocluster(partitions, ids):
    """The square-then-permute construction: an n x n equality sum over
    the ids that are non-singleton somewhere, permuted in place into the
    order of their label tuples (then ids)."""
    keep = set()
    for p in partitions:
        keep |= p.restrict(ids).multi_member_ids()
    kept = sorted(keep)
    n = len(kept)
    freq = np.zeros((n, n))
    for p in partitions:
        codes = {}
        vec = np.array([codes.setdefault(p.assignment[i], len(codes)) for i in kept])
        freq += vec[:, None] == vec[None, :]
    freq /= len(partitions)
    order = sorted(range(n), key=lambda k: ([p.assignment[kept[k]] for p in partitions], kept[k]))
    for col in freq.T:
        col[:] = col[order]
    for row in freq:
        row[:] = row[order]
    return [kept[k] for k in order], freq[np.triu_indices(n, k=1)]


def test_cocluster_matches_square_and_permute_reference(tmp_path):
    rng = np.random.default_rng(61)
    for trial in range(30):
        n = int(rng.integers(1, 30))
        ids = [f"s{i}" for i in range(n)]
        parts = [random_partition(rng, ids) for _ in range(int(rng.integers(1, 6)))]
        dm = cocluster_matrix(parts, ids, tmp_path / "c.bin")
        ref_ids, ref_vals = square_and_permute_cocluster(parts, ids)
        assert dm.ids == ref_ids, trial
        assert condensed(dm).tobytes() == ref_vals.tobytes(), trial


def test_cocluster_rows_group_ids_every_partition_joins(tmp_path):
    """Ids that every partition puts together are adjacent rows, whatever
    their names."""
    ids = ["z", "a", "m", "b", "y", "c"]
    p = Partition.from_labels(ids, ["1", "2", "1", "2", "1", "3"])
    q = Partition.from_labels(ids, ["7", "5", "7", "5", "7", "5"])
    dm = cocluster_matrix([p, q], ids, tmp_path / "c.bin")
    assert dm.ids == ["m", "y", "z", "a", "b", "c"]
