"""Support-and-distance clade clustering."""

import itertools
import math
import statistics

import numpy as np
import pytest

from phyloclust import (
    Alignment,
    MatrixKind,
    SequenceRecord,
    build_distance_matrix,
    parse_fasta,
    parse_newick,
)
from phyloclust import distance
from phyloclust.errors import MissingSequence, UnannotatedSupport
from phyloclust.threshold import (
    ClusterCriteria,
    Statistic,
    threshold_cluster,
    threshold_runner,
)
from phyloclust.simulate import SimConfig, simulate_alignment, simulate_tree

from conftest import (
    condensed,
    condensed_dm,
    decorate_tree,
    dense,
    patristic_dm,
    square_dm,
)

TWO_CHERRIES = "((a:0.005,b:0.005)1.0:0.15,(c:0.005,d:0.005)1.0:0.15);"

# within-cherry pairs differ at 1 of 100 sites, across cherries at 30
_CHERRY_FASTA = (
    ">a\n" + "A" * 100 + "\n"
    ">b\n" + "C" + "A" * 99 + "\n"
    ">c\n" + "A" * 70 + "C" * 30 + "\n"
    ">d\n" + "G" + "A" * 69 + "C" * 30 + "\n"
)


def test_two_cherries_split():
    tree = parse_newick(TWO_CHERRIES)
    aln = parse_fasta(_CHERRY_FASTA)
    part = threshold_cluster(
        tree, aln, ClusterCriteria(0.70, 0.045, Statistic.MAX_PAIRWISE_P)
    )
    assert sorted(sorted(c) for c in part.clusters().values()) == [
        ["a", "b"],
        ["c", "d"],
    ]


def test_two_cherries_loose_threshold_keeps_root():
    tree = parse_newick(TWO_CHERRIES)
    aln = parse_fasta(_CHERRY_FASTA)
    part = threshold_cluster(
        tree, aln, ClusterCriteria(0.70, 0.5, Statistic.MAX_PAIRWISE_P)
    )
    assert part.num_clusters() == 1
    assert len(next(iter(part.clusters().values()))) == 4


def test_root_needs_no_support_annotation():
    """The root clade passes any support cut even on an unannotated tree,
    as long as no other clade has to be consulted."""
    tree = parse_newick("(a:0.001,b:0.001);")
    aln = parse_fasta(">a\n" + "A" * 50 + "\n>b\n" + "A" * 50 + "\n")
    part = threshold_cluster(
        tree, aln, ClusterCriteria(0.0, 0.045, Statistic.MAX_PAIRWISE_P)
    )
    assert part.num_clusters() == 1


def test_unannotated_support_rejected():
    tree = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")  # no support values
    with pytest.raises(UnannotatedSupport):
        threshold_cluster(
            tree, None, ClusterCriteria(0.70, 10.0, Statistic.MAX_PATRISTIC)
        )


def test_max_p_requires_sequences():
    tree = parse_newick(TWO_CHERRIES)
    with pytest.raises(MissingSequence, match="tree tip 'a' has no aligned"):
        threshold_cluster(
            tree, None, ClusterCriteria(0.70, 0.045, Statistic.MAX_PAIRWISE_P)
        )


def test_undefined_distance_disqualifies():
    """A tip with no comparable sites can never sit inside a cluster."""
    tree = parse_newick("((a:0.001,b:0.001)1.0:0.1,c:0.1);")
    aln = parse_fasta(">a\nNNNN\n>b\nACGT\n>c\nACGA\n")
    part = threshold_cluster(
        tree, aln, ClusterCriteria(0.0, 0.9, Statistic.MAX_PAIRWISE_P)
    )
    assert len(part.clusters()[part.label_of("a")]) == 1


def test_statistics_differ_on_skewed_clade():
    # {a,b,c} pairwise distances 0.025, 0.05, 0.055: the median sneaks
    # under a 0.05 ceiling, the max does not
    tree = parse_newick(
        "(((a:0.01,b:0.015)1.0:0.005,c:0.035)1.0:0.3,d:0.3);"
    )
    crit = ClusterCriteria(0.70, 0.05, Statistic.MEDIAN_PATRISTIC)
    med = threshold_cluster(tree, None, crit)
    mx = threshold_cluster(
        tree, None, ClusterCriteria(0.70, 0.05, Statistic.MAX_PATRISTIC)
    )
    assert len(med.clusters()[med.label_of("a")]) == 3
    assert len(mx.clusters()[mx.label_of("a")]) == 2


@pytest.mark.parametrize(
    "statistic", [Statistic.MEDIAN_PATRISTIC, Statistic.MAX_PATRISTIC]
)
def test_patristic_statistic_rejects_a_matrix(statistic):
    """Patristic distances come from the tree alone."""
    tree = parse_newick(TWO_CHERRIES)
    with pytest.raises(ValueError):
        threshold_cluster(
            tree, patristic_dm(tree), ClusterCriteria(0.70, 0.05, statistic)
        )


def test_paper_selected_configuration_runs():
    tree, planted = simulate_tree(SimConfig(cluster_sizes=(5, 4, 3), rng_seed=2))
    part = threshold_cluster(
        tree, None, ClusterCriteria(0.70, 0.077, Statistic.MAX_PATRISTIC)
    )
    assert set(part.ids()) == set(planted.ids())


def test_output_clusters_are_clades():
    for seed in range(6):
        cfg = SimConfig(cluster_sizes=(6, 5, 4), rng_seed=seed)
        tree, _ = simulate_tree(cfg)
        aln = simulate_alignment(tree, cfg)
        part = threshold_cluster(
            tree, aln, ClusterCriteria(0.70, 0.05, Statistic.MAX_PAIRWISE_P)
        )
        assert sorted(part.ids()) == sorted(tree.tip_labels())
        masks = set(tree.node_masks().values())
        index = tree.tip_index()
        for members in part.clusters().values():
            mask = 0
            for m in members:
                mask |= 1 << index[m]
            assert len(members) == 1 or mask in masks


def test_refinement_monotone_in_distance():
    grid = [0.015, 0.03, 0.045, 0.068, 0.077]
    for seed in range(10):
        cfg = SimConfig(cluster_sizes=(8, 7, 5), within_mean=0.004, rng_seed=seed)
        tree, _ = simulate_tree(cfg)
        aln = simulate_alignment(tree, cfg)
        parts = [
            threshold_cluster(
                tree, aln, ClusterCriteria(0.70, d, Statistic.MAX_PAIRWISE_P)
            )
            for d in grid
        ]
        for tight, loose in zip(parts, parts[1:]):
            assert _refines(tight, loose)


def _refines(tight, loose):
    for members in tight.clusters().values():
        target = {loose.label_of(m) for m in members}
        if len(target) != 1:
            return False
    return True


def test_support_monotone():
    tree = parse_newick(
        "(((a:0.01,b:0.01)0.6:0.01,c:0.01)0.95:0.2,(d:0.01,e:0.01)0.8:0.2);"
    )
    parts = [
        threshold_cluster(
            tree, None, ClusterCriteria(s, 0.08, Statistic.MAX_PATRISTIC)
        )
        for s in (0.5, 0.7, 0.9, 0.99)
    ]
    for high, low in zip(parts[1:], parts):
        assert _refines(high, low)


def test_determinism():
    cfg = SimConfig(cluster_sizes=(9, 6), rng_seed=3)
    tree, _ = simulate_tree(cfg)
    aln = simulate_alignment(tree, cfg)
    crit = ClusterCriteria(0.70, 0.045, Statistic.MAX_PAIRWISE_P)
    a = threshold_cluster(tree, aln, crit)
    b = threshold_cluster(tree.copy(), aln, crit)
    assert a.assignment == b.assignment


def test_criteria_validation():
    with pytest.raises(ValueError):
        ClusterCriteria(-0.1, 0.05, Statistic.MAX_PAIRWISE_P)
    with pytest.raises(ValueError):
        ClusterCriteria(0.5, 0.0, Statistic.MAX_PAIRWISE_P)


# ------------------------------------------------- naive top-down oracle


def _pair_values(tree, dm):
    """Each node's explicit list of within-clade pair values, by id(node)."""
    out = {}
    sq, pos = dense(dm), {ident: k for k, ident in enumerate(dm.ids)}

    def tips(node):
        if node.is_tip:
            return [node.label]
        return [t for c in node.children for t in tips(c)]

    for node in tree.preorder():
        members = tips(node)
        out[id(node)] = (
            members,
            [sq[pos[a], pos[b]] for a, b in itertools.combinations(members, 2)],
        )
    return out


def _oracle(tree, pair_values, crit):
    """Top-down search; a NaN among a clade's pairs fails the clade."""

    def passes(vals):
        if any(math.isnan(v) for v in vals):
            return False
        if crit.statistic is Statistic.MEDIAN_PATRISTIC:
            return statistics.median(vals) <= crit.distance_max
        return max(vals) <= crit.distance_max

    out, stack = set(), [tree.root]
    while stack:
        node = stack.pop()
        members, vals = pair_values[id(node)]
        support = 1.0 if node is tree.root else (node.support or 0.0)
        if len(members) < 2 or (support >= crit.support_min and passes(vals)):
            out.add(frozenset(members))
        else:
            stack.extend(node.children)
    return out


def _clusters(part):
    return {frozenset(m) for m in part.clusters().values()}


def _with_nans(dm, rng, rate):
    vals = condensed(dm)
    vals[rng.random(vals.size) < rate] = np.nan
    return condensed_dm(dm.ids, vals, dm.kind)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(16))
def test_threshold_matches_pair_list_oracle(seed, monkeypatch):
    """Random trees with random supports and unary nodes; p-distances in a
    shuffled id order and from an alignment holding all-N and all-gap
    sequences, and patristic distances summed from the tree.  Odd seeds
    read every block in row chunks of a few pairs; in half the seeds the
    branch lengths lie on a grid of 0.01 steps, zero included, so that
    many path lengths tie with the cutoffs.  Each case's whole grid also
    runs on one threshold_runner."""
    if seed % 2:
        monkeypatch.setattr(distance, "BLOCK_PAIRS", 3)
    rng = np.random.default_rng(seed)
    cfg = SimConfig(
        cluster_sizes=(7, 5, 4, 3, 2),
        within_mean=0.02,
        between_mean=0.08,
        seq_length=80,
        rng_seed=seed,
    )
    tree, _ = simulate_tree(cfg)
    aln = simulate_alignment(tree, cfg)
    decorate_tree(tree, rng)
    if seed // 2 % 2:
        for node in tree.preorder():
            if node.parent is not None:
                node.length = int(rng.integers(0, 4)) * 0.01

    p = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    order = rng.permutation(p.n)
    shuffled = square_dm([p.ids[k] for k in order], dense(p)[np.ix_(order, order)])
    pat = patristic_dm(tree)
    blank = dict(zip(rng.choice(p.ids, 2, replace=False).tolist(), "N-"))
    holed = Alignment(
        [
            SequenceRecord(r.id, blank[r.id] * len(r.residues))
            if r.id in blank
            else r
            for r in aln.records
        ]
    )
    # (statistic, what threshold_cluster reads, the oracle's matrix)
    holed_p = build_distance_matrix(holed, MatrixKind.P_DISTANCE)
    nan_p = _with_nans(shuffled, rng, 0.01)
    cases = [
        (Statistic.MAX_PAIRWISE_P, holed, holed_p),
        (Statistic.MAX_PAIRWISE_P, shuffled, shuffled),
        (Statistic.MAX_PAIRWISE_P, nan_p, nan_p),
        (Statistic.MEDIAN_PATRISTIC, None, pat),
        (Statistic.MAX_PATRISTIC, None, pat),
    ]
    for stat, source, dm in cases:
        pair_values = _pair_values(tree, dm)
        vals = condensed(dm)
        finite = vals[~np.isnan(vals)]
        cutoffs = list(np.quantile(finite, [0.05, 0.3, 0.7]))
        # a clade's median and its lower middle value put the cutoff on
        # either side of a median whose two middle values straddle it
        clades = list(pair_values.values())
        for k in rng.choice(len(clades), 4, replace=False):
            vals = sorted(clades[k][1])
            if len(vals) >= 2 and not math.isnan(vals[-1]):
                cutoffs += [vals[(len(vals) - 1) // 2], statistics.median(vals)]
        grid = [
            ClusterCriteria(support, float(cut), stat)
            for cut in cutoffs
            if cut > 0
            for support in (0.0, 0.7, 0.95)
        ]
        run = threshold_runner(tree, source, grid)
        for crit in grid:
            want = _oracle(tree, pair_values, crit)
            assert _clusters(threshold_cluster(tree, source, crit)) == want, crit
            assert _clusters(run(crit)) == want, crit


def test_runner_answers_only_its_grid():
    """A max pass at the grid's largest cutoff cannot answer a larger one,
    and a grid takes one statistic and at least one point."""
    tree = parse_newick(TWO_CHERRIES)
    grid = [ClusterCriteria(0.7, d, Statistic.MAX_PATRISTIC) for d in (0.01, 0.05)]
    run = threshold_runner(tree, None, grid)
    assert [run(c).num_clusters() for c in grid] == [2, 2]
    with pytest.raises(ValueError, match="not a point of the prepared grid"):
        run(ClusterCriteria(0.7, 0.5, Statistic.MAX_PATRISTIC))
    median = ClusterCriteria(0.7, 0.05, Statistic.MEDIAN_PATRISTIC)
    with pytest.raises(ValueError, match="a grid takes one statistic"):
        threshold_runner(tree, None, grid + [median])
    with pytest.raises(ValueError, match="empty grid"):
        threshold_runner(tree, None, [])


@pytest.mark.parametrize("left", [True, False])
def test_ladder_reads_each_block_from_its_smaller_side(monkeypatch, left):
    """On a ladder every clade joins one tip to the rest, so max-p from an
    alignment makes one kernel call per internal node, whichever side the
    tip is on, and agrees with the pair-list oracle."""
    n = 40
    newick = "t0:0.01"
    for k in range(1, n):
        pair = (newick, f"t{k}:0.01") if left else (f"t{k}:0.01", newick)
        newick = f"({pair[0]},{pair[1]})0.9:0.01"
    tree = parse_newick(newick + ";")
    # t_k differs from t_j at |k - j| of 200 sites, so the clade of t0..t_k
    # has diameter k / 200
    aln = parse_fasta(
        "".join(f">t{k}\n{'C' * k}{'A' * (200 - k)}\n" for k in range(n))
    )
    p = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    pair_values = _pair_values(tree, p)

    calls = []
    real = distance._count_against
    monkeypatch.setattr(
        distance, "_count_against", lambda *a: calls.append(a[1]) or real(*a)
    )
    for cut, largest in ((0.02, 5), (0.05, 11), (1.0, n)):
        calls.clear()
        crit = ClusterCriteria(0.0, cut, Statistic.MAX_PAIRWISE_P)
        got = _clusters(threshold_cluster(tree, aln, crit))
        assert got == _oracle(tree, pair_values, crit)
        assert max(len(c) for c in got) == largest
        # the failing clade just above the largest cluster is read too
        assert len(calls) == min(largest, n - 1)


def test_nan_fails_a_clade_whose_median_passes():
    tree = parse_newick(
        "(((a:0.01,b:0.01)1.0:0.01,(c:0.01,d:0.01)1.0:0.01)1.0:0.5,"
        "(e:0.01,f:0.01)1.0:0.5);"
    )
    crit = ClusterCriteria(0.70, 0.1, Statistic.MEDIAN_PATRISTIC)
    assert _clusters(threshold_cluster(tree, None, crit)) == {
        frozenset("abcd"),
        frozenset("ef"),
    }
