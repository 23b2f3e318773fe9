"""Synthetic data generator: topologies, evolution, metadata."""

import collections
import datetime
import math

import numpy as np
import pytest

from phyloclust import MatrixKind, Stage, build_distance_matrix, newick_string
from phyloclust.simulate import (
    SimConfig,
    simulate_alignment,
    simulate_metadata,
    simulate_tree,
)

from conftest import condensed, pair_counts


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(cluster_sizes=())
    with pytest.raises(ValueError):
        SimConfig(cluster_sizes=(1,))  # needs two sequences overall
    with pytest.raises(ValueError):
        SimConfig(cluster_sizes=(3, 2), within_mean=0.2, between_mean=0.1)
    with pytest.raises(ValueError):
        SimConfig(cluster_sizes=(3, 2), phi_fraction=1.5)


def test_stem_min_default_tracks_within_mean():
    cfg = SimConfig(cluster_sizes=(3, 2), within_mean=0.004)
    assert cfg.stem_min == pytest.approx(0.012)
    explicit = SimConfig(cluster_sizes=(3, 2), stem_min=0.5)
    assert explicit.stem_min == 0.5


def test_single_pair_is_cherry():
    tree, planted = simulate_tree(SimConfig(cluster_sizes=(2,), rng_seed=1))
    assert sorted(tree.tip_labels()) == ["s1", "s2"]
    assert planted.num_clusters() == 1
    assert all(t.parent is tree.root for t in tree.tips())


def test_planted_clusters_are_clades():
    for seed in range(8):
        tree, planted = simulate_tree(
            SimConfig(cluster_sizes=(6, 5, 3, 1), rng_seed=seed)
        )
        masks = set(tree.node_masks().values())
        index = tree.tip_index()
        for members in planted.clusters().values():
            mask = 0
            for m in members:
                mask |= 1 << index[m]
            assert mask in masks


def test_supports_all_one():
    tree, _ = simulate_tree(SimConfig(cluster_sizes=(5, 4), rng_seed=2))
    for node in tree.preorder():
        if not node.is_tip and node.parent is not None:
            assert node.support == 1.0


def test_determinism():
    cfg = SimConfig(cluster_sizes=(5, 3), rng_seed=9, phi_fraction=0.5)
    t1, p1 = simulate_tree(cfg)
    t2, p2 = simulate_tree(cfg)
    assert newick_string(t1) == newick_string(t2)
    assert p1.assignment == p2.assignment
    a1 = simulate_alignment(t1, cfg)
    a2 = simulate_alignment(t2, cfg)
    assert [r.residues for r in a1.records] == [r.residues for r in a2.records]
    assert simulate_metadata(p1, cfg) == simulate_metadata(p2, cfg)


def test_topology_uniform_on_three_tips():
    """Three labelled rooted shapes exist; each should appear ~1/3."""
    counts = collections.Counter()
    for seed in range(1500):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(3,), rng_seed=seed))
        pairs = [
            tuple(sorted(t.label for t in node.children))
            for node in tree.preorder()
            if not node.is_tip and all(c.is_tip for c in node.children)
            and len(node.children) == 2
        ]
        counts[pairs[0]] += 1
    assert len(counts) == 3
    for v in counts.values():
        assert abs(v - 500) < 90  # ~5 sigma for a fair three-way split


def test_topology_uniform_on_four_tips():
    # 15 labelled rooted binary topologies on 4 tips; a fixed label
    # order makes masks comparable across draws
    seen = collections.Counter()
    for seed in range(3000):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(4,), rng_seed=seed))
        index = {lab: k for k, lab in enumerate(sorted(tree.tip_labels()))}
        masks = sorted(
            m for m in tree.node_masks(index).values() if bin(m).count("1") > 1
        )
        seen[tuple(masks)] += 1
    assert len(seen) == 15
    for v in seen.values():
        assert 120 <= v <= 290  # mean 200


def test_within_edge_lengths_match_mean():
    """Monte-Carlo check of the exponential edge-length regime."""
    cfg = SimConfig(cluster_sizes=(50,) * 110, within_mean=0.01, rng_seed=5)
    tree, planted = simulate_tree(cfg)
    index = tree.tip_index()
    cluster_masks = set()
    for members in planted.clusters().values():
        mask = 0
        for m in members:
            mask |= 1 << index[m]
        cluster_masks.add(mask)
    masks = tree.node_masks()
    lengths = []
    stack = [n for n in tree.preorder() if masks[id(n)] in cluster_masks]
    for root in stack:
        for child in root.children:
            queue = [child]
            while queue:
                node = queue.pop()
                lengths.append(node.length)
                queue.extend(node.children)
    assert len(lengths) >= 10_000
    assert abs(np.mean(lengths) - 0.01) <= 0.0005


def test_zero_length_tree_gives_identical_sequences():
    from phyloclust import parse_newick

    tree = parse_newick("((a:0,b:0):0,(c:0,d:0):0);")
    cfg = SimConfig(cluster_sizes=(2, 2), seq_length=200, rng_seed=3)
    aln = simulate_alignment(tree, cfg)
    seqs = {r.residues for r in aln.records}
    assert len(seqs) == 1


def test_alphabet_strict_acgt():
    cfg = SimConfig(cluster_sizes=(4, 3), seq_length=500, rng_seed=7)
    tree, _ = simulate_tree(cfg)
    aln = simulate_alignment(tree, cfg)
    assert set("".join(r.residues for r in aln.records)) <= set("ACGT")


def test_masking_introduces_n():
    cfg = SimConfig(cluster_sizes=(4, 3), seq_length=500, mask_fraction=0.2,
                    rng_seed=7)
    tree, _ = simulate_tree(cfg)
    aln = simulate_alignment(tree, cfg)
    joined = "".join(r.residues for r in aln.records)
    frac = joined.count("N") / len(joined)
    assert 0.15 <= frac <= 0.25


def test_k80_estimator_consistency():
    """A cherry at patristic distance 0.10 estimates back within 0.005."""
    from phyloclust import parse_newick

    for seed in range(20):
        tree = parse_newick("(x:0.05,y:0.05);")
        cfg = SimConfig(cluster_sizes=(2,), seq_length=100_000, kappa=2.0,
                        rng_seed=seed)
        aln = simulate_alignment(tree, cfg)
        dm = build_distance_matrix(aln, MatrixKind.K80)
        assert abs(condensed(dm)[0] - 0.10) <= 0.005


def test_transition_transversion_balance():
    """Substitution counts over a long branch follow the kappa=2 kernel."""
    from phyloclust import parse_newick

    d, kappa = 0.5, 2.0
    beta = 1.0 / (kappa + 2.0)
    alpha = kappa * beta
    e1 = math.exp(-4.0 * beta * d)
    e2 = math.exp(-2.0 * (alpha + beta) * d)
    p_ts = 0.25 + 0.25 * e1 - 0.5 * e2
    p_tv = 2.0 * (0.25 - 0.25 * e1)

    tree = parse_newick("(x:0.25,y:0.25);")
    cfg = SimConfig(cluster_sizes=(2,), seq_length=200_000, kappa=kappa,
                    rng_seed=11, within_mean=0.25, between_mean=0.5)
    aln = simulate_alignment(tree, cfg)
    compared, mismatches, transitions = pair_counts(aln)[:, 0]
    ts_frac = transitions / compared
    tv_frac = (mismatches - transitions) / compared
    assert abs(ts_frac / tv_frac - p_ts / p_tv) / (p_ts / p_tv) <= 0.10


def test_phi_fraction_extremes():
    tree, planted = simulate_tree(SimConfig(cluster_sizes=(5, 4), rng_seed=3))
    none = simulate_metadata(
        planted, SimConfig(cluster_sizes=(5, 4), rng_seed=3, phi_fraction=0.0)
    )
    assert all(m.stage is not Stage.PHI for m in none)
    every = simulate_metadata(
        planted, SimConfig(cluster_sizes=(5, 4), rng_seed=3, phi_fraction=1.0)
    )
    assert all(m.stage is Stage.PHI for m in every)


def test_phi_fraction_monte_carlo():
    cfg = SimConfig(cluster_sizes=(10_000,), phi_fraction=0.3, rng_seed=17)
    _, planted = simulate_tree(cfg)
    meta = simulate_metadata(planted, cfg)
    frac = sum(m.stage is Stage.PHI for m in meta) / len(meta)
    assert abs(frac - 0.3) <= 0.3 * 0.02


def test_metadata_dates_inside_range():
    cfg = SimConfig(cluster_sizes=(30,), rng_seed=19,
                    date_range=(datetime.date(2013, 1, 1),
                                datetime.date(2014, 1, 1)))
    _, planted = simulate_tree(cfg)
    meta = simulate_metadata(planted, cfg)
    assert {m.id for m in meta} == set(planted.ids())
    for m in meta:
        assert datetime.date(2013, 1, 1) <= m.collection_date <= datetime.date(2014, 1, 1)


def test_backbone_stems_bounded_below():
    cfg = SimConfig(cluster_sizes=(4, 4, 4), within_mean=0.01,
                    between_mean=0.15, rng_seed=23)
    tree, planted = simulate_tree(cfg)
    index = tree.tip_index()
    masks = tree.node_masks()
    cluster_masks = set()
    for members in planted.clusters().values():
        mask = 0
        for m in members:
            mask |= 1 << index[m]
        cluster_masks.add(mask)
    stems = [
        node.length
        for node in tree.preorder()
        if node.parent is not None and masks[id(node)] in cluster_masks
    ]
    assert stems and all(s >= cfg.stem_min for s in stems)
