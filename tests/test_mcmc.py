"""Clade-partition sampler: posterior arithmetic, moves, exactness."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from phyloclust import (
    Alignment,
    MatrixKind,
    Partition,
    SequenceRecord,
    parse_fasta,
    parse_newick,
    walktrap_communities,
)
from phyloclust.cli import _PRESETS
from phyloclust.community import modularity
from phyloclust.evaluation import cocluster_rows
from phyloclust.distance import read_matrix_binary, write_matrix_binary
from phyloclust.errors import DegenerateTree, MalformedRow
from phyloclust.mcmc import (
    ChainConfig,
    _clade_nodes_for,
    initialize_chain,
    load_chain_summary,
    log_posterior,
    run_chain,
    save_chain_summary,
)

from phyloclust.simulate import SimConfig, simulate_alignment, simulate_tree

from conftest import (
    cocluster_fraction,
    condensed,
    decorate_tree,
    dense,
    label_codes,
    weighted_graph,
)
from test_community import pair_loop_fraction

EDGE_FLOOR = 1e-9


def uniform_alignment(labels, sites=60):
    return parse_fasta("".join(f">{lab}\n{'A' * sites}\n" for lab in labels))


def state_partition(state, labels):
    return Partition.from_clusters([labels[lo:hi] for _, lo, hi in state.clades])


# ------------------------------------------------------- enumeration oracle


def _tipset(node):
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_tip:
            out.append(n.label)
        stack.extend(n.children)
    return frozenset(out)


def clade_partitions(tree):
    """All antichains of clades covering the tips, as frozensets of
    frozensets of labels."""

    def rec(node):
        if node.is_tip:
            return [frozenset([frozenset([node.label])])]
        whole = frozenset([_tipset(node)])
        out = [whole]
        for combo in itertools.product(*(rec(c) for c in node.children)):
            out.append(frozenset().union(*combo))
        return out

    return rec(tree.root)


def partition_score(tree, clusters, mu_w, mu_b, alpha, rate):
    """Unnormalized log posterior of one clade-partition, recomputed from
    scratch with none of the sampler's bookkeeping."""
    node_of = {}
    for node in tree.preorder():
        node_of.setdefault(_tipset(node), node)
    flen = {
        id(n): max(n.length if n.length is not None else 0.0, EDGE_FLOOR)
        for n in tree.preorder()
        if n.parent is not None
    }
    total_count = len(flen)
    total_len = sum(flen.values())
    w_count = 0
    w_len = 0.0
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        stack = list(node_of[cluster].children)
        while stack:
            n = stack.pop()
            w_count += 1
            w_len += flen[id(n)]
            stack.extend(n.children)
    b_count = total_count - w_count
    b_len = total_len - w_len
    k = len(clusters)
    score = -w_count * math.log(mu_w) - w_len / mu_w
    score += -b_count * math.log(mu_b) - b_len / mu_b
    score += k * math.log(alpha) + sum(math.lgamma(len(c)) for c in clusters)
    score += k * math.log(rate) - math.lgamma(k + 1)
    return score


def exact_distribution(tree, mu_w, mu_b, alpha, rate):
    parts = clade_partitions(tree)
    scores = np.array(
        [partition_score(tree, p, mu_w, mu_b, alpha, rate) for p in parts]
    )
    weights = np.exp(scores - scores.max())
    probs = weights / weights.sum()
    return dict(zip((ends_key(tree, p) for p in parts), probs))


def ends_key(tree, clusters):
    """A clade partition as a retained-sample row, as a tuple: the end of
    each tip's range in tip_labels() order."""
    index = tree.tip_index()
    end = [0] * len(index)
    for cluster in clusters:
        hi = max(index[ident] for ident in cluster) + 1
        for ident in cluster:
            end[index[ident]] = hi
    return tuple(end)


def sample_partitions(summary):
    """Each retained sample as Partition.from_clusters of its tip ranges."""
    out = []
    for end in summary.retained_samples.tolist():
        clusters, lo = [], 0
        while lo < len(end):
            assert end[lo] > lo
            clusters.append(summary.ids[lo : end[lo]])
            lo = end[lo]
        out.append(Partition.from_clusters(clusters))
    return out


def total_variation(exact, samples):
    counts = {}
    for end in samples:
        key = tuple(end.tolist())
        counts[key] = counts.get(key, 0) + 1
    m = len(samples)
    tv = 0.0
    for key in set(exact) | set(counts):
        tv += abs(exact.get(key, 0.0) - counts.get(key, 0) / m)
    return tv / 2.0


# ------------------------------------------------------------------- tests


def test_config_defaults_and_schedule():
    cfg = ChainConfig()
    assert cfg.iterations == 220_000
    assert cfg.burn_in == 20_000
    assert cfg.thin == 200
    assert cfg.num_retained == 1000
    assert cfg.concentration_shape == 500.0
    assert cfg.concentration_scale == 0.2
    assert cfg.cluster_count_rate == 2368.0
    assert cfg.radius == 0.25


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(iterations=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(thin=0)
    with pytest.raises(ValueError):
        ChainConfig(radius=0.0)


TWO_CHERRIES = "((a:0.01,b:0.02)1.0:0.3,(c:0.015,d:0.025)1.0:0.4);"
CHERRY_FASTA = (
    ">a\n" + "A" * 100 + "\n"
    ">b\n" + "C" + "A" * 99 + "\n"
    ">c\n" + "A" * 70 + "C" * 30 + "\n"
    ">d\n" + "G" + "A" * 69 + "C" * 30 + "\n"
)


def test_initialize_two_cherries():
    tree = parse_newick(TWO_CHERRIES)
    state = initialize_chain(tree, parse_fasta(CHERRY_FASTA), ChainConfig())
    part = state_partition(state, tree.tip_labels())
    groups = sorted(sorted(c) for c in part.clusters().values())
    assert groups == [["a", "b"], ["c", "d"]]
    m_w = (0.01 + 0.02 + 0.015 + 0.025) / 4.0
    assert state.mu_w == pytest.approx(m_w)
    assert state.mu_b == pytest.approx((0.3 + 0.4) / 2.0)
    assert state.mu_w_window == pytest.approx((0.75 * m_w, 1.25 * m_w))
    assert state.alpha == pytest.approx(100.0)


def test_initialize_singleton_fallback(caplog):
    # every pair far apart: threshold yields singletons, so the within
    # mean falls back to the smallest decile of all edges
    tree = parse_newick("((a:0.05,b:0.08)1.0:0.3,(c:0.06,d:0.07)1.0:0.4);")
    fasta = (
        ">a\n" + "A" * 10 + "\n>b\n" + "C" * 10 + "\n"
        ">c\n" + "G" * 10 + "\n>d\n" + "T" * 10 + "\n"
    )
    import logging

    with caplog.at_level(logging.WARNING):
        state = initialize_chain(tree, parse_fasta(fasta), ChainConfig())
    assert state_partition(state, tree.tip_labels()).num_clusters() == 4
    assert state.mu_w == pytest.approx(0.05)  # single smallest edge
    assert state.mu_b == pytest.approx((0.05 + 0.08 + 0.3 + 0.06 + 0.07 + 0.4) / 6)
    assert any("decile" in r.getMessage() for r in caplog.records)


def test_clade_lookup_rejects_non_clades():
    # {b, c} is a contiguous tip range but no node's clade
    tree = parse_newick("((a:1,b:1)1.0:1,(c:1,d:1)1.0:1);")
    with pytest.raises(DegenerateTree):
        _clade_nodes_for(tree, Partition.from_clusters([["a"], ["b", "c"], ["d"]]))
    # {a, c} has a gap; its covering range [a, c] is the root clade
    tree = parse_newick("((a:1,b:1)1.0:1,c:1);")
    with pytest.raises(DegenerateTree):
        _clade_nodes_for(tree, Partition.from_clusters([["a", "c"], ["b"]]))


def test_clade_lookup_takes_lowest_node_of_unary_chain():
    tree = parse_newick("((a:1)1.0:1,(b:0.1,c:0.1)1.0:1);")
    clades = _clade_nodes_for(tree, Partition.from_clusters([["a"], ["b", "c"]]))
    (tip, lo, hi), (cherry, c_lo, c_hi) = clades
    assert tip.is_tip and tip.label == "a" and (lo, hi) == (0, 1)
    assert [ch.label for ch in cherry.children] == ["b", "c"]
    assert (c_lo, c_hi) == (1, 3)

    tree = parse_newick("(((a:1,b:1)0.9:1)1.0:1);")
    ((node, lo, hi),) = _clade_nodes_for(tree, Partition.from_clusters([["a", "b"]]))
    assert [ch.label for ch in node.children] == ["a", "b"]
    assert node.support == pytest.approx(0.9) and (lo, hi) == (0, 2)


def test_log_posterior_two_tip_arithmetic():
    """Hand evaluation of every term for a single-cluster two-tip state."""
    tree = parse_newick("(a:0.02,b:0.03);")
    cfg = ChainConfig(init_mu_w=0.01, init_mu_b=0.15, init_alpha=100.0)
    state = initialize_chain(tree, uniform_alignment(["a", "b"]), cfg)
    assert state_partition(state, tree.tip_labels()).num_clusters() == 1

    mu_w, mu_b, alpha = 0.01, 0.15, 100.0
    lam, shape, scale = 2368.0, 500.0, 0.2
    expect = -2.0 * math.log(mu_w) - 0.05 / mu_w
    expect += math.log(alpha) + math.lgamma(alpha) - math.lgamma(alpha + 2)
    expect += math.lgamma(2)
    expect += math.log(lam) - lam - math.lgamma(2)
    expect -= math.log(0.5 * mu_w) + math.log(0.5 * mu_b)  # window widths
    expect += (
        (shape - 1.0) * math.log(alpha)
        - alpha / scale
        - math.lgamma(shape)
        - shape * math.log(scale)
    )
    assert log_posterior(state, tree, cfg) == pytest.approx(expect, abs=1e-9)


def test_log_posterior_out_of_window():
    tree = parse_newick("(a:0.02,b:0.03);")
    cfg = ChainConfig(init_mu_w=0.01, init_mu_b=0.15)
    state = initialize_chain(tree, uniform_alignment(["a", "b"]), cfg)
    low = dataclasses.replace(state, mu_w=0.001)
    assert log_posterior(low, tree, cfg) == -math.inf
    crossed = dataclasses.replace(state, mu_w=0.0125, mu_b=0.011, mu_b_window=(0.01, 0.2))
    assert log_posterior(crossed, tree, cfg) == -math.inf  # mu_w > mu_b


def test_log_posterior_monotone_in_within_edge():
    cfg = ChainConfig(init_mu_w=0.01, init_mu_b=0.15, init_alpha=100.0)
    values = []
    for stretch in (0.02, 0.2, 2.0):
        tree = parse_newick(f"(a:{stretch},b:0.03);")
        state = initialize_chain(tree, uniform_alignment(["a", "b"]), cfg)
        values.append(log_posterior(state, tree, cfg))
    assert values[0] > values[1] > values[2]


def test_zero_length_edges_use_floor():
    tree = parse_newick("(a:0,b:0);")
    cfg = ChainConfig(init_mu_w=0.01, init_mu_b=0.15, init_alpha=100.0)
    state = initialize_chain(tree, uniform_alignment(["a", "b"]), cfg)
    value = log_posterior(state, tree, cfg)
    assert math.isfinite(value)


def test_split_merge_restores_partition():
    """Replacing a clade by its children and merging them back is the
    identity on the partition."""
    from phyloclust.simulate import SimConfig, simulate_tree

    tree, _ = simulate_tree(SimConfig(cluster_sizes=(6, 4), rng_seed=1))
    masks = tree.node_masks()
    for node in tree.preorder():
        if node.is_tip or len(node.children) < 2:
            continue
        split = [frozenset(_tipset(c)) for c in node.children]
        assert frozenset().union(*split) == _tipset(node)
        combined = 0
        for c in node.children:
            combined |= masks[id(c)]
        assert combined == masks[id(node)]


SIX_TIP = (
    "((a:0.01,b:0.012)1.0:0.2,"
    "((c:0.009,d:0.011)1.0:0.18,(e:0.25,f:0.3)1.0:0.05)1.0:0.1);"
)


def chain_on_six_tips(iterations=300_000, burn_in=20_000, thin=7, seed=0):
    tree = parse_newick(SIX_TIP)
    cfg = ChainConfig(
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        rng_seed=seed,
        topology_only=True,
        init_mu_w=0.012,
        init_mu_b=0.2,
        init_alpha=1.0,
        cluster_count_rate=2.0,
    )
    labels = sorted(tree.tip_labels())
    summary = run_chain(tree, uniform_alignment(labels), cfg)
    return tree, cfg, summary


def test_exactness_six_tips_fixed_parameters():
    """Retained samples reproduce the enumerated posterior."""
    tree, cfg, summary = chain_on_six_tips()
    exact = exact_distribution(tree, 0.012, 0.2, 1.0, 2.0)
    assert len(exact) == 11
    tv = total_variation(exact, summary.retained_samples)
    assert tv <= 0.05, f"total variation {tv:.4f}"


def test_exactness_with_walk_moves():
    """Narrow parameter windows keep the partition marginal near the
    fixed-parameter enumeration even with all four moves active."""
    tree = parse_newick("((a:0.01,b:0.012)1.0:0.2,(c:0.015,d:0.3)1.0:0.25);")
    cfg = ChainConfig(
        iterations=200_000,
        burn_in=20_000,
        thin=6,
        rng_seed=3,
        radius=0.01,
        init_mu_w=0.012,
        init_mu_b=0.22,
        init_alpha=1.0,
        concentration_shape=100.0,
        concentration_scale=0.01,
        cluster_count_rate=2.0,
    )
    summary = run_chain(tree, uniform_alignment(sorted(tree.tip_labels())), cfg)
    exact = exact_distribution(tree, 0.012, 0.22, 1.0, 2.0)
    tv = total_variation(exact, summary.retained_samples)
    assert tv <= 0.08, f"total variation {tv:.4f}"


def saved_cocluster(summary, directory):
    """The triangle of the chain directory save_chain_summary writes."""
    save_chain_summary(summary, directory)
    return read_matrix_binary(directory / "cocluster.bin", MatrixKind.COCLUSTER)


def test_chain_summary_invariants(tmp_path):
    _, cfg, summary = chain_on_six_tips(iterations=40_000, burn_in=5_000, thin=10)
    assert len(summary.retained_samples) == cfg.num_retained
    cocluster = saved_cocluster(summary, tmp_path)
    c = dense(cocluster)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert summary.map_log_posterior == summary.trace.max()
    assert summary.burn_in == cfg.burn_in
    assert summary.trace.shape == (cfg.iterations - cfg.burn_in,)
    assert summary.retained_samples.dtype == np.int32
    # cocluster frequencies equal a recount over the retained partitions
    ids = cocluster.ids
    pos = {ident: k for k, ident in enumerate(ids)}
    m = len(summary.retained_samples)
    for a, b in itertools.combinations(ids[:4], 2):
        manual = sum(
            p.label_of(a) == p.label_of(b) for p in sample_partitions(summary)
        ) / m
        assert c[pos[a], pos[b]] == pytest.approx(manual)


def test_chain_retaining_nothing_has_identity_cocluster(tmp_path):
    tree, cfg, summary = chain_on_six_tips(iterations=3_000, burn_in=1_000, thin=2_001)
    assert cfg.num_retained == 0
    assert summary.retained_samples.shape == (0, len(tree.tip_labels()))
    assert len(summary.trace) == 2_000
    # no pair co-clusters: the identity, less the diagonal the type omits
    cocluster = saved_cocluster(summary, tmp_path)
    assert cocluster.ids == tree.tip_labels()
    assert not condensed(cocluster).any()


def test_chain_determinism():
    _, _, s1 = chain_on_six_tips(iterations=30_000, burn_in=3_000, thin=9, seed=7)
    _, _, s2 = chain_on_six_tips(iterations=30_000, burn_in=3_000, thin=9, seed=7)
    assert s1.map_log_posterior == s2.map_log_posterior
    assert np.array_equal(s1.trace, s2.trace)
    assert np.array_equal(s1.retained_samples, s2.retained_samples)
    _, _, s3 = chain_on_six_tips(iterations=30_000, burn_in=3_000, thin=9, seed=8)
    assert not np.array_equal(s3.trace, s1.trace)


def test_map_partition_is_best_enumerated():
    tree, cfg, summary = chain_on_six_tips()
    exact = exact_distribution(tree, 0.012, 0.2, 1.0, 2.0)
    best = max(exact, key=exact.get)
    assert ends_key(tree, summary.map_partition.clusters().values()) == best


def test_summary_roundtrip(tmp_path):
    _, _, summary = chain_on_six_tips(iterations=20_000, burn_in=2_000, thin=18)
    save_chain_summary(summary, tmp_path)
    back = load_chain_summary(tmp_path)
    assert back.map_log_posterior == summary.map_log_posterior
    assert back.map_partition.same_grouping(summary.map_partition)
    assert back.ids == summary.ids
    assert back.burn_in == summary.burn_in
    assert back.trace.tobytes() == summary.trace.tobytes()
    assert back.retained_samples.dtype == np.int32
    assert np.array_equal(back.retained_samples, summary.retained_samples)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row[:-2], "row 1: 5 labels for 6 ids"),
        (lambda row: "1,2,1,2,1,2", "row 1: a cluster is not a run"),
    ],
)
def test_load_rejects_a_sample_that_is_not_tip_ranges(tmp_path, edit, message):
    """A retained sample reads back as tip ranges, so a label-log row of
    the wrong length or with a cluster split in two is a MalformedRow."""
    _, _, summary = chain_on_six_tips(iterations=3_000, burn_in=1_000, thin=1_000)
    save_chain_summary(summary, tmp_path)
    log = tmp_path / "retained_samples.txt"
    header, first, *rest = log.read_text().splitlines()
    log.write_text("\n".join([header, edit(first), *rest]) + "\n")
    with pytest.raises(MalformedRow, match=message):
        load_chain_summary(tmp_path)


@pytest.mark.parametrize(
    "iterations, thin, retained",
    [(3_000, 2_001, 0), (3_000, 2_000, 1), (19_000, 18, 1_000)],
)
def test_streamed_cocluster_equals_whole_matrix_write(
    tmp_path, iterations, thin, retained
):
    """The chain streams cocluster.bin byte for byte as the whole triangle
    would be written, with 0, 1 and several retained samples."""
    _, cfg, summary = chain_on_six_tips(iterations=iterations, burn_in=1_000, thin=thin)
    assert cfg.num_retained == retained
    save_chain_summary(summary, tmp_path / "chain")
    whole = cocluster_fraction(sample_partitions(summary), summary.ids)
    write_matrix_binary(whole, tmp_path / "whole.bin")
    for suffix in ("bin", "bin.ids"):
        streamed = (tmp_path / "chain" / f"cocluster.{suffix}").read_bytes()
        assert streamed == (tmp_path / f"whole.{suffix}").read_bytes(), suffix


def random_chain(seed, retained):
    """A chain retaining the given number of samples on a random tree with
    unary nodes, zero and missing branch lengths, and tip labels whose
    string order is not the tree's order."""
    rng = np.random.default_rng(seed)
    sim = SimConfig(cluster_sizes=(6, 4, 3, 2, 1, 1), seq_length=40, rng_seed=seed)
    tree, _ = simulate_tree(sim)
    aln = simulate_alignment(tree, sim)
    decorate_tree(tree, rng, unary_rate=0.3)
    names = {}
    for node in tree.preorder():
        if node.parent is not None:
            u = rng.random()
            node.length = None if u < 0.15 else 0.0 if u < 0.3 else node.length
        if node.is_tip:
            names[node.label] = f"t{rng.integers(1000)}-{len(names)}"
            node.label = names[node.label]
    aln = Alignment([SequenceRecord(names[r.id], r.residues) for r in aln.records])
    cfg = ChainConfig(
        iterations=103 + 7 * retained,
        burn_in=100,
        thin=7,
        rng_seed=seed,
        topology_only=True,
        init_mu_w=0.02,
        init_mu_b=0.08,
        init_alpha=1.0,
        cluster_count_rate=4.0,
    )
    return tree, run_chain(tree, aln, cfg)


@pytest.mark.parametrize("retained", [0, 1, 3, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_histogram_rows_equal_cocluster_rows(tmp_path, seed, retained):
    """evaluation.cocluster_rows counts clade ranges by a histogram of run
    ends: over the retained ends as they are it equals itself over the
    samples' partitions as dict codes bit for bit, and both equal the
    pair-loop fractions; retained_samples.txt written from the ends equals
    the one written from the partitions."""
    tree, summary = random_chain(seed, retained)
    ids = summary.ids
    assert ids == tree.tip_labels() and ids != sorted(ids)
    assert summary.retained_samples.shape == (retained, len(ids))
    clades = set(tree.tip_spans().values())
    parts = sample_partitions(summary)
    for end in summary.retained_samples.tolist():
        lo = 0
        while lo < len(end):  # each range is a clade, and its tips share its end
            hi = end[lo]
            assert (lo, hi) in clades and end[lo:hi] == [hi] * (hi - lo)
            lo = hi
    want = list(cocluster_rows(label_codes(parts, ids)))
    got = list(cocluster_rows(summary.retained_samples))
    assert len(got) == len(want) == len(ids) - 1
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    loop = pair_loop_fraction(parts, ids)
    for i, row in enumerate(got):
        assert row.tobytes() == loop[i, i + 1 :].tobytes(), i

    save_chain_summary(summary, tmp_path)
    expect = ",".join(ids) + "\n" + "".join(
        ",".join(p.assignment[i] for i in ids) + "\n" for p in parts
    )
    assert (tmp_path / "retained_samples.txt").read_text() == expect


class _CountedCodes(np.ndarray):
    """Label codes that count the labels compared for equality."""

    compared = 0

    def __eq__(self, other):
        out = np.ndarray.__eq__(self, other)
        _CountedCodes.compared += out.size
        return out


def test_clade_ranges_are_counted_not_compared():
    """The kernel counts a chain's clade ranges from their run ends and
    compares no labels, even with a clade that spans every tip, where
    comparing row i with each later co-member costs k * n^2 / 2."""
    _, summary = random_chain(0, 50)
    ends = summary.retained_samples
    n = ends.shape[1]
    ends = np.vstack([ends, np.full((1, n), n, dtype=ends.dtype)])
    _CountedCodes.compared = 0
    rows = list(cocluster_rows(ends.view(_CountedCodes)))
    assert _CountedCodes.compared == 0
    assert len(rows) == n - 1 and all(row.min() >= 1 / len(ends) for row in rows)
    _CountedCodes.compared = 0
    scattered = np.vstack([ends, np.arange(n, dtype=ends.dtype) % 2])
    list(cocluster_rows(scattered.view(_CountedCodes)))  # labels 0, 1, 0, 1, ...
    assert _CountedCodes.compared > 0


def test_chain_samples_take_int32_ends():
    """run_chain retaining 1,000 samples on the acceptance cohort peaks
    under 6.2 MB traced, twice the 3.1 MB measured; the ends take 2.2 MB.
    Samples kept as Partition objects peaked at 42.3 MB."""
    sim = SimConfig(cluster_sizes=_PRESETS["acceptance"]["cluster_sizes"], rng_seed=0)
    tree, _ = simulate_tree(sim)
    aln = simulate_alignment(tree, sim)
    cfg = ChainConfig(iterations=1100, burn_in=100, thin=1, rng_seed=0)
    # a first start's one-time allocations stay out of the traced peak
    initialize_chain(tree, aln, cfg)
    tracemalloc.start()
    try:
        summary = run_chain(tree, aln, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(summary.retained_samples) == 1000
    assert peak < 6_200_000, peak


def constant_cocluster(ids, labels):
    p = Partition(dict(zip(ids, labels)))
    n = len(ids)
    c = np.zeros((n, n))
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if p.label_of(a) == p.label_of(b):
                c[i, j] = 1.0
    return weighted_graph(ids, c)


def test_linkage_constant_chain():
    ids = [f"s{i}" for i in range(6)]
    labels = ["1", "1", "2", "2", "2", "3"]
    estimate = walktrap_communities(constant_cocluster(ids, labels))
    assert estimate.same_grouping(Partition(dict(zip(ids, labels))))


def test_linkage_two_blobs():
    ids = [f"s{i}" for i in range(20)]
    c = np.full((20, 20), 0.05)
    c[:10, :10] = 1.0
    c[10:, 10:] = 1.0
    np.fill_diagonal(c, 1.0)
    estimate = walktrap_communities(weighted_graph(ids, c))
    groups = sorted(sorted(g) for g in estimate.clusters().values())
    assert groups == [sorted(ids[:10]), sorted(ids[10:])]
    # the returned split's modularity matches a direct evaluation on the
    # zero-diagonal graph walktrap saw
    w = c.copy()
    np.fill_diagonal(w, 0.0)
    g = weighted_graph(ids, w)
    assert modularity(g, estimate) == pytest.approx(
        modularity(g, Partition(dict(zip(ids, ["a"] * 10 + ["b"] * 10))))
    )
