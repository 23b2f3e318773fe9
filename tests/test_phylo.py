"""Tree traversal, patristic distances, clades, support, consensus."""

import itertools

import numpy as np
import pytest

from phyloclust import parse_newick, newick_string
from phyloclust.phylo import (
    annotate_support,
    majority_consensus,
    mask_to_labels,
    patristic_matrix,
)
from phyloclust.simulate import SimConfig, simulate_tree

from conftest import decorate_tree, dense, patristic_dm


def _naive_patristic(tree, a, b):
    """Distance via explicit root paths, nothing shared with the library."""

    def path_to_root(label):
        node = next(t for t in tree.tips() if t.label == label)
        out = []
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    pa = path_to_root(a)
    pb = path_to_root(b)
    seen = {id(n) for n in pa}
    lca = next(n for n in pb if id(n) in seen)
    total = 0.0
    for node in pa:
        if id(node) == id(lca):
            break
        total += node.length or 0.0
    for node in pb:
        if id(node) == id(lca):
            break
        total += node.length or 0.0
    return total


def test_traversal_orders():
    tree = parse_newick("((a:1,b:1)x:1,c:1)r;")
    pre = [n.label for n in tree.preorder()]
    post = [n.label for n in tree.postorder()]
    assert pre == ["r", "x", "a", "b", "c"]
    assert post == ["a", "b", "x", "c", "r"]


def test_patristic_cherry():
    tree = parse_newick("(a:0.1,b:0.2);")
    assert patristic_matrix(tree).tolist() == [pytest.approx(0.3)]


def test_patristic_zero_star():
    tree = parse_newick("(a:0,b:0,c:0,d:0);")
    assert np.all(patristic_matrix(tree) == 0.0)


def test_patristic_matches_naive_walk():
    for seed in range(8):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(9, 5, 2), rng_seed=seed))
        dm = patristic_dm(tree)
        labels, sq = dm.ids, dense(dm)
        for i, j in itertools.combinations(range(len(labels)), 2):
            expect = _naive_patristic(tree, labels[i], labels[j])
            assert abs(sq[i, j] - expect) <= 1e-12


def test_patristic_matches_naive_walk_through_unary_nodes():
    for seed in range(4):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(6, 4, 3), rng_seed=seed))
        decorate_tree(tree, np.random.default_rng(seed), unary_rate=0.3)
        dm = patristic_dm(tree)
        sq = dense(dm)
        for i, j in itertools.combinations(range(dm.n), 2):
            expect = _naive_patristic(tree, dm.ids[i], dm.ids[j])
            assert abs(sq[i, j] - expect) <= 1e-12


def test_patristic_metric_properties():
    tree, _ = simulate_tree(SimConfig(cluster_sizes=(12,), rng_seed=4))
    sq = dense(patristic_dm(tree))
    assert np.array_equal(sq, sq.T)
    assert np.all(np.diag(sq) == 0.0)
    n = sq.shape[0]
    for i, j, k in itertools.combinations(range(n), 3):
        assert sq[i, j] <= sq[i, k] + sq[k, j] + 1e-12


def _internal_spans(tree):
    """The tip range of each internal node; a clade within one tree."""
    spans = tree.tip_spans()
    return [spans[id(n)] for n in tree.postorder() if not n.is_tip]


def test_clades_cherry_plus_tip():
    tree = parse_newick("((a:1,b:1):1,c:1);")
    assert _internal_spans(tree) == [(0, 2), (0, 3)]  # the cherry and the root


def test_clades_balanced_eight():
    tree = parse_newick(
        "((((a:1,b:1):1,(c:1,d:1):1):1,((e:1,f:1):1,(g:1,h:1):1):1));"
    )
    # the outer parens add a unary root holder; count true internals
    internal = set(_internal_spans(tree))
    assert len(internal) == 7


def test_clade_union_equals_parent():
    for seed in range(6):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(7, 6), rng_seed=seed))
        masks = tree.node_masks()
        for node in tree.preorder():
            if not node.is_tip:
                combined = 0
                for ch in node.children:
                    combined |= masks[id(ch)]
                assert combined == masks[id(node)]


def test_mask_to_labels_order():
    labels = ["a", "b", "c", "d"]
    assert mask_to_labels(0b1010, labels) == ["b", "d"]


@pytest.mark.parametrize(
    "text",
    [
        "((a:1)1.0:1,(b:0.1,c:0.1)1.0:1);",
        "(((a:1,b:1)0.9:1)1.0:1);",
        "((((a:1)1.0:1)1.0:1,b:1)1.0:1,c:1);",
    ],
)
def test_tip_spans_unary_newick(text):
    _assert_spans_match_masks(parse_newick(text))


def test_tip_spans_match_masks():
    for seed in range(10):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(6, 4, 3), rng_seed=seed))
        decorate_tree(tree, np.random.default_rng(seed))
        assert any(len(n.children) == 1 for n in tree.preorder())
        _assert_spans_match_masks(tree)


def _assert_spans_match_masks(tree):
    labels = tree.tip_labels()
    masks = tree.node_masks()
    spans = tree.tip_spans()
    nodes = list(tree.preorder())
    assert len(spans) == len(nodes)
    for node in nodes:
        lo, hi = spans[id(node)]
        assert labels[lo:hi] == mask_to_labels(masks[id(node)], labels)


def test_support_sample_of_copies():
    base = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
    out = annotate_support(base, [parse_newick(newick_string(base)) for _ in range(10)])
    supports = [n.support for n in out.preorder() if not n.is_tip and n.parent]
    assert supports == [1.0, 1.0]


def test_support_seven_hundred_of_thousand():
    base = parse_newick("((a:1,b:1):1,c:1);")
    with_clade = "((a:1,b:1):1,c:1);"
    without = "((a:1,c:1):1,b:1);"
    sample = [parse_newick(with_clade) for _ in range(700)]
    sample += [parse_newick(without) for _ in range(300)]
    out = annotate_support(base, sample)
    node = next(n for n in out.preorder() if not n.is_tip and n.parent)
    assert node.support == pytest.approx(0.70)


def test_support_matches_containment_scan():
    rng = np.random.default_rng(13)
    base, _ = simulate_tree(SimConfig(cluster_sizes=(8,), rng_seed=99))
    sample = [simulate_tree(SimConfig(cluster_sizes=(8,), rng_seed=int(s)))[0]
              for s in rng.integers(0, 30, 40)]
    out = annotate_support(base, sample)
    sample_clade_sets = []
    for t in sample:
        sets = set()
        for node in t.preorder():
            if not node.is_tip and node.parent is not None:
                sets.add(frozenset(tip.label for tip in t.tips()
                                   if _descends(tip, node)))
        sample_clade_sets.append(sets)
    for node in out.preorder():
        if node.is_tip or node.parent is None:
            continue
        tipset = frozenset(tip.label for tip in out.tips() if _descends(tip, node))
        count = sum(tipset in sets for sets in sample_clade_sets)
        assert node.support == pytest.approx(count / len(sample))


def _descends(tip, ancestor):
    node = tip
    while node is not None:
        if id(node) == id(ancestor):
            return True
        node = node.parent
    return False


def test_support_monotone_in_sample():
    base = parse_newick("((a:1,b:1):1,c:1);")
    inside = parse_newick("((a:1,b:1):1,c:1);")
    outside = parse_newick("((a:1,c:1):1,b:1);")
    grow = [outside]
    prev = None
    for _ in range(5):
        grow = grow + [parse_newick(newick_string(inside))]
        out = annotate_support(base, grow)
        node = next(n for n in out.preorder() if not n.is_tip and n.parent)
        if prev is not None:
            assert node.support >= prev - 1e-12
        prev = node.support


def test_consensus_identical_sample():
    tree = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
    sample = [parse_newick(newick_string(tree)) for _ in range(4)]
    cons = majority_consensus(sample)
    masks = {m for m in _clade_masks(cons)}
    assert masks == {m for m in _clade_masks(tree)}
    supports = [n.support for n in cons.preorder() if not n.is_tip and n.parent]
    assert all(s == 1.0 for s in supports)


def _clade_masks(tree):
    index = {lab: i for i, lab in enumerate(sorted(tree.tip_labels()))}
    out = set()
    for node in tree.preorder():
        if node.is_tip or node.parent is None:
            continue
        mask = 0
        for tip in tree.tips():
            if _descends(tip, node):
                mask |= 1 << index[tip.label]
        out.add(mask)
    return out


def test_consensus_two_of_three():
    sample = [
        parse_newick("((a:1,b:1):1,c:1);"),
        parse_newick("((a:1,c:1):1,b:1);"),
        parse_newick("((a:1,b:1):1,c:1);"),
    ]
    cons = majority_consensus(sample)
    node = next((n for n in cons.preorder() if not n.is_tip and n.parent), None)
    assert node is not None
    tips = sorted(t.label for t in cons.tips() if _descends(t, node))
    assert tips == ["a", "b"]
    assert node.support == pytest.approx(2 / 3)


def test_consensus_idempotent_clade_set():
    rng = np.random.default_rng(41)
    sample = [simulate_tree(SimConfig(cluster_sizes=(7,), rng_seed=int(s)))[0]
              for s in rng.integers(0, 12, 9)]
    cons = majority_consensus(sample)
    again = majority_consensus(sample + [cons])
    assert _clade_masks(again) == _clade_masks(cons)


def test_consensus_clades_compatible():
    rng = np.random.default_rng(43)
    sample = [simulate_tree(SimConfig(cluster_sizes=(9,), rng_seed=int(s)))[0]
              for s in rng.integers(0, 25, 11)]
    masks = sorted(_clade_masks(majority_consensus(sample)))
    for x, y in itertools.combinations(masks, 2):
        inter = x & y
        assert inter == 0 or inter == x or inter == y


def test_copy_is_independent():
    tree = parse_newick("((a:1,b:1):1,c:1);")
    dup = tree.copy()
    for node in dup.preorder():
        if node.parent is not None:
            node.length = 99.0
    assert all(n.length == 1.0 for n in tree.preorder() if n.parent is not None)
