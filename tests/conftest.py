"""Shared helpers for the test suite."""

import numpy as np

from phyloclust import DistanceMatrix, MatrixKind
from phyloclust.phylo import Node


def square_dm(ids, arr, kind=MatrixKind.P_DISTANCE):
    """DistanceMatrix from a square array (upper triangle is taken)."""
    arr = np.asarray(arr, dtype=np.float64)
    n = len(ids)
    assert arr.shape == (n, n)
    iu = np.triu_indices(n, k=1)
    return DistanceMatrix(list(ids), arr[iu].copy(), kind)


def blob_matrix(sizes, within, between):
    """Block-structured square distances: `within` inside each blob,
    `between` across blobs."""
    n = sum(sizes)
    arr = np.full((n, n), between, dtype=np.float64)
    start = 0
    for s in sizes:
        arr[start : start + s, start : start + s] = within
        start += s
    np.fill_diagonal(arr, 0.0)
    ids = [f"q{i}" for i in range(n)]
    return ids, arr


def decorate_tree(tree, rng, unary_rate=0.15):
    """Give every internal node a random support, and put a supported unary
    node on some edges, in place."""
    for node in list(tree.preorder()):
        if node.children:
            node.support = float(rng.choice([0.5, 0.75, 0.95, 1.0]))
        if node.parent is not None and rng.random() < unary_rate:
            parent = node.parent
            unary = Node(length=0.001, support=float(rng.choice([0.6, 1.0])))
            parent.children[parent.children.index(node)] = unary
            unary.parent = parent
            unary.add(node)
