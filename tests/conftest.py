"""Shared helpers for the test suite."""

import tempfile

import numpy as np

from phyloclust import DistanceMatrix, MatrixKind, distance
from phyloclust.community import WeightedGraph
from phyloclust.evaluation import cocluster_rows
from phyloclust.phylo import Node, patristic_matrix


def condensed_dm(ids, values, kind=MatrixKind.P_DISTANCE):
    """DistanceMatrix over ids whose file holds the condensed values."""
    n = len(ids)
    values = np.asarray(values, dtype="<f8")
    assert values.shape == (n * (n - 1) // 2,)
    fh = tempfile.TemporaryFile()
    fh.write(distance._binary_header(n) + values.tobytes())
    fh.flush()
    return DistanceMatrix(list(ids), fh, kind)


def square_dm(ids, arr, kind=MatrixKind.P_DISTANCE):
    """DistanceMatrix from a square array (upper triangle is taken)."""
    arr = np.asarray(arr, dtype=np.float64)
    n = len(ids)
    assert arr.shape == (n, n)
    return condensed_dm(ids, arr[np.triu_indices(n, k=1)], kind)


def patristic_dm(tree):
    """The PATRISTIC DistanceMatrix of patristic_matrix(tree), over the
    tree's tip labels."""
    return condensed_dm(tree.tip_labels(), patristic_matrix(tree), MatrixKind.PATRISTIC)


def condensed(dm):
    """dm's condensed upper triangle as one float64 array, bit for bit, in
    one read of its whole file."""
    return dm._read(0, dm.n * (dm.n - 1) // 2)


def dense(dm):
    """dm as its full symmetric n×n array with a zero diagonal, the
    reference that tests hold the condensed readers to."""
    n = dm.n
    out = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    out[iu] = out.T[iu] = condensed(dm)
    return out


def label_codes(partitions, ids):
    """Each partition's labels over ids as the integer codes that
    evaluation.cocluster_rows takes, numbered in the order of ids."""
    codes = np.empty((len(partitions), len(ids)), dtype=np.int32)
    for row, p in zip(codes, partitions):
        labels = {}
        row[:] = [labels.setdefault(p.assignment[i], len(labels)) for i in ids]
    return codes


def cocluster_fraction(partitions, ids):
    """The COCLUSTER matrix whose rows evaluation.cocluster_rows gives."""
    rows = [np.empty(0), *cocluster_rows(label_codes(partitions, ids))]
    return condensed_dm(ids, np.concatenate(rows), MatrixKind.COCLUSTER)


def pair_counts(alignment):
    """The library kernel's compared, mismatched and transition site counts
    of every pair of an alignment's sequences, in condensed order."""
    n = alignment.n
    planes = distance._pack_planes(alignment)
    scratch = distance._scratch(planes)
    counts = np.empty((3, n * (n - 1) // 2), dtype=np.int32)
    lo = 0
    for i in range(n - 1):  # row i's pairs (i, i+1..n-1) follow row i-1's
        hi = lo + n - 1 - i
        distance._count_against(planes, i, slice(i + 1, n), *scratch, counts[:, lo:hi])
        lo = hi
    counts[2] = counts[1] - counts[2]  # the kernel counts transversions
    return counts


def weighted_graph(ids, arr):
    """WeightedGraph of the nonzero pairs of arr's upper triangle."""
    i, j = np.triu_indices(len(ids), k=1)
    w = np.asarray(arr, dtype=np.float64)[i, j]
    hit = w != 0
    return WeightedGraph(list(ids), i[hit], j[hit], w[hit])


def graph_square(g):
    """g's symmetric n×n weight matrix with a zero diagonal."""
    out = np.zeros((g.n, g.n))
    out[g.i, g.j] = out[g.j, g.i] = g.w
    return out


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
