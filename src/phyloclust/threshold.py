"""Support-and-distance threshold clustering over a rooted tree.

The traversal starts at the root and emits a clade as one cluster as soon
as the node's support and the clade's distance statistic both pass; tips
never reached that way become singletons.  The three statistics cover the
usual desiderata: maximum pairwise p-distance, and median or maximum
within-clade patristic distance.

Every clade's diameter (its largest within-clade distance) and, for the
median, its number of pairs at or under each cutoff of the grid come from
one postorder pass per grid, which reads each pair once, at its tips'
lowest common ancestor, as a block between one child's tips and its
earlier siblings'.
The blocks are read in row chunks: for max-p, a matrix's block_reader
gathers them from its condensed triangle and p_block_reader computes
them on demand from the bit-planes of the tips' sequences, packed from
the alignment in label order; a patristic block sums the tips' path
lengths, lifted up the tree as the pass goes.  The maximum statistics
read a clade's blocks only when all its children pass and
stop at the first block that fails: from an alignment they compute only
those pairs.  A median passes at once when the diameter does; otherwise
the count settles it, and the median itself is computed only when the
two middle values straddle the cutoff.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .distance import (
    DistanceMatrix,
    MatrixKind,
    p_block_reader,
    row_chunks,
)
from .errors import MissingSequence, TipSetMismatch, UnannotatedSupport
from .evaluation import ClusterCriteria, Statistic
from .io_formats import Alignment, Partition
from .phylo import Node, PhyloTree, lift_path_lengths, patristic_matrix


def threshold_cluster(
    tree: PhyloTree,
    source: Alignment | DistanceMatrix | None,
    criteria: ClusterCriteria,
) -> Partition:
    """Cluster tree tips by clade support and spread; see threshold_runner."""
    return threshold_runner(tree, source, [criteria])(criteria)


def threshold_runner(
    tree: PhyloTree,
    source: Alignment | DistanceMatrix | None,
    grid: list[ClusterCriteria],
) -> Callable[[ClusterCriteria], Partition]:
    """run(criteria): the partition at any point of grid, whose criteria
    share one statistic, from one diameter pass over the whole grid.

    For MAX_PAIRWISE_P, source supplies the p-distances: an Alignment,
    whose p-distances are computed just for the clades the search reads,
    or a p-distance DistanceMatrix.  The patristic statistics sum path
    lengths from the tree and take source=None.  The root counts as
    support 1.0; an undefined (NaN) distance inside a clade disqualifies
    that clade.
    """
    labels = tree.tip_labels()
    if len(labels) != len(set(labels)):
        raise TipSetMismatch("duplicate tip labels")
    if any(c.support_min > 0.0 for c in grid):
        for node in tree.preorder():
            if node.parent is not None and node.children and node.support is None:
                raise UnannotatedSupport(
                    "support_min > 0 but an internal node has no support"
                )
    statistics = {c.statistic for c in grid}
    if len(statistics) != 1:
        raise ValueError("a grid takes one statistic" if statistics else "empty grid")
    (statistic,) = statistics
    median = statistic is Statistic.MEDIAN_PATRISTIC
    h = None
    if statistic is Statistic.MAX_PAIRWISE_P:
        read = _block_reader(source, labels)
    elif source is None:
        h = np.zeros(len(labels), dtype=np.float64)
        read = lambda r0, r1, c0, c1: h[r0:r1, None] + h[c0:c1]
    else:
        raise ValueError("patristic statistics are summed from the tree; pass None")
    spans = tree.tip_spans()
    cutoffs = sorted({c.distance_max for c in grid})
    stats = _diameters(tree, spans, read, h, cutoffs, median)
    medians: dict[int, float] | None = {} if median else None

    def run(criteria: ClusterCriteria) -> Partition:
        if criteria not in grid:
            raise ValueError(f"{criteria} is not a point of the prepared grid")
        cutoff = criteria.distance_max
        k = cutoffs.index(cutoff)
        clusters: list[list[str]] = []
        stack: list[Node] = [tree.root]
        while stack:
            node = stack.pop()
            lo, hi = spans[id(node)]
            support = 1.0 if node is tree.root else (node.support or 0.0)
            if hi - lo < 2 or (
                support >= criteria.support_min
                and _clade_passes(node, lo, hi, *stats[id(node)], k, cutoff, medians)
            ):
                clusters.append(labels[lo:hi])
            else:
                stack.extend(node.children)
        return Partition.from_clusters(clusters)

    return run


def _diameters(
    tree: PhyloTree,
    spans: dict[int, tuple[int, int]],
    read: Callable[[int, int, int, int], np.ndarray],
    h: np.ndarray | None,
    cutoffs: list[float],
    median: bool,
) -> dict[int, tuple[float, tuple[int, ...]]]:
    """Each node's diameter and, for the median, its numbers of tip pairs
    at or under each of the sorted cutoffs (an empty tuple otherwise), by
    id(node).  The diameter is the largest distance among the node's tips:
    -inf for a tip and NaN for a clade holding an undefined pair, which
    never counts as under a cutoff.

    A node's statistics combine its children's with the blocks between
    each child and the children before it, so each pair is read once:
    read(clo, chi, lo, clo) returns the distances of tips [clo, chi) to
    tips [lo, clo), in row chunks; a patristic read sums h, the tips' path
    lengths, lifted to each node first.  NaN is kept explicitly: `max` is
    order-dependent on it.  The median reads every block and records exact
    diameters.  The max statistics test the largest cutoff, which decides
    every smaller one: a clade fails as soon as one child or chunk does,
    and its blocks are read (and h lifted) only when every child passes;
    a failed clade records a failing lower bound of its diameter, or NaN.
    """
    top = cutoffs[-1]
    zeros = (0,) * len(cutoffs) if median else ()
    stats: dict[int, tuple[float, tuple[int, ...]]] = {}
    for node in tree.postorder():
        if node.is_tip:
            stats[id(node)] = (-math.inf, zeros)
            continue
        kids = [stats[id(child)] for child in node.children]
        if not median:
            failed = next((s for s in kids if not s[0] <= top), None)
            if failed is not None:
                stats[id(node)] = failed
                continue
        if h is not None:
            lift_path_lengths(h, node, spans)
        lo = spans[id(node)][0]
        d, under = kids[0][0], list(kids[0][1])
        for child, (child_d, child_under) in zip(node.children[1:], kids[1:]):
            clo, chi = spans[id(child)]
            for k, count in enumerate(child_under):
                under[k] += count
            # a NaN d stays, and a NaN from a child or a block wins
            d = d if d != d or child_d <= d else child_d
            for r0, r1 in row_chunks(clo, chi, clo - lo):
                if not (median or d <= top):
                    break
                b = read(r0, r1, lo, clo)
                for k, cutoff in enumerate(cutoffs if median else ()):
                    under[k] += int(np.count_nonzero(b <= cutoff))
                m = float(b.max())
                d = d if d != d or m <= d else m
        stats[id(node)] = (d, tuple(under))
    return stats


def _clade_passes(
    node: Node,
    lo: int,
    hi: int,
    diameter: float,
    under: tuple[int, ...],
    k: int,
    cutoff: float,
    medians: dict[int, float] | None,
) -> bool:
    """Whether the pairs among node's tips [lo, hi) pass cutoff, the k-th
    of the grid's.

    A clade passes whose diameter is at most the cutoff; a NaN diameter
    fails it.  For the median, under[k] (the pairs at or under the cutoff)
    decides, and the median is computed, into medians by id(node), only
    when its two middle values straddle the cutoff.
    """
    if diameter <= cutoff:
        return True
    if medians is None or diameter != diameter:
        return False
    m = hi - lo
    pairs = m * (m - 1) // 2
    if 2 * under[k] != pairs:
        return 2 * under[k] > pairs
    if id(node) not in medians:
        medians[id(node)] = float(np.median(patristic_matrix(PhyloTree(node))))
    return medians[id(node)] <= cutoff


def _block_reader(
    source: Alignment | DistanceMatrix | None, labels: list[str]
) -> Callable[[int, int, int, int], np.ndarray]:
    """The p-distances among the tips, in label order."""
    if isinstance(source, Alignment):
        for lab in labels:
            if lab not in source:
                raise MissingSequence(lab)
        return p_block_reader(source.subset(labels))
    if not isinstance(source, DistanceMatrix):
        raise MissingSequence(labels[0])  # no sequences at all
    if source.kind is not MatrixKind.P_DISTANCE:
        raise ValueError(f"max-p needs p-distances, got {source.kind.value}")
    have = set(source.ids)
    for lab in labels:
        if lab not in have:
            raise TipSetMismatch(f"matrix is missing tip {lab!r}")
    return source.block_reader(labels)
