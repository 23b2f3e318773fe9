"""Support-and-distance threshold clustering over a rooted tree.

The traversal starts at the root and emits a clade as one cluster as soon
as the node's support and the clade's distance statistic both pass; tips
never reached that way become singletons.  The three statistics cover the
usual desiderata: maximum pairwise p-distance, and median or maximum
within-clade patristic distance.

Every clade's diameter (its largest within-clade distance) and, for the
median, its number of pairs at or under the cutoff come from one
postorder pass, which reads each pair once, at its tips' lowest common
ancestor, as a block between one child's tips and its earlier siblings'.
The blocks come from a precomputed matrix or, for max-p from an
alignment, from the pair-count kernel on demand.  The maximum statistics
compare the diameter with the cutoff, so the pass reads a clade's blocks
only when all its children pass and stops at the first block that fails:
from an alignment it computes only those pairs.  A median passes at once
when the diameter does; otherwise the count settles it, and the median
itself is computed only when the two middle values straddle the cutoff.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distance import (
    DistanceMatrix,
    MatrixKind,
    build_distance_matrix,
    encode_alignment,
    p_block_reader,
)
from .errors import (
    DegenerateTree,
    MissingSequence,
    TipSetMismatch,
    UnannotatedSupport,
)
from .io_formats import Alignment, Partition
from .phylo import Node, PhyloTree, patristic_matrix


class Statistic(enum.Enum):
    MAX_PAIRWISE_P = "max-p"
    MEDIAN_PATRISTIC = "median-patristic"
    MAX_PATRISTIC = "max-patristic"


@dataclass(frozen=True)
class ClusterCriteria:
    """Support floor, distance ceiling, and which statistic the ceiling
    applies to."""

    support_min: float
    distance_max: float
    statistic: Statistic

    def __post_init__(self):
        if not 0.0 <= self.support_min <= 1.0:
            raise ValueError(f"support_min {self.support_min} outside [0, 1]")
        if self.distance_max <= 0.0:
            raise ValueError(f"distance_max {self.distance_max} must be > 0")


def percentile_cutoff(tree: PhyloTree, percentile: float) -> float:
    """Nearest-rank percentile of all pairwise patristic distances."""
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside (0, 100]")
    if tree.num_tips < 2:
        raise DegenerateTree("percentile cutoff needs at least two tips")
    values = np.sort(patristic_matrix(tree).values)
    rank = max(1, math.ceil(percentile / 100.0 * values.shape[0]))
    return float(values[rank - 1])


def threshold_cluster(
    tree: PhyloTree,
    source: Alignment | DistanceMatrix | None,
    criteria: ClusterCriteria,
) -> Partition:
    """Cluster tree tips by thresholding clade support and spread.

    source supplies the distances: an Alignment (MAX_PAIRWISE_P only,
    whose p-distances are computed just for the clades the search
    reads), a precomputed DistanceMatrix of the matching kind, or None to
    derive patristic distances from the tree.  The root counts as support
    1.0; an undefined (NaN) distance inside a clade disqualifies that
    clade.
    """
    labels = tree.tip_labels()
    if len(labels) != len(set(labels)):
        raise TipSetMismatch("duplicate tip labels")
    if criteria.support_min > 0.0:
        for node in tree.preorder():
            if node.parent is not None and node.children and node.support is None:
                raise UnannotatedSupport(
                    "support_min > 0 but an internal node has no support"
                )

    cutoff = criteria.distance_max
    median = criteria.statistic is Statistic.MEDIAN_PATRISTIC
    if criteria.statistic is Statistic.MAX_PAIRWISE_P and isinstance(
        source, Alignment
    ):
        sq = None  # only the median reads a clade's values
        read = p_block_reader(encode_alignment(_tip_alignment(source, labels)))

        def block(lo: int, clo: int, chi: int) -> np.ndarray:
            return read(clo, chi, lo, clo)

    else:
        sq = _tip_square(
            _resolve_matrix(tree, source, criteria.statistic, labels), labels
        )

        def block(lo: int, clo: int, chi: int) -> np.ndarray:
            return sq[clo:chi, lo:clo]

    spans = tree.tip_spans()
    stats = _diameters(tree, spans, block, cutoff, median)

    clusters: list[list[str]] = []
    stack: list[Node] = [tree.root]
    while stack:
        node = stack.pop()
        lo, hi = spans[id(node)]
        support = 1.0 if node is tree.root else (node.support or 0.0)
        if hi - lo < 2 or (
            support >= criteria.support_min
            and _clade_passes(sq, lo, hi, *stats[id(node)], cutoff, median)
        ):
            clusters.append(labels[lo:hi])
        else:
            stack.extend(node.children)
    return Partition.from_clusters(clusters)


def _tip_square(dm: DistanceMatrix, labels: list[str]) -> np.ndarray:
    """dm as a square whose rows and columns follow labels.

    Callers pass dm as a temporary, so a matrix built for this call is
    freed once its square exists.
    """
    sq = dm.square()
    if dm.ids != labels:
        perm = [dm.index_of(lab) for lab in labels]
        sq = sq[np.ix_(perm, perm)]
    return sq


def _diameters(
    tree: PhyloTree,
    spans: dict[int, tuple[int, int]],
    block: Callable[[int, int, int], np.ndarray],
    cutoff: float,
    median: bool,
) -> dict[int, tuple[float, int]]:
    """Each node's diameter and, for the median, its number of tip pairs at
    or under cutoff (0 otherwise), by id(node).  The diameter is the
    largest distance among the node's tips: -inf for a tip and NaN for a
    clade holding an undefined pair, which never counts as under the
    cutoff.

    A node's statistics combine its children's with the blocks between
    each child and the children before it, so each pair is read once:
    block(lo, clo, chi) returns the distances of tips [clo, chi) to tips
    [lo, clo).  NaN is kept explicitly: `max` is order-dependent on it.
    For the max statistics a clade fails as soon as one child or block
    does, and its blocks are read only when every child passes; a failed
    clade records a failing lower bound of its diameter, or NaN.
    """
    stats: dict[int, tuple[float, int]] = {}
    for node in tree.postorder():
        if node.is_tip:
            stats[id(node)] = (-math.inf, 0)
            continue
        kids = [stats[id(child)] for child in node.children]
        if not median:
            failed = next((s for s in kids if not s[0] <= cutoff), None)
            if failed is not None:
                stats[id(node)] = failed
                continue
        lo = spans[id(node)][0]
        d, under = kids[0]
        for child, (child_d, child_under) in zip(node.children[1:], kids[1:]):
            clo, chi = spans[id(child)]
            b = block(lo, clo, chi)
            if median:
                under += child_under + int(np.count_nonzero(b <= cutoff))
            for m in (child_d, float(b.max())):
                if d == d and not (m <= d):  # a NaN d stays; a NaN m wins
                    d = m
            if not median and not d <= cutoff:
                break
        stats[id(node)] = (d, under)
    return stats


def _clade_passes(
    sq: np.ndarray,
    lo: int,
    hi: int,
    diameter: float,
    under: int,
    cutoff: float,
    median: bool,
) -> bool:
    """Whether the pairs among tips [lo, hi) pass the statistic's cutoff.

    A clade passes whose diameter is at most the cutoff; a NaN diameter
    fails it.  For the median, under (the pairs at or under the cutoff)
    decides, and the median is computed only when its two middle values
    straddle the cutoff.
    """
    if diameter <= cutoff:
        return True
    if not median or diameter != diameter:
        return False
    m = hi - lo
    pairs = m * (m - 1) // 2
    if 2 * under != pairs:
        return 2 * under > pairs
    vals = sq[lo:hi, lo:hi][np.triu_indices(m, k=1)]
    return float(np.median(vals)) <= cutoff


def tip_p_matrix(
    alignment: Alignment, labels: list[str], threads: int = 1
) -> DistanceMatrix:
    """p-distances among the named tips, rows in label order.

    Raises MissingSequence for a tip the alignment lacks.
    """
    return build_distance_matrix(
        _tip_alignment(alignment, labels), MatrixKind.P_DISTANCE, threads=threads
    )


def _tip_alignment(alignment: Alignment, labels: list[str]) -> Alignment:
    """The tips' sequences in label order; MissingSequence for a tip the
    alignment lacks."""
    for lab in labels:
        if lab not in alignment:
            raise MissingSequence(lab)
    return alignment.subset(labels)


def _resolve_matrix(
    tree: PhyloTree,
    source: Alignment | DistanceMatrix | None,
    statistic: Statistic,
    labels: list[str],
) -> DistanceMatrix:
    if statistic is Statistic.MAX_PAIRWISE_P:
        if isinstance(source, DistanceMatrix):
            if source.kind is not MatrixKind.P_DISTANCE:
                raise ValueError(
                    f"{statistic.value} needs p-distances, got {source.kind.value}"
                )
            _check_ids(source, labels)
            return source
        raise MissingSequence("an alignment or p-distance matrix is required")
    # patristic statistics
    if source is None:
        return patristic_matrix(tree)
    if isinstance(source, DistanceMatrix):
        if source.kind is not MatrixKind.PATRISTIC:
            raise ValueError(
                f"{statistic.value} needs patristic distances, "
                f"got {source.kind.value}"
            )
        _check_ids(source, labels)
        return source
    raise ValueError("patristic statistics take a DistanceMatrix or None")


def _check_ids(dm: DistanceMatrix, labels: list[str]) -> None:
    have = set(dm.ids)
    for lab in labels:
        if lab not in have:
            raise TipSetMismatch(f"matrix is missing tip {lab!r}")
