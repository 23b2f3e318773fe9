"""Support-and-distance threshold clustering over a rooted tree.

The traversal starts at the root and emits a clade as one cluster as soon
as the node's support and the clade's distance statistic both pass; tips
never reached that way become singletons.  The three statistics cover the
usual desiderata: maximum pairwise p-distance, and median or maximum
within-clade patristic distance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix, MatrixKind, build_distance_matrix
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

    source supplies the distances: an Alignment (mandatory for
    MAX_PAIRWISE_P, from which p-distances are computed), a precomputed
    DistanceMatrix of the matching kind, or None to derive patristic
    distances from the tree.  The root counts as support 1.0; an
    undefined (NaN) distance inside a clade disqualifies that clade.
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

    dm = _resolve_matrix(tree, source, criteria.statistic, labels)
    sq = dm.square()
    if dm.ids != labels:
        perm = [dm.index_of(lab) for lab in labels]
        sq = sq[np.ix_(perm, perm)]
    # 2-D prefix counts of the cells under the cutoff and of the NaN cells
    count = np.zeros((2, len(labels) + 1, len(labels) + 1), dtype=np.int32)
    count[0, 1:, 1:] = sq <= criteria.distance_max
    count[1, 1:, 1:] = np.isnan(sq)
    np.cumsum(count, axis=1, out=count)
    np.cumsum(count, axis=2, out=count)

    clusters: list[list[str]] = []
    spans = tree.tip_spans()
    stack: list[Node] = [tree.root]
    while stack:
        node = stack.pop()
        lo, hi = spans[id(node)]
        support = 1.0 if node is tree.root else (node.support or 0.0)
        if hi - lo < 2 or (
            support >= criteria.support_min
            and _clade_passes(sq, count, lo, hi, criteria)
        ):
            clusters.append(labels[lo:hi])
        else:
            stack.extend(node.children)
    return Partition.from_clusters(clusters)


def _clade_passes(
    sq: np.ndarray, count: np.ndarray, lo: int, hi: int, criteria: ClusterCriteria
) -> bool:
    """Whether the pairs among tips [lo, hi) pass the statistic's cutoff.

    The pairs are the block sq[lo:hi, lo:hi], and count's prefix sums
    count its cells in O(1).  A NaN fails the clade.  A median is computed
    only when its two middle values straddle the cutoff.
    """
    under, undefined = (
        count[:, hi, hi] - count[:, lo, hi] - count[:, hi, lo] + count[:, lo, lo]
    ).tolist()
    if undefined:
        return False
    m = hi - lo
    pairs = m * (m - 1) // 2
    k = (under - m) // 2  # the zero diagonal is under the cutoff
    if criteria.statistic is not Statistic.MEDIAN_PATRISTIC:
        return k == pairs
    if 2 * k != pairs:
        return 2 * k > pairs
    vals = sq[lo:hi, lo:hi][np.triu_indices(m, k=1)]
    return float(np.median(vals)) <= criteria.distance_max


def tip_p_matrix(
    alignment: Alignment, labels: list[str], threads: int = 1
) -> DistanceMatrix:
    """p-distances among the named tips, rows in label order.

    Raises MissingSequence for a tip the alignment lacks.
    """
    for lab in labels:
        if lab not in alignment:
            raise MissingSequence(lab)
    return build_distance_matrix(
        alignment.subset(labels), MatrixKind.P_DISTANCE, threads=threads
    )


def _resolve_matrix(
    tree: PhyloTree,
    source: Alignment | DistanceMatrix | None,
    statistic: Statistic,
    labels: list[str],
) -> DistanceMatrix:
    if statistic is Statistic.MAX_PAIRWISE_P:
        if isinstance(source, Alignment):
            return tip_p_matrix(source, labels)
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
