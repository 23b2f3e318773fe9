"""Partition comparison: adjusted Rand index, partial-reference scoring,
threshold sweeps, and cross-method agreement summaries.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

import numpy as np

from .community import cocluster_fraction
from .distance import DistanceMatrix, MatrixKind
from .errors import EmptyList, EmptyPartition, IdSetMismatch
from .io_formats import Partition
from .threshold import ClusterCriteria, Statistic

DEFAULT_SUPPORT_GRID = (0.70, 0.90, 0.95)
DEFAULT_DISTANCE_GRID = (0.015, 0.03, 0.045, 0.068, 0.077)


def adjusted_rand_index(p: Partition, q: Partition) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    When the correction is degenerate (the index and its expectation
    coincide) the result is 1.0 for identical groupings and 0.0 otherwise.
    """
    if set(p.assignment) != set(q.assignment):
        raise IdSetMismatch("partitions cover different ids")
    n = len(p.assignment)
    table: dict[tuple[str, str], int] = {}
    a_margin: dict[str, int] = {}
    b_margin: dict[str, int] = {}
    for ident, pl in p.assignment.items():
        ql = q.assignment[ident]
        table[(pl, ql)] = table.get((pl, ql), 0) + 1
        a_margin[pl] = a_margin.get(pl, 0) + 1
        b_margin[ql] = b_margin.get(ql, 0) + 1

    sum_ij = sum(comb(v, 2) for v in table.values())
    sum_a = sum(comb(v, 2) for v in a_margin.values())
    sum_b = sum(comb(v, 2) for v in b_margin.values())
    pairs = comb(n, 2)
    if pairs == 0:
        return 1.0
    expected = sum_a * sum_b / pairs
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0 if p.same_grouping(q) else 0.0
    return (sum_ij - expected) / (maximum - expected)


@dataclass(frozen=True)
class ReferenceSet:
    """A trusted partition over part of a universe of ids."""

    reference: Partition
    universe: tuple[str, ...]

    def __post_init__(self):
        missing = set(self.reference.assignment) - set(self.universe)
        if missing:
            raise IdSetMismatch(
                f"reference ids outside the universe: {sorted(missing)[:5]}"
            )


def _fresh_label(start: int, taken: set[str]) -> str:
    k = start
    while str(k) in taken:
        k += 1
    return str(k)


def partial_gold_transform(
    candidate: Partition, ref: ReferenceSet
) -> tuple[Partition, Partition]:
    """Score a candidate partition against a partial reference.

    Returns (transformed candidate, expanded gold), both over the whole
    universe.  Candidate ids co-clustered with at least one reference
    member keep their labels; every other id collapses into one fresh
    label.  The gold side keeps reference labels and pools all
    non-reference ids under one fresh label.
    """
    missing = set(ref.universe) - set(candidate.assignment)
    if missing:
        raise IdSetMismatch(
            f"candidate does not cover the universe: {sorted(missing)[:5]}"
        )
    cand = candidate.restrict(ref.universe)
    ref_ids = set(ref.reference.assignment)

    touching = {cand.assignment[i] for i in ref_ids}
    k_c = len(touching)
    outside_c = _fresh_label(k_c + 1, touching)
    transformed = {
        ident: (lab if lab in touching else outside_c)
        for ident, lab in cand.assignment.items()
    }

    ref_labels = set(ref.reference.assignment.values())
    k_r = len(ref_labels)
    outside_r = _fresh_label(k_r + 1, ref_labels)
    gold = {
        ident: (
            ref.reference.assignment[ident]
            if ident in ref_ids
            else outside_r
        )
        for ident in ref.universe
    }
    return Partition(transformed), Partition(gold)


def reference_ari(candidate: Partition, ref: ReferenceSet) -> float:
    transformed, gold = partial_gold_transform(candidate, ref)
    return adjusted_rand_index(transformed, gold)


def cutpoint_sweep(
    runner: Callable[[ClusterCriteria], Partition],
    ref: ReferenceSet,
    support_grid: Sequence[float] = DEFAULT_SUPPORT_GRID,
    distance_grid: Sequence[float] = DEFAULT_DISTANCE_GRID,
    statistic: Statistic = Statistic.MAX_PAIRWISE_P,
) -> tuple[ClusterCriteria, float, dict[tuple[float, float], float]]:
    """Evaluate a clustering runner over a support x distance grid.

    Scores are partial-reference adjusted Rand indices.  Ties go to the
    smallest distance_max, then the largest support_min, so the winner
    does not depend on grid ordering.
    """
    if not support_grid or not distance_grid:
        raise EmptyList("empty sweep grid")
    grid: dict[tuple[float, float], float] = {}
    best: tuple[float, float] | None = None
    best_ari = -np.inf
    for s in support_grid:
        for d in distance_grid:
            ari = reference_ari(runner(ClusterCriteria(s, d, statistic)), ref)
            grid[(s, d)] = ari
            if (
                best is None
                or ari > best_ari
                or (ari == best_ari and (d, -s) < (best[1], -best[0]))
            ):
                best = (s, d)
                best_ari = ari
    assert best is not None
    criteria = ClusterCriteria(best[0], best[1], statistic)
    return criteria, float(best_ari), grid


def method_cocluster_matrix(
    partitions: list[Partition],
    ids: Sequence[str],
) -> DistanceMatrix:
    """Fraction of partitions co-clustering each pair of ids.

    Only ids that are non-singleton in at least one partition appear.
    Rows are ordered by the leaf order of average-linkage clustering on
    1 - frequency, which groups mutually agreeing ids together.
    Returns a COCLUSTER-kind DistanceMatrix whose ids are the kept ids in
    that order and whose values are the pair fractions.
    """
    # imported here because no other command needs scipy's half-second
    # import; imported before the n x n arrays exist, because importing
    # after them raised the paper-scale `compare` peak RSS by 12 MB
    from scipy.cluster.hierarchy import leaves_list, linkage

    if not partitions:
        raise EmptyList("no partitions to compare")
    wanted = set(ids)
    for p in partitions:
        if not wanted <= set(p.assignment):
            raise IdSetMismatch("partition does not cover the given ids")
    keep: set[str] = set()
    for p in partitions:
        keep |= p.restrict(ids).multi_member_ids()
    kept = sorted(keep)
    freq = cocluster_fraction(partitions, kept)
    if len(kept) < 3:
        return DistanceMatrix.from_square(kept, freq, MatrixKind.COCLUSTER)
    dissent = 1.0 - DistanceMatrix.from_square(kept, freq, MatrixKind.COCLUSTER).values
    order = leaves_list(linkage(dissent, method="average"))
    del dissent  # freed before the leaf-ordered copy, which is the peak
    return DistanceMatrix.from_square(
        [kept[k] for k in order], freq[np.ix_(order, order)], MatrixKind.COCLUSTER
    )


@dataclass(frozen=True)
class PartitionSummary:
    """Cluster-size statistics, with and without singletons."""

    num_ids: int
    num_clusters: int
    mean_size: float
    mean_size_no_singletons: float
    median_size_no_singletons: float
    max_size: int
    num_singletons: int
    num_clusters_ge2: int


def partition_summary(p: Partition) -> PartitionSummary:
    sizes = p.sizes()
    if not sizes:
        raise EmptyPartition("cannot summarize an empty partition")
    multi = [s for s in sizes if s >= 2]
    return PartitionSummary(
        num_ids=len(p),
        num_clusters=len(sizes),
        mean_size=sum(sizes) / len(sizes),
        mean_size_no_singletons=(sum(multi) / len(multi)) if multi else 0.0,
        median_size_no_singletons=(
            float(statistics.median(multi)) if multi else 0.0
        ),
        max_size=max(sizes),
        num_singletons=sum(1 for s in sizes if s == 1),
        num_clusters_ge2=len(multi),
    )
