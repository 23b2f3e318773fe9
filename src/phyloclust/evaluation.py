"""Partition comparison: adjusted Rand index, partial-reference scoring,
threshold criteria and their sweeps, and cross-method agreement summaries.

numpy is imported only where it runs, so scoring partitions loads none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .errors import EmptyList, IdSetMismatch
from .io_formats import Partition

if TYPE_CHECKING:
    from pathlib import Path

    import numpy as np


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
        if not self.distance_max > 0.0:
            raise ValueError(f"distance_max {self.distance_max} must be > 0")


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
    points: Sequence[ClusterCriteria],
) -> tuple[ClusterCriteria, float, dict[tuple[float, float], float]]:
    """Evaluate a clustering runner at each point of a grid.

    Scores are partial-reference adjusted Rand indices, keyed by
    (support_min, distance_max).  Ties go to the smallest distance_max,
    then the largest support_min, so the winner does not depend on grid
    ordering.
    """
    if not points:
        raise EmptyList("empty sweep grid")
    scores = {c: reference_ari(runner(c), ref) for c in points}
    best = max(scores, key=lambda c: (scores[c], -c.distance_max, c.support_min))
    grid = {(c.support_min, c.distance_max): ari for c, ari in scores.items()}
    return best, float(scores[best]), grid


def cocluster_rows(codes: np.ndarray) -> Iterator[np.ndarray]:
    """Row i of the COCLUSTER triangle over the columns of codes, a (k, n)
    array of non-negative integer labels with one row per partition: the
    fraction of rows that give column i the label of each of columns
    i+1 .. n-1, for i = 0 .. n-2, and 0 for every pair when k = 0.

    Each fraction is an exact count divided once by k.  In a row whose
    labels each fill one run of columns (a chain's clade ranges, compare's
    first partition), column j > i shares column i's label exactly when
    i's run ends past j, so those rows are counted by a suffix sum of one
    histogram of run ends, whatever the clusters' sizes.  Other rows are
    compared for equality, row i only up to its last co-member in them.
    A row with no co-member past i is a slice of one shared zero row.
    """
    import numpy as np

    k, n = codes.shape
    cols = np.arange(n)
    ends = np.empty((k, n), dtype=np.int32)  # of the m rows that fill runs
    m, ranged = 0, np.zeros(k, dtype=bool)
    top = np.zeros(n, dtype=np.int32)  # one past the last co-member in the rest
    if codes.size:  # max() of an empty array raises
        last = np.empty(int(codes.max()) + 1, dtype=np.intp)
        for r, row in enumerate(codes):
            last.fill(0)
            np.maximum.at(last, row, cols)
            end = last[row] + 1
            # each label's last column ends a run, and no other does when
            # every label fills one run
            if np.count_nonzero(end == cols + 1) == np.count_nonzero(row[1:] != row[:-1]) + 1:
                ends[m], m, ranged[r] = end, m + 1, True
            else:
                np.maximum(top, end, out=top)
    rest, zeros = codes[~ranged], np.zeros(n)
    far = ends[:m].max(axis=0, initial=0).tolist()
    for i, hi in enumerate(top[:-1].tolist()):
        if max(hi, far[i]) <= i + 1:
            yield zeros[: n - 1 - i]
            continue
        if far[i] > i + 1:
            runs = np.bincount(ends[:m, i], minlength=n + 1)[i + 2 :]
            count = np.cumsum(runs[::-1])[::-1]
        else:
            count = np.zeros(n - 1 - i, dtype=np.intp)
        if hi > i + 1:
            count[: hi - i - 1] += (rest[:, i + 1 : hi] == rest[:, i, None]).sum(axis=0)
        yield count / k


def method_cocluster_matrix(
    partitions: list[Partition], ids: Sequence[str], path: str | Path
) -> None:
    """Write the fraction of partitions co-clustering each pair of ids to
    path, in write_matrix_binary's layout (COCLUSTER values).

    Only ids that are non-singleton in at least one partition appear.
    They are ordered by their labels in partition 1, ..., k, then by id,
    so each run of ids that every partition co-clusters is contiguous,
    and each of partition 1's labels fills one run.  Each partition's
    labels become integer codes for cocluster_rows (the chain's kernel
    too), and the triangle is streamed, never held whole.
    """
    import numpy as np

    from .distance import write_binary_rows

    if not partitions:
        raise EmptyList("no partitions to compare")
    wanted = set(ids)
    for p in partitions:
        if not wanted <= set(p.assignment):
            raise IdSetMismatch("partition does not cover the given ids")
    keep: set[str] = set()
    for p in partitions:
        keep |= p.restrict(ids).multi_member_ids()
    order = sorted(keep, key=lambda i: (*(p.assignment[i] for p in partitions), i))
    codes = np.array([
        np.unique([p.assignment[i] for i in order], return_inverse=True)[1]
        for p in partitions
    ])
    write_binary_rows(order, cocluster_rows(codes), path)
