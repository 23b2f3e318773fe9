"""Partition comparison: adjusted Rand index, partial-reference scoring,
threshold criteria and their sweeps, and cross-method agreement summaries.

numpy is imported only where it runs, so scoring partitions loads none.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import EmptyList, IdSetMismatch
from .io_formats import Partition

if TYPE_CHECKING:
    import numpy as np

    from .distance import DistanceMatrix

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
    import numpy as np

    from .community import cocluster_fraction

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
        return freq
    dissent = np.subtract(1.0, freq.values, out=freq.values)
    order = _average_leaf_order(dissent, len(kept))
    del freq, dissent  # freed before the result triangle is built
    return cocluster_fraction(partitions, [kept[k] for k in order])


def _average_leaf_order(dissent: np.ndarray, n: int) -> list[int]:
    """Leaf order of average-linkage clustering of a condensed triangle.

    The nearest-neighbour chain (Müllner 2011, arXiv:1109.2378) step for
    step as scipy runs it, so the order equals scipy's
    `leaves_list(linkage(dissent, "average"))`, ties included: a chain
    step keeps the chain's previous element unless another cluster is
    strictly nearer, and otherwise takes the lowest index; the lower of
    two merged clusters x < y drops out and y holds the merge, at
    `(nx * d_xi + ny * d_yi) / (nx + ny)`; the merges are stable-sorted
    by height and relabelled by union-find with the smaller root on the
    left; the leaves are read in preorder.  `dissent` is the upper
    triangle of n ids in row-major order, every value finite, and is
    overwritten.
    """
    import numpy as np

    from .distance import _row_shift

    rows = np.arange(n)
    # the pair (i, j), i < j, sits at base[i] + j
    base = _row_shift(n, rows)
    # ids of the clusters not yet merged away, ascending; in a live row,
    # the columns of merged-away clusters hold inf
    live = rows
    live_base = base
    size = [1] * n
    chain: list[int] = []
    merges: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(int(live[0]))
        while True:
            x = chain[-1]
            k = int(np.searchsorted(live, x))
            above = dissent[base[x] + x + 1 : base[x] + n]
            y, nearest = -1, math.inf
            if x < n - 1:
                y = x + 1 + int(above.argmin())
                nearest = above[y - x - 1]
            if k:
                below = dissent[live_base[:k] + x]
                i = int(below.argmin())
                if below[i] <= nearest:
                    y, nearest = int(live[i]), below[i]
            if len(chain) > 1:
                prev = chain[-2]
                to_prev = dissent[base[min(x, prev)] + max(x, prev)]
                if not nearest < to_prev:
                    y, nearest = prev, to_prev
                    break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((float(nearest), x, y))
        size[x], size[y] = 0, nx + ny
        kx = int(np.searchsorted(live, x))
        ky = int(np.searchsorted(live, y))
        # live i < x: columns x and y; x's column becomes inf
        at_x = live_base[:kx] + x
        at_y = live_base[:kx] + y
        dissent[at_y] = (nx * dissent[at_x] + ny * dissent[at_y]) / (nx + ny)
        dissent[at_x] = math.inf
        # live x < i < y: row x and column y
        at_x = base[x] + live[kx + 1 : ky]
        at_y = live_base[kx + 1 : ky] + y
        dissent[at_y] = (nx * dissent[at_x] + ny * dissent[at_y]) / (nx + ny)
        # every i > y: rows x and y, where inf stays inf
        row_x = dissent[base[x] + y + 1 : base[x] + n]
        row_y = dissent[base[y] + y + 1 : base[y] + n]
        row_y[:] = (nx * row_x + ny * row_y) / (nx + ny)
        live = np.delete(live, kx)
        live_base = np.delete(live_base, kx)

    parent = list(range(2 * n - 1))

    def root(k: int) -> int:
        top = k
        while parent[top] != top:
            top = parent[top]
        while parent[k] != top:
            parent[k], k = top, parent[k]
        return top

    children: list[tuple[int, int]] = []
    for _, x, y in sorted(merges, key=lambda m: m[0]):
        a, b = root(x), root(y)
        parent[a] = parent[b] = n + len(children)
        children.append((min(a, b), max(a, b)))
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            order.append(node)
        else:
            stack += reversed(children[node - n])
    return order
