"""Largest-gap clustering on a distance matrix.

Each sequence sorts its distances to everyone else and finds the largest
jump between consecutive values, with the search restricted to the
closest fraction of the list.  Its friends are the others at or under
the value before that jump, which is the same set as the sorted prefix
before it.  Friendship is closed symmetrically (either direction
suffices) and connected components of the resulting graph are the
clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import DistanceMatrix
from .errors import EmptyInput, UndefinedDistance
from .io_formats import Partition


@dataclass(frozen=True)
class GapConfig:
    """search_quantile bounds how deep into the sorted row the gap search
    looks: only the first ceil(q * (n - 1)) entries are considered."""

    search_quantile: float = 0.90

    def __post_init__(self):
        if not 0.0 < self.search_quantile <= 1.0:
            raise ValueError(
                f"search_quantile {self.search_quantile} outside (0, 1]"
            )


def _row_cut(row: np.ndarray, q: float) -> float:
    """The distance at or under which one row's others are its friends.

    row holds the sorted distances to the others, self excluded.  The cut
    is the value before the largest gap in the window; a row with no
    positive gap gets -inf (no friends) and a pair gets +inf (always
    linked).  The next sorted value is larger, so the friends are exactly
    the sorted prefix up to the gap.
    """
    n_others = row.shape[0]
    if n_others == 1:
        return math.inf
    m = math.ceil(q * n_others)
    if m < 2:
        return -math.inf
    window = row[:m]
    gaps = window[1:] - window[:-1]
    j = int(np.argmax(gaps))  # first maximum = smallest j*
    if gaps[j] <= 0.0:
        return -math.inf
    return float(window[j])


def gap_cluster(dm: DistanceMatrix, config: GapConfig = GapConfig()) -> Partition:
    """Connected components of the symmetric friendship graph."""
    n = dm.n
    if n < 2:
        raise EmptyInput("gap clustering needs at least two sequences")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    # each full row, a strip at a time; the row's own 0 is left out of the
    # sort, and at most links the id to itself
    for a, strip in dm.strips():
        for i, full in enumerate(strip, a):
            ordered = np.sort(np.concatenate([full[:i], full[i + 1 :]]))
            if ordered[-1] != ordered[-1]:  # NaN sorts last; no earlier row had one
                j = i + 1 + int(np.argmax(np.isnan(full[i + 1 :])))
                raise UndefinedDistance(dm.ids[i], dm.ids[j])
            # a pair is linked when either end counts the other as a friend
            cut = _row_cut(ordered, config.search_quantile)
            for k in np.flatnonzero(full <= cut).tolist():
                union(i, k)

    groups: dict[int, list[str]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(dm.ids[i])
    return Partition.from_clusters(groups.values())
