"""Largest-gap clustering on a distance matrix.

Each sequence sorts its distances to everyone else and keeps as friends
everything before the largest jump between consecutive values, with the
search restricted to the closest fraction of the list.  Friendship is
closed symmetrically (either direction suffices) and connected components
of the resulting graph are the clusters.
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


def _check_defined(dm: DistanceMatrix, sq: np.ndarray) -> None:
    # sq is dm.square(): its first NaN in row-major order has i < j
    bad = np.isnan(sq)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), dm.n)
        raise UndefinedDistance(dm.ids[i], dm.ids[j])


def _row_friends(order: np.ndarray, row: np.ndarray, q: float) -> np.ndarray:
    """Indices of the friends of one row; order/row exclude self."""
    n_others = row.shape[0]
    if n_others == 1:
        return order[:1]  # a pair is always linked
    m = math.ceil(q * n_others)
    if m < 2:
        return order[:0]
    window = row[:m]
    gaps = window[1:] - window[:-1]
    j = int(np.argmax(gaps))  # first maximum = smallest j*
    if gaps[j] <= 0.0:
        return order[:0]
    return order[: j + 1]


def friend_set(
    dm: DistanceMatrix, i: int, config: GapConfig = GapConfig()
) -> set[int]:
    """Friend indices of sequence i under the largest-gap rule."""
    if dm.n < 2:
        raise EmptyInput("friend sets need at least two sequences")
    row = np.array([dm.get(i, j) for j in range(dm.n) if j != i])
    if np.isnan(row).any():
        j = int(np.flatnonzero(np.isnan(row))[0])
        other = j if j < i else j + 1
        raise UndefinedDistance(dm.ids[i], dm.ids[other])
    others = np.array([j for j in range(dm.n) if j != i], dtype=np.int64)
    order = np.argsort(row, kind="stable")
    return set(others[_row_friends(order, row[order], config.search_quantile)])


def gap_cluster(dm: DistanceMatrix, config: GapConfig = GapConfig()) -> Partition:
    """Connected components of the symmetric friendship graph."""
    n = dm.n
    if n < 2:
        raise EmptyInput("gap clustering needs at least two sequences")
    sq = dm.square()
    _check_defined(dm, sq)
    np.fill_diagonal(sq, -np.inf)  # self sorts first even among zero ties
    order = np.argsort(sq, axis=1, kind="stable")

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

    for i in range(n):
        row_order = order[i, 1:]  # drop self
        sorted_row = sq[i, row_order]
        for j in _row_friends(row_order, sorted_row, config.search_quantile):
            union(i, int(j))

    groups: dict[int, list[str]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(dm.ids[i])
    return Partition.from_clusters(groups.values())
