"""Rooted phylogenies: traversal, rooting, patristic distances, consensus.

Trees are mutable node structures; every algorithm here is iterative so
pathological caterpillar shapes do not hit the interpreter recursion limit.
Within one tree a clade is a range [lo, hi) of its left-to-right tip
order (`PhyloTree.tip_spans`).  Comparisons across trees (rooting,
support, consensus) identify a clade by its tip set instead, held as an
integer bitset over a shared tip index.

Support values are attached to internal nodes but belong conceptually to
the edge above the node; re-rooting moves them so each value stays with
the tip bipartition its edge induces.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .distance import DistanceMatrix, MatrixKind
from .errors import (
    DegenerateTree,
    EmptyInput,
    OutgroupMissing,
    OutgroupNotMonophyletic,
    TipSetMismatch,
)

log = logging.getLogger(__name__)


class Node:
    """One tree vertex; length and support describe the edge to the parent."""

    __slots__ = ("label", "length", "support", "children", "parent")

    def __init__(
        self,
        label: str | None = None,
        length: float | None = None,
        support: float | None = None,
    ):
        self.label = label
        self.length = length
        self.support = support
        self.children: list[Node] = []
        self.parent: Node | None = None

    def add(self, child: "Node") -> "Node":
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_tip(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "tip" if self.is_tip else f"internal/{len(self.children)}"
        return f"<Node {self.label!r} {kind}>"


class PhyloTree:
    """A rooted tree with branch lengths and optional support values."""

    def __init__(self, root: Node):
        self.root = root
        self.missing_lengths = 0

    # ------------------------------------------------------------ traversal

    def preorder(self) -> Iterator[Node]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def postorder(self) -> Iterator[Node]:
        out: list[Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return reversed(out)

    def tips(self) -> list[Node]:
        return [n for n in self.preorder() if n.is_tip]

    def tip_labels(self) -> list[str]:
        return [n.label or "" for n in self.tips()]

    @property
    def num_tips(self) -> int:
        return len(self.tips())

    def edges(self) -> list[Node]:
        """Non-root nodes; each stands for the edge to its parent."""
        return [n for n in self.preorder() if n.parent is not None]

    # ------------------------------------------------------------- utility

    def copy(self) -> "PhyloTree":
        mapping: dict[int, Node] = {}
        new_root = Node(self.root.label, self.root.length, self.root.support)
        mapping[id(self.root)] = new_root
        for node in self.preorder():
            if node is self.root:
                continue
            clone = Node(node.label, node.length, node.support)
            mapping[id(node.parent)].add(clone)
            mapping[id(node)] = clone
        t = PhyloTree(new_root)
        t.missing_lengths = self.missing_lengths
        return t

    def tip_index(self) -> dict[str, int]:
        return {lab: k for k, lab in enumerate(self.tip_labels())}

    def tip_spans(self) -> dict[int, tuple[int, int]]:
        """Each node's tips as a range [lo, hi) of tip_labels(), by id(node);
        in that left-to-right order every clade's tips are one run."""
        spans: dict[int, tuple[int, int]] = {}
        k = 0
        for node in self.postorder():
            if node.is_tip:
                spans[id(node)] = (k, k + 1)
                k += 1
            else:
                spans[id(node)] = (
                    spans[id(node.children[0])][0],
                    spans[id(node.children[-1])][1],
                )
        return spans

    def node_masks(self, index: dict[str, int] | None = None) -> dict[int, int]:
        """Bitset of descendant tips per node, keyed by id(node)."""
        if index is None:
            index = self.tip_index()
        masks: dict[int, int] = {}
        for node in self.postorder():
            if node.is_tip:
                masks[id(node)] = 1 << index[node.label or ""]
            else:
                m = 0
                for c in node.children:
                    m |= masks[id(c)]
                masks[id(node)] = m
        return masks


@dataclass(frozen=True)
class Clade:
    """An internal node and the bitset of tips below it."""

    node: Node
    mask: int
    size: int


def enumerate_clades(
    tree: PhyloTree, index: dict[str, int] | None = None
) -> list[Clade]:
    """All internal-node clades in post-order."""
    if index is None:
        index = tree.tip_index()
    masks = tree.node_masks(index)
    return [
        Clade(node, masks[id(node)], bin(masks[id(node)]).count("1"))
        for node in tree.postorder()
        if not node.is_tip
    ]


def mask_to_labels(mask: int, labels: list[str]) -> list[str]:
    return [lab for k, lab in enumerate(labels) if mask >> k & 1]


# ----------------------------------------------------------------- rooting


def root_at_outgroup(tree: PhyloTree, outgroup: Iterable[str]) -> PhyloTree:
    """Re-root on the edge separating the outgroup, then drop the outgroup.

    Requires every outgroup id to be a tip and the outgroup to form a
    clade in the unrooted sense.  Patristic distances among the remaining
    tips are unchanged, and support values stay with their bipartitions.
    """
    og = set(outgroup)
    if not og:
        raise EmptyInput("empty outgroup")
    work = tree.copy()
    index = work.tip_index()
    for ident in sorted(og):
        if ident not in index:
            raise OutgroupMissing(ident)
    if len(og) == len(index):
        raise OutgroupNotMonophyletic("outgroup covers every tip")

    og_mask = 0
    for ident in og:
        og_mask |= 1 << index[ident]
    full = (1 << len(index)) - 1
    in_mask = full ^ og_mask
    masks = work.node_masks(index)

    # The ingroup already hangs below one node: detach that subtree.
    for node in work.preorder():
        if node.parent is not None and masks[id(node)] == in_mask:
            node.parent = None
            node.length = None
            node.support = None
            out = PhyloTree(node)
            out.missing_lengths = work.missing_lengths
            return out

    # Otherwise the outgroup must be a rooted clade; flip edges above its
    # attachment point so the rest of the tree hangs below it.
    og_node = None
    for node in work.preorder():
        if node.parent is not None and masks[id(node)] == og_mask:
            og_node = node
            break
    if og_node is None:
        raise OutgroupNotMonophyletic(
            "no edge separates the outgroup from the ingroup"
        )

    pivot = og_node.parent
    assert pivot is not None
    pivot.children.remove(og_node)

    # Flip every edge on the path from the pivot to the old root.  Each
    # flipped edge keeps its own length and support, so the values travel
    # with the bipartition rather than with a node.
    chain: list[Node] = []
    cur = pivot.parent
    while cur is not None:
        chain.append(cur)
        cur = cur.parent
    prev = pivot
    carry_len, carry_sup = pivot.length, pivot.support
    for node in chain:
        node.children.remove(prev)
        next_len, next_sup = node.length, node.support
        prev.children.append(node)
        node.parent = prev
        node.length, node.support = carry_len, carry_sup
        carry_len, carry_sup = next_len, next_sup
        prev = node
    return _finish_reroot(pivot, work.missing_lengths)


def _finish_reroot(pivot: Node, missing: int) -> PhyloTree:
    pivot.parent = None
    pivot.length = None
    pivot.support = None
    while len(pivot.children) == 1:
        pivot = pivot.children[0]
        pivot.parent = None
        pivot.length = None
        pivot.support = None
    _collapse_unary(pivot)
    out = PhyloTree(pivot)
    out.missing_lengths = missing
    return out


def _collapse_unary(root: Node) -> None:
    # A former root left with a single child merges into one edge; the
    # surviving node keeps its own support (both edges induce the same
    # bipartition once unary).
    stack = [root]
    while stack:
        node = stack.pop()
        while len(node.children) == 1 and node.parent is not None:
            child = node.children[0]
            child.length = (child.length or 0.0) + (node.length or 0.0)
            parent = node.parent
            pos = parent.children.index(node)
            parent.children[pos] = child
            child.parent = parent
            node = child
        stack.extend(node.children)


# ------------------------------------------------------------ path lengths


def patristic_matrix(tree: PhyloTree) -> DistanceMatrix:
    """Sum of branch lengths along the path between every tip pair.

    Missing lengths count as zero.  One postorder pass fills each internal
    node's cross-child blocks: every pair is written once, at its lowest
    common ancestor.
    """
    labels = tree.tip_labels()
    n = len(labels)
    if n < 2:
        raise DegenerateTree("patristic distances need at least two tips")
    sq = np.zeros((n, n), dtype=np.float64)
    spans = tree.tip_spans()

    # path length from each tip below a node up to that node
    up: dict[int, np.ndarray] = {}
    for node in tree.postorder():
        if node.is_tip:
            up[id(node)] = np.zeros(1, dtype=np.float64)
            continue
        parts = [
            (spans[id(c)], up.pop(id(c)) + (c.length or 0.0)) for c in node.children
        ]
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                (alo, ahi), da = parts[a]
                (blo, bhi), db = parts[b]
                block = da[:, None] + db[None, :]
                sq[alo:ahi, blo:bhi] = block
                sq[blo:bhi, alo:ahi] = block.T
        up[id(node)] = np.concatenate([d for _, d in parts])
    return DistanceMatrix.from_square(labels, sq, MatrixKind.PATRISTIC)


# ---------------------------------------------------------- support values


def _clade_mask_sets(
    trees: list[PhyloTree], index: dict[str, int]
) -> list[set[int]]:
    out = []
    expected = frozenset(index)
    for t in trees:
        if frozenset(t.tip_labels()) != expected:
            raise TipSetMismatch("sample tree tips differ from reference")
        masks = t.node_masks(index)
        out.append(
            {masks[id(n)] for n in t.postorder() if not n.is_tip}
        )
    return out


def annotate_support(
    reference: PhyloTree, sample: list[PhyloTree]
) -> PhyloTree:
    """Set each internal node's support to the fraction of sample trees
    containing the identical rooted tip set."""
    if not sample:
        raise EmptyInput("empty tree sample")
    out = reference.copy()
    index = out.tip_index()
    sample_sets = _clade_mask_sets(sample, index)
    masks = out.node_masks(index)
    total = len(sample)
    for node in out.postorder():
        if node.is_tip:
            continue
        m = masks[id(node)]
        node.support = sum(1 for s in sample_sets if m in s) / total
    return out


def majority_consensus(sample: list[PhyloTree]) -> PhyloTree:
    """Majority-rule consensus: clades present in more than half the trees.

    Each consensus node carries support = clade frequency and branch
    length = mean length over the trees that contain the clade.  Tip edge
    lengths average over the whole sample.
    """
    if not sample:
        raise EmptyInput("empty tree sample")
    ref = sample[0]
    index = ref.tip_index()
    labels = ref.tip_labels()
    n = len(labels)
    expected = frozenset(labels)

    counts: dict[int, int] = {}
    length_sums: dict[int, float] = {}
    tip_length_sums = np.zeros(n, dtype=np.float64)
    for t in sample:
        if frozenset(t.tip_labels()) != expected:
            raise TipSetMismatch("sample tree tips differ")
        masks = t.node_masks(index)
        seen: set[int] = set()
        for node in t.postorder():
            m = masks[id(node)]
            if node.is_tip:
                tip_length_sums[index[node.label or ""]] += node.length or 0.0
                continue
            if m in seen:  # unary chains collapse to one clade
                continue
            seen.add(m)
            counts[m] = counts.get(m, 0) + 1
            if node.parent is not None:
                length_sums[m] = length_sums.get(m, 0.0) + (node.length or 0.0)

    total = len(sample)
    majority = [m for m, c in counts.items() if c * 2 > total]
    majority.sort(key=lambda m: (-bin(m).count("1"), m))
    full = (1 << n) - 1
    if not majority or majority[0] != full:
        majority.insert(0, full)  # every rooted tree contains its tip set

    nodes: dict[int, Node] = {}
    for m in majority:
        node = Node()
        c = counts.get(m, total)
        node.support = c / total
        if m != full:
            node.length = length_sums.get(m, 0.0) / c
        nodes[m] = node
        if m != full:
            parent_mask = _smallest_superset(m, majority)
            nodes[parent_mask].add(node)
    for k, lab in enumerate(labels):
        tip = Node(lab, float(tip_length_sums[k]) / total)
        parent_mask = _smallest_superset(1 << k, majority)
        nodes[parent_mask].add(tip)
    return PhyloTree(nodes[full])


def _smallest_superset(m: int, ordered_masks: list[int]) -> int:
    # ordered_masks is sorted by descending popcount, so the last strict
    # superset found is the smallest one.
    best = ordered_masks[0]
    for cand in ordered_masks:
        if cand != m and cand & m == m:
            if bin(cand).count("1") < bin(best).count("1"):
                best = cand
    return best
