"""Rooted phylogenies: traversal, patristic distances, support, consensus.

Trees arrive rooted by the tree builder.  They are mutable node
structures; every algorithm here is iterative so pathological caterpillar
shapes do not hit the interpreter recursion limit.  Within one tree a
clade is a range [lo, hi) of its left-to-right tip order
(`PhyloTree.tip_spans`).  Comparisons across trees (support, consensus)
identify a clade by its tip set instead, held as an integer bitset over a
shared tip index.

Support values are attached to internal nodes but belong conceptually to
the edge above the node.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Iterator

from .errors import DegenerateTree, EmptyInput, TipSetMismatch

if TYPE_CHECKING:
    import numpy as np

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
        return PhyloTree(new_root)

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


def mask_to_labels(mask: int, labels: list[str]) -> list[str]:
    return [lab for k, lab in enumerate(labels) if mask >> k & 1]


# ------------------------------------------------------------ path lengths


def lift_path_lengths(h, node: Node, spans: dict[int, tuple[int, int]]) -> None:
    """Add the edge above each child of node to its tips' entries of the
    array h.  Lifted from zeros at each internal node in postorder, a
    node's tip_spans run of h holds its tips' path lengths up to it."""
    for child in node.children:
        lo, hi = spans[id(child)]
        h[lo:hi] += child.length or 0.0


def patristic_matrix(tree: PhyloTree) -> np.ndarray:
    """Sum of branch lengths along the path between every tip pair, as the
    condensed upper triangle (row major, float64) over tree.tip_labels().

    Missing lengths count as zero.  One postorder pass fills, at each
    internal node, the block between each child's earlier siblings' tips
    and its own, in row chunks: every pair is written once, at its lowest
    common ancestor.
    """
    import numpy as np

    from .distance import _row_shift, row_chunks

    labels = tree.tip_labels()
    n = len(labels)
    if n < 2:
        raise DegenerateTree("patristic distances need at least two tips")
    values = np.empty(n * (n - 1) // 2, dtype=np.float64)
    shift = _row_shift(n, np.arange(n))
    spans = tree.tip_spans()
    h = np.zeros(n, dtype=np.float64)
    for node in tree.postorder():
        if node.is_tip:
            continue
        lift_path_lengths(h, node, spans)
        lo = spans[id(node)][0]
        for child in node.children[1:]:
            clo, chi = spans[id(child)]
            for r0, r1 in row_chunks(lo, clo, chi - clo):
                at = shift[r0:r1, None] + np.arange(clo, chi)
                values[at] = h[r0:r1, None] + h[clo:chi]
    return values


# ---------------------------------------------------------- support values


def _clade_counts(
    sample: list[PhyloTree], index: dict[str, int]
) -> tuple[dict[int, int], dict[int, float], list[float]]:
    """Over the sample, per clade mask: the number of trees containing it
    and the sum of its edge lengths; per tip of index: the sum of its edge
    lengths.  A unary chain counts once, with its lowest edge."""
    counts: dict[int, int] = {}
    length_sums: dict[int, float] = {}
    tip_length_sums = [0.0] * len(index)
    expected = frozenset(index)
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
            if m in seen:
                continue
            seen.add(m)
            counts[m] = counts.get(m, 0) + 1
            if node.parent is not None:
                length_sums[m] = length_sums.get(m, 0.0) + (node.length or 0.0)
    return counts, length_sums, tip_length_sums


def annotate_support(
    reference: PhyloTree, sample: list[PhyloTree]
) -> PhyloTree:
    """Set each internal node's support to the fraction of sample trees
    containing the identical rooted tip set."""
    if not sample:
        raise EmptyInput("empty tree sample")
    out = reference.copy()
    index = out.tip_index()
    counts, _, _ = _clade_counts(sample, index)
    masks = out.node_masks(index)
    total = len(sample)
    for node in out.postorder():
        if not node.is_tip:
            node.support = counts.get(masks[id(node)], 0) / total
    return out


def majority_consensus(sample: list[PhyloTree]) -> PhyloTree:
    """Majority-rule consensus: clades present in more than half the trees.

    Each consensus node carries support = clade frequency and branch
    length = mean length over the trees that contain the clade.  Tip edge
    lengths average over the whole sample.
    """
    if not sample:
        raise EmptyInput("empty tree sample")
    labels = sample[0].tip_labels()
    counts, length_sums, tip_length_sums = _clade_counts(
        sample, sample[0].tip_index()
    )

    total = len(sample)
    majority = [m for m, c in counts.items() if c * 2 > total]
    majority.sort(key=lambda m: (-bin(m).count("1"), m))
    full = (1 << len(labels)) - 1
    if not majority or majority[0] != full:
        majority.insert(0, full)  # every rooted tree contains its tip set

    nodes: dict[int, Node] = {}
    for m in majority:
        node = Node()
        c = counts.get(m, total)
        node.support = c / total
        nodes[m] = node
        if m != full:
            node.length = length_sums.get(m, 0.0) / c
            nodes[_smallest_superset(m, majority)].add(node)
    for k, lab in enumerate(labels):
        tip = Node(lab, tip_length_sums[k] / total)
        parent_mask = _smallest_superset(1 << k, majority)
        nodes[parent_mask].add(tip)
    return PhyloTree(nodes[full])


def _smallest_superset(m: int, ordered_masks: list[int]) -> int:
    # ordered_masks is sorted by descending popcount and its masks nest or
    # are disjoint, so the last strict superset found is the smallest one.
    best = ordered_masks[0]
    for cand in ordered_masks:
        if cand != m and cand & m == m:
            best = cand
    return best
