"""Ground-truth generators: planted-cluster trees, K80 sequence
evolution along them, and synthetic case metadata.

Every draw comes from a named substream of one seed, so outputs are
reproducible regardless of call order.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

from .io_formats import Alignment, CaseMetadata, Partition, SequenceRecord, Stage
from .phylo import Node, PhyloTree

_BASES = "ACGT"

# substream salts
_TOPOLOGY = 1
_BACKBONE = 2
_EVOLVE = 3
_MASK = 4
_META = 5


@dataclass(frozen=True)
class SimConfig:
    cluster_sizes: tuple[int, ...]
    within_mean: float = 0.01
    between_mean: float = 0.15
    stem_min: float | None = None
    seq_length: int = 918
    kappa: float = 2.0
    date_range: tuple[datetime.date, datetime.date] = (
        datetime.date(2012, 1, 1),
        datetime.date(2016, 2, 1),
    )
    phi_fraction: float = 0.3
    mask_fraction: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if sum(self.cluster_sizes) < 2:
            raise ValueError("need at least two tips in total")
        if any(s < 1 for s in self.cluster_sizes):
            raise ValueError("cluster sizes must be positive")
        if not 0 < self.within_mean < self.between_mean:
            raise ValueError("within_mean must be positive and below between_mean")
        if self.seq_length < 1:
            raise ValueError("seq_length must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0.0 <= self.phi_fraction <= 1.0:
            raise ValueError("phi_fraction must lie in [0, 1]")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in [0, 1]")
        if self.date_range[0] > self.date_range[1]:
            raise ValueError("date_range start must not exceed end")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must not be negative")
        if self.stem_min is None:
            # separability default: stems dominate within-cluster edges
            object.__setattr__(self, "stem_min", 3.0 * self.within_mean)
        elif self.stem_min <= 0:
            raise ValueError("stem_min must be positive")
        for name in ("within_mean", "between_mean", "stem_min", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _rng(cfg: SimConfig, *salt: int) -> np.random.Generator:
    return np.random.default_rng([cfg.rng_seed, *salt])


def _random_topology(labels: list[str], rng: np.random.Generator) -> Node:
    """Uniform rooted bifurcating topology over the given tips.

    Sequential attachment: tip k joins one of the 2k-3 existing edges
    or above the root, which weighs every labeled shape equally.
    """
    if len(labels) == 1:
        return Node(label=labels[0])
    root = Node()
    root.add(Node(label=labels[0]))
    root.add(Node(label=labels[1]))
    below = [root.children[0], root.children[1]]  # nodes owning a parent edge
    for name in labels[2:]:
        tip = Node(label=name)
        slot = int(rng.integers(len(below) + 1))
        joint = Node()
        if slot == len(below):
            joint.add(root)
            below.append(root)
            root = joint
        else:
            child = below[slot]
            parent = child.parent
            parent.children[parent.children.index(child)] = joint
            joint.parent = parent
            joint.add(child)
            below.append(joint)
        joint.add(tip)
        below.append(tip)
    return root


def simulate_tree(cfg: SimConfig) -> tuple[PhyloTree, Partition]:
    """Planted-cluster phylogeny plus the partition that planted it.

    Each cluster is a clade: a uniform topology with Exponential
    within_mean edges, hanging off a backbone whose edges are stem_min
    plus an Exponential between_mean draw.  Internal supports are 1.0.
    """
    total = sum(cfg.cluster_sizes)
    width = len(str(total))
    groups: list[list[str]] = []
    nxt = 1
    for size in cfg.cluster_sizes:
        groups.append([f"s{k:0{width}d}" for k in range(nxt, nxt + size)])
        nxt += size

    roots = []
    for ci, labels in enumerate(groups):
        rng = _rng(cfg, _TOPOLOGY, ci)
        sub = _random_topology(labels, rng)
        for node in PhyloTree(sub).preorder():
            if node is not sub:
                node.length = float(rng.exponential(cfg.within_mean))
            if node.children:
                node.support = 1.0
        roots.append(sub)

    rng = _rng(cfg, _BACKBONE)
    if len(roots) == 1:
        top = roots[0]
        top.length = None
    else:
        slots = [f"b{k}" for k in range(len(roots))]
        top = _random_topology(slots, rng)
        by_slot = {}
        for node in PhyloTree(top).preorder():
            if node is not top:
                node.length = cfg.stem_min + float(rng.exponential(cfg.between_mean))
            if node.is_tip:
                by_slot[node.label] = node
            else:
                node.support = 1.0
        for slot, sub in zip(slots, roots):
            holder = by_slot[slot]
            sub.length = holder.length
            sub.parent = holder.parent
            holder.parent.children[holder.parent.children.index(holder)] = sub

    tree = PhyloTree(top)
    planted = Partition.from_clusters(groups)
    masks = tree.node_masks()
    clade_masks = {masks[id(n)] for n in tree.preorder()}
    index = tree.tip_index()
    for labels in groups:
        want = 0
        for name in labels:
            want |= 1 << index[name]
        assert want in clade_masks, "planted cluster is not a clade"
    return tree, planted


def _k80_probs(distance: float, kappa: float) -> tuple[float, float, float]:
    """Exact K80 transition probabilities at unit mean rate.

    Returns (same, transition, each transversion) for one site over a
    branch of the given expected substitutions per site.
    """
    beta = 1.0 / (kappa + 2.0)
    alpha = kappa * beta
    e1 = np.exp(-4.0 * beta * distance)
    e2 = np.exp(-2.0 * (alpha + beta) * distance)
    p_same = 0.25 + 0.25 * e1 + 0.5 * e2
    p_ts = 0.25 + 0.25 * e1 - 0.5 * e2
    p_tv = 0.25 - 0.25 * e1
    return float(p_same), float(p_ts), float(p_tv)


def _evolve(
    codes: np.ndarray, distance: float, kappa: float, rng: np.random.Generator
) -> np.ndarray:
    p_same, p_ts, p_tv = _k80_probs(distance, kappa)
    u = rng.random(codes.shape[0])
    pick = rng.integers(0, 2, codes.shape[0]).astype(np.uint8)
    transitions = codes ^ 2
    transversions = (codes + 1 + 2 * pick) % 4
    out = np.where(
        u < p_same,
        codes,
        np.where(u < p_same + p_ts, transitions, transversions),
    )
    return out.astype(np.uint8)


def simulate_alignment(tree: PhyloTree, cfg: SimConfig) -> Alignment:
    """Evolve one i.i.d. uniform root sequence down every branch.

    Sites are independent; each branch applies the exact K80
    finite-time transition kernel for its length.
    """
    order = list(tree.preorder())
    root_rng = _rng(cfg, _EVOLVE, 0)
    seqs: dict[int, np.ndarray] = {
        id(tree.root): root_rng.integers(0, 4, cfg.seq_length).astype(np.uint8)
    }
    for k, node in enumerate(order):
        if node is tree.root:
            continue
        rng = _rng(cfg, _EVOLVE, k + 1)
        seqs[id(node)] = _evolve(
            seqs[id(node.parent)], node.length or 0.0, cfg.kappa, rng
        )

    tips = tree.tips()
    rows = np.stack([seqs[id(t)] for t in tips])
    letters = np.frombuffer(_BASES.encode(), dtype=np.uint8)[rows]
    if cfg.mask_fraction > 0.0:
        mask_rng = _rng(cfg, _MASK)
        hide = mask_rng.random(letters.shape) < cfg.mask_fraction
        letters = np.where(hide, np.uint8(ord("N")), letters)
    records = [
        SequenceRecord(tip.label, letters[i].tobytes().decode())
        for i, tip in enumerate(tips)
    ]
    return Alignment(records)


def simulate_metadata(p: Partition, cfg: SimConfig) -> list[CaseMetadata]:
    """Uniform collection dates and Bernoulli PHI staging per id."""
    rng = _rng(cfg, _META)
    start, end = cfg.date_range
    span = (end - start).days
    rows = []
    for ident in p.ids():
        date = start + datetime.timedelta(days=int(rng.integers(0, span + 1)))
        stage = Stage.PHI if rng.random() < cfg.phi_fraction else Stage.CHRONIC_UNTREATED
        rows.append(CaseMetadata(ident, date, stage, "MSM"))
    return rows
