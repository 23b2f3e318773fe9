"""Metropolis-Hastings sampling over clade partitions of a fixed tree.

Clusters are clades with a distinctively short branch-length regime:
edges strictly inside multi-member clusters are scored against an
Exponential with mean mu_w, every other edge against mean mu_b, on top
of a Chinese-restaurant prior on the grouping, a Poisson weight on the
cluster count, uniform windows around the initial branch-length means,
and a Gamma prior on the concentration.

The sampler's clade move either splits a cluster into its child clades
or merges sibling clusters into their parent, the two directions sharing
one code path; random walks update the continuous parameters.  States
are valid antichains by construction.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distance import DistanceMatrix, write_binary_rows
from .errors import DegenerateTree, MalformedRow
from .evaluation import cocluster_rows
from .io_formats import (
    Alignment,
    Partition,
    load_partition,
    write_partition,
)
from .phylo import Node, PhyloTree
from .threshold import ClusterCriteria, Statistic, threshold_cluster

log = logging.getLogger(__name__)

_EDGE_FLOOR = 1e-9
# starting partition: max-p threshold clustering at the paper's criteria
_INIT_SUPPORT_MIN = 0.90
_INIT_DISTANCE_MAX = 0.045
# walk tuning: fraction of the uniform window per mu step, log step for alpha
_MU_STEP_FRACTION = 0.10
_ALPHA_STEP = 0.10

# a clade as (lowest node, lo, hi): its tips are tip_labels()[lo:hi]
CladeSpan = tuple[Node, int, int]


@dataclass(frozen=True)
class ChainConfig:
    """Chain length, priors and seed.  The starting criteria and the walk
    step sizes are module constants (_INIT_*, _MU_STEP_FRACTION, _ALPHA_STEP)."""

    iterations: int = 220_000
    burn_in: int = 20_000
    thin: int = 200
    radius: float = 0.25
    concentration_shape: float = 500.0
    concentration_scale: float = 0.2
    cluster_count_rate: float = 2368.0
    rng_seed: int = 0
    # overrides for controlled runs; None means data-driven initialization
    init_mu_w: float | None = None
    init_mu_b: float | None = None
    init_alpha: float | None = None
    topology_only: bool = False

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must not be negative")
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if not 0.0 < self.radius < 1.0:
            raise ValueError("radius must lie strictly between 0 and 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must not be negative")

    @property
    def num_retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass(frozen=True)
class ChainState:
    """An antichain of clades covering all tips, sorted by lo, plus the
    walk parameters."""

    clades: tuple[CladeSpan, ...]
    mu_w: float
    mu_b: float
    alpha: float
    mu_w_window: tuple[float, float]
    mu_b_window: tuple[float, float]


@dataclass(frozen=True)
class ChainSummary:
    """A chain's MAP partition and score, the tree's tip labels in order
    (ids), its post-burn-in trace and its retained samples.

    trace[k] is the log posterior after iteration burn_in + 1 + k.  Every
    cluster is a clade, so a tip range ids[lo:hi]; retained_samples holds
    one int32 row per retained sample, whose entry t is the hi of tip t's
    range.  That hi names tip t's cluster, so save_chain_summary passes the
    rows as label codes to evaluation.cocluster_rows, the kernel compare
    uses too, which counts clade ranges by a histogram of their ends, and
    streams the co-clustering triangle to disk row by row.
    """

    map_partition: Partition
    map_log_posterior: float
    ids: list[str]
    burn_in: int
    trace: np.ndarray
    retained_samples: np.ndarray


def _sample_labels(end: np.ndarray, rank: np.ndarray) -> np.ndarray:
    # Each tip's label in Partition.from_clusters numbering for the
    # retained sample end: clusters count from 1 in the order of their
    # smallest id as a string, where rank[t] is tip t's place in that order.
    lo = np.flatnonzero(np.diff(end, prepend=0))
    label = np.empty(lo.size, dtype=np.intp)
    label[np.argsort(np.minimum.reduceat(rank, lo))] = np.arange(1, lo.size + 1)
    return np.repeat(label, end[lo] - lo)


# ---------------------------------------------------------------- scoring


def _floored_length(node: Node) -> float:
    return max(node.length or 0.0, _EDGE_FLOOR)


def _edge_terms(tree: PhyloTree) -> tuple[int, float]:
    count = 0
    total = 0.0
    for node in tree.preorder():
        if node.parent is not None:
            count += 1
            total += _floored_length(node)
    return count, total


def _within_terms(clades: tuple[CladeSpan, ...]) -> tuple[int, float]:
    count = 0
    total = 0.0
    for top, lo, hi in clades:
        if hi - lo < 2:
            continue
        stack = list(top.children)
        while stack:
            node = stack.pop()
            count += 1
            total += _floored_length(node)
            stack.extend(node.children)
    return count, total


def _log_poisson(k: int, rate: float) -> float:
    return k * math.log(rate) - rate - math.lgamma(k + 1)


def _log_gamma_pdf(x: float, shape: float, scale: float) -> float:
    if x <= 0.0:
        return -math.inf
    return (
        (shape - 1.0) * math.log(x)
        - x / scale
        - math.lgamma(shape)
        - shape * math.log(scale)
    )


def _assembled_log_posterior(
    w_count: int,
    w_total: float,
    e_count: int,
    e_total: float,
    k: int,
    size_lgamma_sum: float,
    n: int,
    s_mu_w: float,
    s_mu_b: float,
    s_alpha: float,
    mu_w_window: tuple[float, float],
    mu_b_window: tuple[float, float],
    cfg: ChainConfig,
) -> float:
    if not mu_w_window[0] <= s_mu_w <= mu_w_window[1]:
        return -math.inf
    if not mu_b_window[0] <= s_mu_b <= mu_b_window[1]:
        return -math.inf
    if s_mu_w > s_mu_b:
        return -math.inf
    b_count = e_count - w_count
    b_total = e_total - w_total
    val = (
        -w_count * math.log(s_mu_w)
        - w_total / s_mu_w
        - b_count * math.log(s_mu_b)
        - b_total / s_mu_b
    )
    val += (
        k * math.log(s_alpha)
        + math.lgamma(s_alpha)
        - math.lgamma(s_alpha + n)
        + size_lgamma_sum
    )
    val += _log_poisson(k, cfg.cluster_count_rate)
    val -= math.log(mu_w_window[1] - mu_w_window[0])
    val -= math.log(mu_b_window[1] - mu_b_window[0])
    val += _log_gamma_pdf(
        s_alpha, cfg.concentration_shape, cfg.concentration_scale
    )
    return val


def log_posterior(s: ChainState, t: PhyloTree, cfg: ChainConfig) -> float:
    """Joint log score of a state; -inf outside the parameter support."""
    e_count, e_total = _edge_terms(t)
    w_count, w_total = _within_terms(s.clades)
    sizes = [hi - lo for _, lo, hi in s.clades]
    return _assembled_log_posterior(
        w_count,
        w_total,
        e_count,
        e_total,
        len(sizes),
        sum(math.lgamma(z) for z in sizes),
        sum(sizes),
        s.mu_w,
        s.mu_b,
        s.alpha,
        s.mu_w_window,
        s.mu_b_window,
        cfg,
    )


# ----------------------------------------------------------- initialization


def _clade_nodes_for(tree: PhyloTree, p: Partition) -> tuple[CladeSpan, ...]:
    index = tree.tip_index()
    spans = tree.tip_spans()
    by_span: dict[tuple[int, int], Node] = {}
    for node in tree.postorder():  # children first: a unary chain keeps its lowest
        by_span.setdefault(spans[id(node)], node)
    clades = []
    for members in p.clusters().values():
        tips = [index[ident] for ident in members]
        lo, hi = min(tips), max(tips) + 1
        node = by_span.get((lo, hi))
        if node is None or hi - lo != len(members):
            raise DegenerateTree("cluster is not a clade of the tree")
        clades.append((node, lo, hi))
    clades.sort(key=lambda c: c[1])
    return tuple(clades)


def initialize_chain(
    t: PhyloTree, a: Alignment | DistanceMatrix, cfg: ChainConfig
) -> ChainState:
    """Starting state from a conservative support-and-distance partition.

    a supplies its p-distances: an alignment, of which only the pairs the
    start's clades need are compared, or a p-distance matrix over the
    tips.  The within mean comes from edges inside the initial
    multi-member clusters; when there are none the smallest decile of all
    edges stands in.  The between mean covers the remaining edges, or
    every edge when nothing is left over.
    """
    criteria = ClusterCriteria(
        _INIT_SUPPORT_MIN, _INIT_DISTANCE_MAX, Statistic.MAX_PAIRWISE_P
    )
    start = threshold_cluster(t, a, criteria)
    clades = _clade_nodes_for(t, start)

    all_lengths = sorted(
        _floored_length(node) for node in t.preorder() if node.parent is not None
    )
    if not all_lengths:
        raise DegenerateTree("tree has no edges")
    w_count, w_total = _within_terms(clades)
    e_count, e_total = len(all_lengths), sum(all_lengths)

    if cfg.init_mu_w is not None:
        m_w = cfg.init_mu_w
    elif w_count == 0:
        decile = all_lengths[: max(1, math.ceil(e_count / 10))]
        m_w = sum(decile) / len(decile)
        log.warning(
            "initial partition has no within-cluster edges; "
            "using smallest-decile mean %.3g",
            m_w,
        )
    else:
        m_w = w_total / w_count

    if cfg.init_mu_b is not None:
        m_b = cfg.init_mu_b
    elif e_count == w_count:
        m_b = e_total / e_count
        log.warning(
            "initial partition leaves no between-cluster edges; "
            "using overall mean %.3g",
            m_b,
        )
    else:
        m_b = (e_total - w_total) / (e_count - w_count)

    if m_w > m_b:
        log.warning(
            "initial within mean %.3g exceeds between mean %.3g; clamping",
            m_w,
            m_b,
        )
        m_b = m_w

    alpha = (
        cfg.init_alpha
        if cfg.init_alpha is not None
        else cfg.concentration_shape * cfg.concentration_scale
    )
    return ChainState(
        clades=clades,
        mu_w=m_w,
        mu_b=m_b,
        alpha=alpha,
        mu_w_window=(m_w * (1 - cfg.radius), m_w * (1 + cfg.radius)),
        mu_b_window=(m_b * (1 - cfg.radius), m_b * (1 + cfg.radius)),
    )


# ------------------------------------------------------------------ kernel


def _accept(rng: np.random.Generator, log_ratio: float) -> bool:
    # exp underflows to 0.0 for very negative ratios, never raising
    return log_ratio >= 0.0 or rng.random() < math.exp(log_ratio)


class _IndexedSet:
    """Set of nodes with O(1) add, remove, and uniform sampling."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items: list[Node] = []
        self.pos: dict[int, int] = {}

    def add(self, node: Node) -> None:
        if id(node) in self.pos:
            return
        self.pos[id(node)] = len(self.items)
        self.items.append(node)

    def discard(self, node: Node) -> None:
        k = self.pos.pop(id(node), None)
        if k is None:
            return
        last = self.items.pop()
        if k < len(self.items):
            self.items[k] = last
            self.pos[id(last)] = k

    def __contains__(self, node: Node) -> bool:
        return id(node) in self.pos

    def __len__(self) -> int:
        return len(self.items)

    def sample(self, rng: np.random.Generator) -> Node:
        return self.items[int(rng.integers(len(self.items)))]


def run_chain(
    t: PhyloTree, a: Alignment | DistanceMatrix, cfg: ChainConfig
) -> ChainSummary:
    """Sample the chain and summarize it.

    Iterations count from 1; everything after burn_in feeds the trace
    and the best-state bookkeeping, and every thin-th of those is
    retained for the co-clustering average.
    """
    state = initialize_chain(t, a, cfg)
    labels = t.tip_labels()
    n = len(labels)
    rng = np.random.default_rng([cfg.rng_seed, 23])

    spans = t.tip_spans()
    tip_count = {k: hi - lo for k, (lo, hi) in spans.items()}
    child_len_sum = {
        id(node): sum(_floored_length(c) for c in node.children)
        for node in t.postorder()
    }

    e_count, e_total = _edge_terms(t)
    w_count, w_total = _within_terms(state.clades)
    k_count = len(state.clades)
    size_lgamma = sum(math.lgamma(hi - lo) for _, lo, hi in state.clades)

    # the clusters' tip ranges: end_at_lo[lo] = hi for each cluster
    # tips[lo:hi], 0 elsewhere, so a running maximum is each tip's range end
    end_at_lo = np.zeros(n, dtype=np.int32)
    splittable = _IndexedSet()
    mergeable = _IndexedSet()
    ready: dict[int, int] = {}
    for node, lo, hi in state.clades:
        end_at_lo[lo] = hi
        if len(node.children) >= 2:
            splittable.add(node)
    initial = {id(node) for node, _, _ in state.clades}
    for node in t.preorder():
        if len(node.children) >= 2:
            ready[id(node)] = sum(1 for ch in node.children if id(ch) in initial)
            if ready[id(node)] == len(node.children):
                mergeable.add(node)

    mu_w, mu_b, alpha = state.mu_w, state.mu_b, state.alpha
    w_lo, w_hi = state.mu_w_window
    b_lo, b_hi = state.mu_b_window
    lam = cfg.cluster_count_rate

    def current_logpost() -> float:
        return _assembled_log_posterior(
            w_count,
            w_total,
            e_count,
            e_total,
            k_count,
            size_lgamma,
            n,
            mu_w,
            mu_b,
            alpha,
            (w_lo, w_hi),
            (b_lo, b_hi),
            cfg,
        )

    def topology_delta(d_w: int, d_tw: float, d_k: int, d_lg: float) -> float:
        return (
            d_w * (math.log(mu_b) - math.log(mu_w))
            + d_tw * (1.0 / mu_b - 1.0 / mu_w)
            + d_k * math.log(alpha)
            + d_lg
            + d_k * math.log(lam)
            - (math.lgamma(k_count + d_k + 1) - math.lgamma(k_count + 1))
        )

    def register_cluster(node: Node) -> None:
        lo, hi = spans[id(node)]
        end_at_lo[lo] = hi
        if len(node.children) >= 2:
            splittable.add(node)
        parent = node.parent
        if parent is not None and id(parent) in ready:
            ready[id(parent)] += 1
            if ready[id(parent)] == len(parent.children):
                mergeable.add(parent)

    def unregister_cluster(node: Node) -> None:
        end_at_lo[spans[id(node)][0]] = 0
        splittable.discard(node)
        parent = node.parent
        if parent is not None and id(parent) in ready:
            if ready[id(parent)] == len(parent.children):
                mergeable.discard(parent)
            ready[id(parent)] -= 1

    lp = current_logpost()
    trace = np.empty(cfg.iterations - cfg.burn_in)
    ends = np.empty((cfg.num_retained, n), dtype=np.int32)
    retained = 0
    best_lp = -math.inf
    best_snapshot: np.ndarray | None = None

    num_moves = 2 if cfg.topology_only else 4

    for it in range(1, cfg.iterations + 1):
        move = int(rng.integers(num_moves))
        if move < 2:
            # CLADE: a split (move 0) replaces a cluster by its child clades,
            # a merge (move 1), its inverse, collapses them into the parent
            pool, other = (mergeable, splittable) if move else (splittable, mergeable)
            if len(pool) > 0:
                target = pool.sample(rng)
                kids = target.children
                m = len(kids)
                sign = 1 if move else -1
                d_w = sign * m
                d_tw = sign * child_len_sum[id(target)]
                d_k = -sign * (m - 1)
                d_lg = sign * (
                    math.lgamma(tip_count[id(target)])
                    - sum(math.lgamma(tip_count[id(ch)]) for ch in kids)
                )
                delta = topology_delta(d_w, d_tw, d_k, d_lg)
                # the inverse move's targets afterwards: the target joins,
                # a merge's kids leave, and so does a split's parent
                gone = sum(c in other for c in kids) if move else target.parent in other
                after = len(other) + 1 - gone
                if _accept(rng, delta + (math.log(len(pool)) - math.log(after))):
                    leaving, joining = (kids, (target,)) if move else ((target,), kids)
                    for node in leaving:
                        unregister_cluster(node)
                    for node in joining:
                        register_cluster(node)
                    w_count += d_w
                    w_total += d_tw
                    k_count += d_k
                    size_lgamma += d_lg
                    lp += delta
        elif move == 2:
            # WALK-mu: nudge one regime mean inside its uniform window; the
            # between regime holds every edge the within regime does not
            within = int(rng.integers(2)) == 0
            low, high, mean, count, total = (
                (w_lo, w_hi, mu_w, w_count, w_total)
                if within
                else (b_lo, b_hi, mu_b, e_count - w_count, e_total - w_total)
            )
            step = _MU_STEP_FRACTION * (high - low)
            prop = mean + float(rng.uniform(-step, step))
            new_w, new_b = (prop, mu_b) if within else (mu_w, prop)
            if low <= prop <= high and new_w <= new_b:
                delta = (
                    -count * (math.log(prop) - math.log(mean))
                    - total * (1.0 / prop - 1.0 / mean)
                )
                if _accept(rng, delta):
                    mu_w, mu_b = new_w, new_b
                    lp += delta
        elif move == 3:
            # WALK-alpha: symmetric step in log space, hence the log ratio
            # enters the acceptance as the proposal-density correction
            prop = alpha * math.exp(float(rng.uniform(-_ALPHA_STEP, _ALPHA_STEP)))
            delta = (
                k_count * (math.log(prop) - math.log(alpha))
                + math.lgamma(prop)
                - math.lgamma(alpha)
                - math.lgamma(prop + n)
                + math.lgamma(alpha + n)
                + _log_gamma_pdf(
                    prop, cfg.concentration_shape, cfg.concentration_scale
                )
                - _log_gamma_pdf(
                    alpha, cfg.concentration_shape, cfg.concentration_scale
                )
            )
            log_hastings = math.log(prop) - math.log(alpha)
            if _accept(rng, delta + log_hastings):
                alpha = prop
                lp += delta

        if it <= cfg.burn_in:
            continue
        trace[it - cfg.burn_in - 1] = lp
        if lp > best_lp:
            best_lp = lp
            best_snapshot = end_at_lo.copy()
        if (it - cfg.burn_in) % cfg.thin == 0:
            lp = current_logpost()  # resync accumulated rounding
            np.maximum.accumulate(end_at_lo, out=ends[retained])
            retained += 1
            lo = np.flatnonzero(end_at_lo)
            assert lo.size == k_count
            assert int((end_at_lo[lo] - lo).sum()) == n

    assert best_snapshot is not None
    lo = np.flatnonzero(best_snapshot).tolist()
    return ChainSummary(
        map_partition=Partition.from_clusters(
            [labels[a:b] for a, b in zip(lo, best_snapshot[lo].tolist())]
        ),
        map_log_posterior=best_lp,
        ids=labels,
        burn_in=cfg.burn_in,
        trace=trace,
        retained_samples=ends,
    )


# ------------------------------------------------------------ persistence


def save_chain_summary(summary: ChainSummary, directory: str | Path) -> None:
    """Directory layout: partition csv, triangle binary, tsv trace, label log.

    Each line of the label log after the ids gives a retained sample's
    labels as Partition.from_clusters numbers them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_partition(summary.map_partition, directory / "map_partition.csv")
    ids = summary.ids
    write_binary_rows(
        ids, cocluster_rows(summary.retained_samples), directory / "cocluster.bin"
    )

    with open(directory / "trace.tsv", "w") as fh:
        fh.write("iteration\tlog_posterior\n")
        first = summary.burn_in + 1
        fh.writelines(
            f"{it}\t{lp!r}\n"
            for it, lp in enumerate(summary.trace.tolist(), start=first)
        )

    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    text = [str(k) for k in range(len(ids) + 1)]
    with open(directory / "retained_samples.txt", "w") as fh:
        fh.write(",".join(ids) + "\n")
        for end in summary.retained_samples:
            labels = _sample_labels(end, rank).tolist()
            fh.write(",".join([text[k] for k in labels]) + "\n")

    with open(directory / "summary.json", "w") as fh:
        json.dump(
            {
                "map_log_posterior": summary.map_log_posterior,
                "num_retained": len(summary.retained_samples),
                "num_ids": len(ids),
            },
            fh,
            indent=2,
        )
        fh.write("\n")


def load_chain_summary(directory: str | Path) -> ChainSummary:
    """save_chain_summary's directory; cocluster.bin is not read, since
    the retained samples give the co-clustering triangle.  A label-log
    cluster that is not a run of consecutive ids is a MalformedRow."""
    directory = Path(directory)
    map_partition = load_partition(directory / "map_partition.csv")

    with open(directory / "trace.tsv") as fh:
        next(fh)
        rows = [line.split("\t") for line in fh]
    burn_in = int(rows[0][0]) - 1 if rows else 0
    trace = np.array([float(lp) for _, lp in rows])

    ends = []
    with open(directory / "retained_samples.txt") as fh:
        ids = fh.readline().rstrip("\n").split(",")
        for row, line in enumerate(fh, start=1):
            labels = np.array(line.rstrip("\n").split(","))
            if labels.size != len(ids):
                raise MalformedRow(row, f"{labels.size} labels for {len(ids)} ids")
            # a cluster's range ends where the label next changes
            cut = np.append(np.flatnonzero(labels[1:] != labels[:-1]) + 1, len(ids))
            if cut.size != np.unique(labels).size:
                raise MalformedRow(row, "a cluster is not a run of consecutive ids")
            ends.append(np.repeat(cut, np.diff(cut, prepend=0)))

    with open(directory / "summary.json") as fh:
        meta = json.load(fh)
    return ChainSummary(
        map_partition=map_partition,
        map_log_posterior=float(meta["map_log_posterior"]),
        ids=ids,
        burn_in=burn_in,
        trace=trace,
        retained_samples=np.array(ends, dtype=np.int32).reshape(len(ends), len(ids)),
    )
