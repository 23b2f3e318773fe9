"""Output checks, computed apart from the program.

Every file is read with the parsers below, not with `phyloclust`'s
readers, and every expected value is recounted here: per-site pair
counts, path walks to the common ancestor, contingency tables, friend
graphs, clade frequencies.  Nothing is compared with a stored copy of an
earlier output.  Each check returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import datetime
import itertools
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from workloads import Step

# CLI defaults the workloads rely on (see `phyloclust <command> --help`)
SWEEP_SUPPORT_GRID = (0.70, 0.90, 0.95)
SWEEP_DISTANCE_GRID = (0.015, 0.03, 0.045, 0.068, 0.077)
GROWTH_WINDOW = (datetime.date(2012, 1, 1), datetime.date(2012, 7, 1), datetime.date(2016, 2, 1))
GROWTH_TOP_K = 30
SAMPLED_PAIRS = 400
TOL = 1e-9  # phylip and Newick cells carry ten significant digits

_CODE = np.full(256, 255, dtype=np.uint8)
for _k, _c in enumerate(b"ACGT"):
    _CODE[_c] = _CODE[_c + 32] = _k


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------------ parsers


def read_fasta(path: Path) -> tuple[list[str], np.ndarray]:
    ids, seqs = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith(">"):
            ids.append(line[1:].split()[0])
            seqs.append([])
        elif line.strip():
            seqs[-1].append(line.strip())
    rows = [np.frombuffer("".join(s).encode(), dtype=np.uint8) for s in seqs]
    return ids, _CODE[np.vstack(rows)]


def read_partition(path: Path) -> dict[str, str]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    expect(lines and lines[0] == "id,label", f"{path}: bad header")
    out: dict[str, str] = {}
    for ln in lines[1:]:
        ident, label = ln.split(",")
        expect(ident not in out, f"{path}: id {ident} listed twice")
        out[ident] = label
    return out


def groups(part: dict[str, str]) -> list[list[str]]:
    by: dict[str, list[str]] = {}
    for ident, label in part.items():
        by.setdefault(label, []).append(ident)
    return list(by.values())


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """Square matrix from the binary triangle (with .ids sidecar) or phylip."""
    path = Path(path)
    if path.suffix == ".bin":
        raw = path.read_bytes()
        expect(raw[:5] == b"PCDM\x01", f"{path}: bad header")
        (n,) = struct.unpack("<Q", raw[5:13])
        vals = np.frombuffer(raw, dtype="<f8", offset=13)
        expect(vals.size == n * (n - 1) // 2, f"{path}: wrong length")
        ids = Path(str(path) + ".ids").read_text().split()
        sq = np.zeros((n, n))
        off = 0
        for i in range(n - 1):
            row = vals[off : off + n - i - 1]
            sq[i, i + 1 :] = row
            sq[i + 1 :, i] = row
            off += n - i - 1
        return ids, sq
    lines = path.read_text().split("\n")
    n = int(lines[0])
    ids, rows = [], []
    for ln in lines[1 : n + 1]:
        ident, *cells = ln.split()
        ids.append(ident)
        rows.append(cells)
    return ids, np.array(rows, dtype=np.float64)


_TOKEN = re.compile(r"\s*([(),;:]|[^(),;:\s]+)")


class Tree:
    """Newick tree with preorder tip intervals: node v spans tips [lo[v], hi[v])."""

    def __init__(self, text: str):
        parent, kids, label, length = [-1], [[]], [None], [0.0]
        cur = 0
        toks = _TOKEN.findall(text)
        k = 0
        while toks[k] != ";":
            t = toks[k]
            if t in "(,":
                if t == ",":
                    cur = parent[cur]
                parent.append(cur)
                kids.append([])
                label.append(None)
                length.append(0.0)
                kids[cur].append(len(parent) - 1)
                cur = len(parent) - 1
            elif t == ")":
                cur = parent[cur]
            elif t == ":":
                k += 1
                length[cur] = float(toks[k])
            else:
                label[cur] = t
            k += 1
        self.parent, self.kids, self.length = parent, kids, length
        self.support = [
            float(lab) if kids[v] and lab is not None else None
            for v, lab in enumerate(label)
        ]
        order, stack = [], [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(kids[v]))
        self.order = order
        self.tips = [v for v in order if not kids[v]]
        self.labels = [label[v] for v in self.tips]
        self.pos = {lab: k for k, lab in enumerate(self.labels)}
        nn = len(parent)
        self.lo, self.hi, self.depth = [0] * nn, [0] * nn, [0.0] * nn
        for v in order[1:]:
            self.depth[v] = self.depth[parent[v]] + length[v]
        for k, v in enumerate(self.tips):
            self.lo[v], self.hi[v] = k, k + 1
        for v in reversed(order):
            if kids[v]:
                self.lo[v] = self.lo[kids[v][0]]
                self.hi[v] = self.hi[kids[v][-1]]
        self.node_at: dict[tuple[int, int], int] = {}
        for v in reversed(order):  # the topmost node of a unary chain wins
            self.node_at[(self.lo[v], self.hi[v])] = v
        self._patristic: np.ndarray | None = None

    def node_of(self, members) -> int | None:
        """The node whose clade is exactly `members`, or None."""
        pos = sorted(self.pos[m] for m in members)
        if pos[-1] - pos[0] + 1 != len(pos):
            return None
        return self.node_at.get((pos[0], pos[-1] + 1))

    def clade_support(self, v: int) -> float:
        return 1.0 if v == 0 else (self.support[v] or 0.0)

    def clades(self) -> dict[frozenset, int]:
        """Tip-label set of every internal node."""
        return {
            frozenset(self.labels[self.lo[v] : self.hi[v]]): v
            for v in reversed(self.order)
            if self.kids[v]
        }

    def path_length(self, a: str, b: str) -> float:
        """Walk from both tips up to their lowest common ancestor."""
        x, y = self.tips[self.pos[a]], self.tips[self.pos[b]]
        above = set()
        v = x
        while v != -1:
            above.add(v)
            v = self.parent[v]
        total = 0.0
        while y not in above:
            total += self.length[y]
            y = self.parent[y]
        while x != y:
            total += self.length[x]
            x = self.parent[x]
        return total

    def patristic(self) -> np.ndarray:
        """All tip-pair path lengths, in tip order, from depths below each LCA."""
        if self._patristic is None:
            d = np.array([self.depth[v] for v in self.tips])
            sq = np.zeros((len(d), len(d)))
            for v in self.order:
                ks = self.kids[v]
                for a, b in itertools.combinations(ks, 2):
                    la, ha, lb, hb = self.lo[a], self.hi[a], self.lo[b], self.hi[b]
                    blk = d[la:ha, None] + d[None, lb:hb] - 2.0 * self.depth[v]
                    sq[la:ha, lb:hb] = blk
                    sq[lb:hb, la:ha] = blk.T
            self._patristic = sq
        return self._patristic


def read_tree(path: Path) -> Tree:
    return Tree(Path(path).read_text())


def read_trees(path: Path) -> list[Tree]:
    return [Tree(t + ";") for t in Path(path).read_text().split(";") if t.strip()]


def read_metadata(path: Path) -> dict[str, tuple[datetime.date, str]]:
    lines = Path(path).read_text().splitlines()
    expect(lines[0] == "id,collection_date,stage,risk_group", f"{path}: bad header")
    out = {}
    for ln in lines[1:]:
        ident, date, stage, _ = ln.split(",")
        out[ident] = (datetime.date.fromisoformat(date), stage)
    return out


# ---------------------------------------------------------------- recounts


def pair_sample(n: int, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Every pair when there are at most k, else k distinct random pairs."""
    if n * (n - 1) // 2 <= k:
        i, j = np.triu_indices(n, k=1)
        return i, j
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, int]] = set()
    while len(seen) < k:
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        seen.add((a, b))
    i, j = zip(*sorted(seen))
    return np.array(i), np.array(j)


def site_count_distance(codes: np.ndarray, i, j, kind: str) -> np.ndarray:
    a, b = codes[i], codes[j]
    both = (a < 4) & (b < 4)
    differ = (a != b) & both
    compared = both.sum(axis=1)
    mism = differ.sum(axis=1)
    ts = (((a ^ b) == 2) & differ).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "p":
            out = mism / compared
        else:
            p, q = ts / compared, (mism - ts) / compared
            w1, w2 = 1 - 2 * p - q, 1 - 2 * q
            out = -0.5 * np.log(np.where(w1 > 0, w1, np.nan)) - 0.25 * np.log(
                np.where(w2 > 0, w2, np.nan)
            )
    return np.where(compared == 0, np.nan, out)


def ari(a: dict[str, str], b: dict[str, str]) -> float:
    expect(set(a) == set(b), "partitions cover different ids")
    ids = sorted(a)
    _, ca = np.unique([a[i] for i in ids], return_inverse=True)
    _, cb = np.unique([b[i] for i in ids], return_inverse=True)
    table = np.zeros((ca.max() + 1, cb.max() + 1), dtype=np.int64)
    np.add.at(table, (ca, cb), 1)

    def pairs(x):
        return float((x * (x - 1) // 2).sum())

    n = len(ids)
    total = n * (n - 1) / 2
    if total == 0:
        return 1.0
    sa, sb = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = sa * sb / total
    maximum = (sa + sb) / 2
    if maximum == expected:
        return 1.0 if same_grouping(a, b) else 0.0
    return (pairs(table) - expected) / (maximum - expected)


def same_grouping(a: dict[str, str], b: dict[str, str]) -> bool:
    return {frozenset(g) for g in groups(a)} == {frozenset(g) for g in groups(b)}


def codes_for(part: dict[str, str], ids: list[str]) -> np.ndarray:
    _, codes = np.unique([part[i] for i in ids], return_inverse=True)
    return codes


def clade_test(tree: Tree, mat: np.ndarray, median: bool, distance_max: float):
    """Node -> whether the max (or median) of its clade's pairwise values is
    at most `distance_max`; a NaN value fails the max.  `mat` is in tip
    order, so a clade is a square block of it.  A 2-D prefix sum counts the
    block's values under the cutoff at O(1) per node; only a median whose two
    middle values straddle the cutoff is computed from the values."""
    under = mat <= distance_max
    np.fill_diagonal(under, False)
    n = len(mat)
    count = np.zeros((n + 1, n + 1), dtype=np.int32)
    np.cumsum(np.cumsum(under, axis=0, dtype=np.int32), axis=1, out=count[1:, 1:])

    def passes(v: int) -> bool:
        lo, hi = tree.lo[v], tree.hi[v]
        m = hi - lo
        pairs = m * (m - 1) // 2
        k = int(count[hi, hi] - count[lo, hi] - count[hi, lo] + count[lo, lo]) // 2
        if not median:
            return k == pairs
        if 2 * k != pairs:
            return 2 * k > pairs
        vals = mat[lo:hi, lo:hi][np.triu_indices(m, k=1)]
        return float(np.median(vals)) <= distance_max

    return passes


def tip_order_matrix(tree: Tree, ids: list[str], sq: np.ndarray) -> np.ndarray:
    expect(sorted(ids) == sorted(tree.labels), "matrix ids differ from tree tips")
    index = {ident: k for k, ident in enumerate(ids)}
    perm = np.array([index[lab] for lab in tree.labels])
    return sq[np.ix_(perm, perm)]


def threshold_partition(tree: Tree, passes, support_min: float) -> list[list[str]]:
    """Top-down search for supported clades that pass the distance test."""
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        if not tree.kids[v] or (tree.clade_support(v) >= support_min and passes(v)):
            out.append(tree.labels[tree.lo[v] : tree.hi[v]])
        else:
            stack.extend(tree.kids[v])
    return out


# ------------------------------------------------------------------- checks


class Checker:
    """Runs the check for each step; caches inputs shared between steps."""

    def __init__(self):
        self._trees: dict[Path, Tree] = {}

    def tree(self, path) -> Tree:
        if path not in self._trees:
            self._trees[path] = read_tree(path)
        return self._trees[path]

    def run(self, step: Step, stdout: str) -> list[str]:
        try:
            getattr(self, "check_" + step.command)(step.opts, stdout, step.cohort)
        except CheckFailed as exc:
            return [f"{step.command} {step.opts.get('out', step.opts.get('a', ''))}: {exc}"]
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return [f"{step.command}: unreadable output ({exc.__class__.__name__}: {exc})"]
        return []

    # dist: sampled pairs against a per-site count
    def check_dist(self, o, stdout, cohort):
        ids, codes = read_fasta(o["align"])
        mids, sq = read_matrix(o["out"])
        expect(mids == ids, "row ids differ from the alignment order")
        i, j = pair_sample(len(ids), SAMPLED_PAIRS)
        want = site_count_distance(codes, i, j, o["kind"])
        got = sq[i, j]
        ok = np.isclose(got, want, rtol=TOL, atol=1e-12) | (np.isnan(got) & np.isnan(want))
        bad = np.flatnonzero(~ok)
        expect(not bad.size, f"{bad.size} sampled {o['kind']} distances differ, "
               f"e.g. {ids[i[bad[0]]] if bad.size else ''}")
        expect(np.array_equal(sq, sq.T, equal_nan=True), "matrix is not symmetric")

    # threshold methods: the partition a top-down search over supported clades gives
    def check_cluster(self, o, stdout, cohort):
        method = o["method"]
        part = read_partition(o["out"])
        if method == "gap":
            return self._check_gap(o, part)
        tree = self.tree(o["tree"])
        if method == "mcmc":
            return self._check_chain(o, tree, part)
        expect(sorted(part) == sorted(tree.labels), "partition does not cover every tip once")
        if method == "maxp":
            ids, sq = read_matrix(o["matrix"])
            mat, median = tip_order_matrix(tree, ids, sq), False
        else:
            mat, median = tree.patristic(), True
            self._check_walks(tree, part)
        passes = clade_test(tree, mat, median, o["distance_max"])
        clusters = threshold_partition(tree, passes, o["support_min"])
        want = {frozenset(g) for g in clusters}
        for g in groups(part):
            expect(frozenset(g) in want, f"cluster of {sorted(g)[:3]} is not one the "
                   "top-down search over supported clades gives")

    def _check_walks(self, tree: Tree, part: dict[str, str]) -> None:
        """Path walks agree with the block-filled patristic matrix."""
        sq = tree.patristic()
        big = max(groups(part), key=len)
        pairs = list(itertools.combinations(big, 2))[:200]
        i, j = pair_sample(len(tree.labels), 200, seed=1)
        pairs += [(tree.labels[a], tree.labels[b]) for a, b in zip(i, j)]
        for a, b in pairs:
            walk = tree.path_length(a, b)
            expect(abs(walk - sq[tree.pos[a], tree.pos[b]]) <= TOL * max(1.0, walk),
                   f"patristic {a}-{b} differs from its path walk")

    # gap: components of the largest-gap friend graph
    def _check_gap(self, o, part):
        ids, sq = read_matrix(o["matrix"])
        n = len(ids)
        expect(sorted(part) == sorted(ids), "partition does not cover every id once")
        others = n - 1
        if others == 1:
            adj = np.ones((n, n), dtype=bool)
        else:
            m = math.ceil(o["gap_quantile"] * others)
            masked = sq.copy()
            np.fill_diagonal(masked, np.inf)
            window = np.sort(masked, axis=1)[:, :m]
            if m < 2:
                adj = np.zeros((n, n), dtype=bool)
            else:
                gaps = np.diff(window, axis=1)
                j = np.argmax(gaps, axis=1)
                rows = np.arange(n)
                linked = gaps[rows, j] > 0
                adj = (masked <= window[rows, j][:, None]) & linked[:, None]
            del masked
        np.fill_diagonal(adj, False)
        _, comp = connected_components(csr_matrix(adj), directed=True, connection="weak")
        want = {ident: str(c) for ident, c in zip(ids, comp)}
        expect(same_grouping(part, want), "clusters differ from the friend-graph components")

    # mcmc: clades, schedule, trace maximum, co-clustering recount
    def _check_chain(self, o, tree, part):
        chain = Path(o["chain_dir"])
        map_part = read_partition(chain / "map_partition.csv")
        expect(same_grouping(part, map_part), "--out differs from map_partition.csv")
        for members in groups(map_part):
            expect(tree.node_of(members) is not None, f"MAP cluster {sorted(members)[:3]} is not a clade")
        want = (o["iterations"] - o["burn_in"]) // o["thin"]
        lines = (chain / "retained_samples.txt").read_text().splitlines()
        ids = lines[0].split(",")
        expect(sorted(ids) == sorted(tree.labels), "retained samples cover other ids")
        expect(len(lines) - 1 == want, f"{len(lines) - 1} retained samples, want {want}")
        summary = json.loads((chain / "summary.json").read_text())
        expect(summary["num_retained"] == want, "summary.json num_retained is wrong")
        trace = (chain / "trace.tsv").read_text().splitlines()[1:]
        expect(len(trace) == o["iterations"] - o["burn_in"], "trace has the wrong length")
        top = max(float(ln.split("\t")[1]) for ln in trace)
        expect(summary["map_log_posterior"] == top, "map_log_posterior is not the trace maximum")
        counts = np.zeros((len(ids), len(ids)), dtype=np.int32)
        for ln in lines[1:]:
            sample = dict(zip(ids, ln.split(",")))
            for members in groups(sample):
                expect(tree.node_of(members) is not None, "a retained sample holds a non-clade")
            c = codes_for(sample, ids)
            counts += c[:, None] == c[None, :]
        cids, co = read_matrix(chain / "cocluster.bin")
        expect(cids == ids, "cocluster ids differ from the retained-sample header")
        recount = counts / max(want, 1)
        np.fill_diagonal(recount, 0.0)
        expect(np.allclose(co, recount, rtol=0, atol=1e-12), "cocluster.bin differs from the recount")

    # linkage: modularity no worse than all singletons
    def check_linkage(self, o, stdout, cohort):
        part = read_partition(o["out"])
        ids, w = read_matrix(Path(o["chain_dir"]) / "cocluster.bin")
        expect(sorted(part) == sorted(ids), "linkage does not cover every id once")
        q, q_single = modularity(w, codes_for(part, ids)), modularity(w, np.arange(len(ids)))
        expect(q >= q_single - 1e-12, f"modularity {q} is below the singleton partition's {q_single}")

    def check_ari(self, o, stdout, cohort):
        got = float(stdout.strip())
        want = ari(read_partition(o["a"]), read_partition(o["planted"]))
        expect(abs(got - want) <= 1e-9, f"ARI {got} differs from the recount {want}")

    # compare: fraction of partitions co-clustering each pair
    def check_compare(self, o, stdout, cohort):
        parts = [read_partition(p) for p in o["partitions"]]
        keep = sorted({i for p in parts for g in groups(p) if len(g) > 1 for i in g})
        ids, sq = read_matrix(o["out"])
        expect(sorted(ids) == keep, "rows are not the ids clustered by some method")
        freq = np.zeros((len(ids), len(ids)))
        for p in parts:
            c = codes_for(p, ids)
            freq += c[:, None] == c[None, :]
        freq /= len(parts)
        np.fill_diagonal(freq, 0.0)
        expect(np.allclose(sq, freq, rtol=0, atol=1e-12), "co-clustering fractions differ from the recount")

    def check_growth(self, o, stdout, cohort):
        part = read_partition(o["partition"])
        meta = read_metadata(o["metadata"])
        _, phi_start, end = GROWTH_WINDOW
        stage = {i: meta[i] for i in part}
        recent = {i for i, (d, s) in stage.items() if s == "PHI" and phi_start <= d <= end}
        before = {i for i, (d, s) in stage.items() if s.startswith("CHRONIC") and d < phi_start}
        by = {part[g[0]]: g for g in groups(part)}
        want = ["cluster_label\ttotal_size\tmin_size_before_2012\trecent_phi_count"
                "\tother_count\tfirst_recent_phi_date\tlast_recent_phi_date"]
        for label in sorted(by, key=lambda lab: (-len(by[lab]), lab))[:GROWTH_TOP_K]:
            members = by[label]
            dates = sorted(meta[i][0] for i in members if i in recent)
            nb = sum(i in before for i in members)
            want.append("\t".join(map(str, (
                label, len(members), nb, len(dates), len(members) - nb - len(dates),
                dates[0].isoformat() if dates else "", dates[-1].isoformat() if dates else "",
            ))))
        got = Path(o["out"]).read_text().splitlines()
        expect(got == want, "growth rows differ from the metadata recount")
        sizes = {i: len(by[part[i]]) for i in part}
        kinds = {"singleton_count": 1, "pair_count": 2}
        breakdown = {k: sum(sizes[i] == s for i in recent) for k, s in kinds.items()}
        breakdown["ge5_count"] = sum(sizes[i] >= 5 for i in recent)
        breakdown["other_count"] = sum(3 <= sizes[i] <= 4 for i in recent)
        breakdown["total_recent_phi"] = len(recent)
        expect(json.loads(stdout) == breakdown, "PHI breakdown differs from the recount")
        svg = Path(o["svg"]).read_text()
        expect(svg.startswith("<svg") and svg.count("<text") >= len(want) - 1, "SVG lacks a bar per row")

    # support and consensus: clade frequencies over the sample
    def _frequencies(self, samples) -> tuple[dict[frozenset, int], int]:
        trees = read_trees(samples)
        counts: dict[frozenset, int] = {}
        for t in trees:
            for clade in t.clades():
                counts[clade] = counts.get(clade, 0) + 1
        return counts, len(trees)

    def _planted_full_support(self, tree: Tree, cohort: Path) -> None:
        clades = tree.clades()
        for members in groups(read_partition(cohort / "planted.csv")):
            if len(members) > 1:
                v = clades.get(frozenset(members))
                expect(v is not None and abs(tree.clade_support(v) - 1.0) <= TOL,
                       f"planted clade {sorted(members)[:3]} lacks support 1.0")

    def check_support(self, o, stdout, cohort):
        out = read_tree(o["out"])
        ref = self.tree(o["tree"])
        expect(out.clades().keys() == ref.clades().keys(), "annotated tree changed the topology")
        counts, total = self._frequencies(o["samples"])
        for clade, v in out.clades().items():
            expect(abs(out.clade_support(v) - counts.get(clade, 0) / total) <= TOL,
                   "a support value differs from the clade frequency")
        self._planted_full_support(out, cohort)

    def check_consensus(self, o, stdout, cohort):
        out = read_tree(o["out"])
        counts, total = self._frequencies(o["samples"])
        want = {c for c, k in counts.items() if 2 * k > total}
        want.add(frozenset(out.labels))
        expect(set(out.clades()) == want, "consensus clades are not the majority clades")
        for clade, v in out.clades().items():
            expect(abs(out.clade_support(v) - counts.get(clade, total) / total) <= TOL,
                   "a consensus support differs from the clade frequency")
        self._planted_full_support(out, cohort)

    # sweep: every grid point's ARI from an independent threshold search
    def check_sweep(self, o, stdout, cohort):
        tree = self.tree(o["tree"])
        planted = read_partition(o["ref"])
        expect(sorted(planted) == sorted(tree.labels), "reference must cover every tip")
        rows = [ln.split("\t") for ln in Path(o["out"]).read_text().splitlines()]
        expect(rows[0] == ["support_min", "distance_max", "ari"], "bad sweep header")
        grid = {(float(s), float(d)): float(a) for s, d, a in rows[1:]}
        expect(sorted(grid) == sorted(itertools.product(SWEEP_SUPPORT_GRID, SWEEP_DISTANCE_GRID)),
               "sweep grid is not the default 15 points")
        mat, median = tree.patristic(), o["method"] == "medianpatristic"
        tests = {d: clade_test(tree, mat, median, d) for d in SWEEP_DISTANCE_GRID}
        for (s, d), got in grid.items():
            clusters = threshold_partition(tree, tests[d], s)
            part = {i: str(k) for k, g in enumerate(clusters) for i in g}
            want = ari(part, planted)
            expect(abs(got - want) <= 1e-9, f"ARI at ({s}, {d}) is {got}, recount {want}")
        top = max(grid.values())
        best = min((d, -s) for (s, d), a in grid.items() if a == top)
        m = re.fullmatch(r"best support_min=(\S+) distance_max=(\S+) ari=(\S+)\s*", stdout)
        expect(m is not None and (float(m[2]), -float(m[1])) == best
               and abs(float(m[3]) - top) <= 5e-7, "reported best point is not the grid maximum")


def modularity(w: np.ndarray, codes: np.ndarray) -> float:
    """Newman modularity of integer cluster codes on a weighted graph."""
    w = w.copy()
    np.fill_diagonal(w, 0.0)
    deg = w.sum(axis=1)
    two_m = deg.sum()
    if two_m == 0:
        return 0.0
    r, c = np.nonzero(w)
    inside = w[r, c][codes[r] == codes[c]].sum()
    dc = np.bincount(codes, weights=deg)
    return float(inside / two_m - (dc @ dc) / two_m**2)

