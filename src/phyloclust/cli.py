"""Command-line surface: one subcommand per pipeline stage.

Every run writes a manifest JSON beside its primary output recording the
resolved flags, input digests, seeds, and duration, so a run can be
reproduced from the manifest alone.  Exit codes: 0 success, 1 data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__
from .distance import (
    DistanceMatrix,
    MatrixKind,
    build_distance_matrix,
    read_matrix_binary,
    read_matrix_phylip,
    write_matrix_binary,
    write_matrix_phylip,
)
from .errors import DataError
from .evaluation import (
    ReferenceSet,
    adjusted_rand_index,
    cutpoint_sweep,
    method_cocluster_matrix,
    reference_ari,
)
from .gap import GapConfig, gap_cluster
from .growth import (
    GrowthWindow,
    emit_growth_svg,
    growth_report,
    growth_report_tsv,
    phi_breakdown,
)
from .io_formats import (
    load_fasta,
    load_metadata,
    load_newick,
    load_newick_list,
    load_partition,
    write_fasta,
    write_metadata,
    write_newick,
    write_partition,
)
from .mcmc import ChainConfig, linkage_estimate, run_chain, save_chain_summary
from .phylo import annotate_support, majority_consensus, patristic_matrix
from .simulate import SimConfig, simulate_alignment, simulate_metadata, simulate_tree
from .threshold import ClusterCriteria, Statistic, threshold_cluster, tip_p_matrix

log = logging.getLogger(__name__)

_STATISTIC_BY_METHOD = {
    "maxp": Statistic.MAX_PAIRWISE_P,
    "medianpatristic": Statistic.MEDIAN_PATRISTIC,
    "maxpatristic": Statistic.MAX_PATRISTIC,
}


class _UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""

_PRESETS: dict[str, dict] = {
    "demo": {"cluster_sizes": (8, 6, 5, 3, 2, 2, 1, 1)},
    # twenty planted clusters spanning sizes 5 through 50
    "acceptance": {
        "cluster_sizes": (
            5, 7, 10, 12, 14, 17, 19, 22, 24, 26,
            29, 31, 33, 36, 38, 41, 43, 45, 48, 50,
        ),
    },
    # sized like the analyzed cohort: 3704 sequences, heavy singleton tail
    "paper-scale": {
        "cluster_sizes": (
            (36, 30, 24, 20, 20, 16, 12, 12, 10, 10)
            + (5,) * 60
            + (4,) * 100
            + (3,) * 150
            + (2,) * 300
            + (1,) * 1764
        ),
    },
}


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_manifest(
    args: argparse.Namespace,
    anchor: Path,
    inputs: list[str | Path],
    started: float,
    seeds: list[int] | None = None,
) -> None:
    flags = {
        k: _jsonable(v)
        for k, v in vars(args).items()
        if k != "func" and not k.startswith("_")
    }
    manifest = {
        "subcommand": args.command,
        "flags": flags,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "seeds": seeds or [],
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    if anchor.is_dir():
        target = anchor / "manifest.json"
    else:
        target = anchor.with_name(anchor.name + ".manifest.json")
    with open(target, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("PHYLOCLUST_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise _UsageError(
                f"PHYLOCLUST_THREADS must be a positive integer, got {env!r}"
            )
        return threads
    return os.cpu_count() or 1


def _load_matrix(path: str, kind: MatrixKind) -> DistanceMatrix:
    if path.endswith(".bin"):
        return read_matrix_binary(path, kind)
    return read_matrix_phylip(path, kind)


# -------------------------------------------------------------- handlers


def _cmd_dist(args) -> None:
    started = time.monotonic()
    alignment = load_fasta(args.align)
    kind = MatrixKind.P_DISTANCE if args.kind == "p" else MatrixKind.K80
    dm = build_distance_matrix(
        alignment, kind, cap=args.cap, threads=_resolve_threads(args)
    )
    out = Path(args.out)
    if args.binary:
        write_matrix_binary(dm, out)
    else:
        write_matrix_phylip(dm, out)
    _write_manifest(args, out, [args.align], started)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad --seeds value {text!r}") from None
    if not seeds:
        raise _UsageError("--seeds needs at least one integer")
    if len(set(seeds)) != len(seeds):
        raise _UsageError("--seeds entries must be distinct")
    return seeds


def _cmd_cluster(args) -> None:
    started = time.monotonic()
    inputs: list[str | Path] = []
    out = Path(args.out)

    if args.seeds and args.method != "mcmc":
        raise _UsageError("--seeds applies only to --method mcmc")
    if args.method == "gap":
        dm = _cluster_distance_source(args, inputs)
        part = gap_cluster(dm, GapConfig(search_quantile=args.gap_quantile))
        seeds: list[int] = []
    elif args.method == "mcmc":
        if not args.tree or not args.align:
            raise _UsageError("--method mcmc needs --tree and --align")
        tree = load_newick(args.tree)
        # each chain's start reads only the p-distances its clades need
        alignment = load_fasta(args.align)
        inputs += [args.tree, args.align]
        seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
        summaries = []
        for seed in seeds:
            cfg = ChainConfig(
                iterations=args.iterations,
                burn_in=args.burn_in,
                thin=args.thin,
                rng_seed=seed,
            )
            summaries.append(run_chain(tree, alignment, cfg))
        best = max(summaries, key=lambda s: s.map_log_posterior)
        for seed, summary in zip(seeds, summaries):
            log.info(
                "chain seed=%d map_log_posterior=%.6f clusters=%d",
                seed,
                summary.map_log_posterior,
                summary.map_partition.num_clusters(),
            )
        if len(summaries) > 1 and any(
            not s.map_partition.same_grouping(best.map_partition)
            for s in summaries
        ):
            log.warning(
                "MAP partitions disagree across seeds; "
                "inspect the per-seed chain directories"
            )
        if args.chain_dir:
            if len(summaries) == 1:
                save_chain_summary(summaries[0], args.chain_dir)
            else:
                for seed, summary in zip(seeds, summaries):
                    save_chain_summary(
                        summary, Path(args.chain_dir) / f"chain-{seed}"
                    )
        part = best.map_partition
    else:
        statistic = _STATISTIC_BY_METHOD[args.method]
        if not args.tree:
            raise _UsageError(f"--method {args.method} needs --tree")
        tree = load_newick(args.tree)
        inputs.append(args.tree)
        if statistic is Statistic.MAX_PAIRWISE_P:
            if args.matrix:
                source = _load_matrix(args.matrix, MatrixKind.P_DISTANCE)
                inputs.append(args.matrix)
            elif args.align:
                source = load_fasta(args.align)
                inputs.append(args.align)
            else:
                raise _UsageError("--method maxp needs --align or --matrix")
        elif args.matrix:
            source = _load_matrix(args.matrix, MatrixKind.PATRISTIC)
            inputs.append(args.matrix)
        else:
            source = None  # patristic distances come from the tree
        criteria = ClusterCriteria(args.support_min, args.distance_max, statistic)
        part = threshold_cluster(tree, source, criteria)
        seeds = []
    write_partition(part, out)
    _write_manifest(args, out, inputs, started, seeds)


def _cluster_distance_source(args, inputs) -> DistanceMatrix:
    if args.matrix:
        inputs.append(args.matrix)
        return _load_matrix(args.matrix, MatrixKind.P_DISTANCE)
    if not args.align:
        raise _UsageError("gap clustering needs --align or --matrix")
    inputs.append(args.align)
    alignment = load_fasta(args.align)
    return build_distance_matrix(
        alignment, MatrixKind.P_DISTANCE, threads=_resolve_threads(args)
    )


def _cmd_support(args) -> None:
    started = time.monotonic()
    tree = load_newick(args.tree)
    sample = load_newick_list(args.samples)
    out = Path(args.out)
    write_newick(annotate_support(tree, sample), out)
    _write_manifest(args, out, [args.tree, args.samples], started)


def _cmd_consensus(args) -> None:
    started = time.monotonic()
    sample = load_newick_list(args.samples)
    out = Path(args.out)
    write_newick(majority_consensus(sample), out)
    _write_manifest(args, out, [args.samples], started)


def _cmd_sweep(args) -> None:
    started = time.monotonic()
    tree = load_newick(args.tree)
    alignment = load_fasta(args.align) if args.align else None
    reference = load_partition(args.ref)
    statistic = _STATISTIC_BY_METHOD[args.method]
    labels = tree.tip_labels()
    ref = ReferenceSet(reference, tuple(labels))
    # one matrix serves every grid point
    if statistic is not Statistic.MAX_PAIRWISE_P:
        source = patristic_matrix(tree)
    elif alignment is not None:
        source = tip_p_matrix(alignment, labels, _resolve_threads(args))
    else:
        source = None  # threshold_cluster reports the missing sequences

    def runner(criteria: ClusterCriteria):
        return threshold_cluster(tree, source, criteria)

    support_grid = [float(x) for x in args.support_grid.split(",")]
    distance_grid = [float(x) for x in args.distance_grid.split(",")]
    best, best_ari, grid = cutpoint_sweep(
        runner, ref, support_grid, distance_grid, statistic
    )
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("support_min\tdistance_max\tari\n")
        for (s, d), value in sorted(grid.items()):
            fh.write(f"{s!r}\t{d!r}\t{value!r}\n")
    print(
        f"best support_min={best.support_min} "
        f"distance_max={best.distance_max} ari={best_ari:.6f}"
    )
    inputs = [args.tree, args.ref] + ([args.align] if args.align else [])
    _write_manifest(args, out, inputs, started)


def _cmd_ari(args) -> None:
    started = time.monotonic()
    a = load_partition(args.a)
    b = load_partition(args.b)
    if args.ref:
        ref = ReferenceSet(load_partition(args.ref), tuple(a.ids()))
        value = reference_ari(a, ref)
        print(f"{value!r}")
    else:
        value = adjusted_rand_index(a, b)
        print(f"{value!r}")
    out = Path(args.out) if args.out else None
    if out:
        with open(out, "w") as fh:
            fh.write(f"{value!r}\n")
        inputs = [args.a, args.b] + ([args.ref] if args.ref else [])
        _write_manifest(args, out, inputs, started)


def _cmd_compare(args) -> None:
    started = time.monotonic()
    partitions = [load_partition(p) for p in args.partitions]
    universe = partitions[0].ids()
    out = Path(args.out)
    write_matrix_binary(method_cocluster_matrix(partitions, universe), out)
    _write_manifest(args, out, list(args.partitions), started)


def _cmd_linkage(args) -> None:
    started = time.monotonic()
    matrix = Path(args.chain_dir) / "cocluster.bin"
    cocluster = read_matrix_binary(matrix, MatrixKind.COCLUSTER)
    part = linkage_estimate(cocluster, walk_length=args.walk_length)
    out = Path(args.out)
    write_partition(part, out)
    _write_manifest(args, out, [matrix], started)


def _cmd_growth(args) -> None:
    started = time.monotonic()
    part = load_partition(args.partition)
    meta = load_metadata(args.metadata)
    window = GrowthWindow(
        window_start=datetime.date.fromisoformat(args.window_start),
        phi_reliable_start=datetime.date.fromisoformat(args.phi_start),
        window_end=datetime.date.fromisoformat(args.window_end),
    )
    rows = growth_report(part, meta, window, top_k=args.top_k)
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write(growth_report_tsv(rows))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(emit_growth_svg(rows))
    print(json.dumps(phi_breakdown(part, meta, window), sort_keys=True))
    _write_manifest(args, out, [args.partition, args.metadata], started)


def _cmd_simulate(args) -> None:
    started = time.monotonic()
    base = dict(_PRESETS[args.preset]) if args.preset else {}
    if args.cluster_sizes:
        base["cluster_sizes"] = tuple(
            int(x) for x in args.cluster_sizes.split(",")
        )
    if "cluster_sizes" not in base:
        raise DataError("simulate needs --preset or --cluster-sizes")
    for key in (
        "within_mean",
        "between_mean",
        "stem_min",
        "seq_length",
        "kappa",
        "phi_fraction",
        "mask_fraction",
    ):
        value = getattr(args, key)
        if value is not None:
            base[key] = value
    cfg = SimConfig(rng_seed=args.seed, **base)

    tree, planted = simulate_tree(cfg)
    alignment = simulate_alignment(tree, cfg)
    meta = simulate_metadata(planted, cfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_newick(tree, out_dir / "tree.nwk")
    write_fasta(alignment, out_dir / "alignment.fasta")
    write_metadata(meta, out_dir / "metadata.csv")
    write_partition(planted, out_dir / "planted.csv")
    _write_manifest(args, out_dir, [], started, [args.seed])


# ---------------------------------------------------------------- parser


def _parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="phyloclust",
        description="Transmission-cluster detection toolkit",
    )
    children: list[argparse.ArgumentParser] = []
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads for a whole p/K80 matrix build (dist, and gap "
        "or sweep from --align), clamped to the cores and the rows "
        "(default: PHYLOCLUST_THREADS or all cores)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of flag defaults; explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        child = sub.add_parser(name, **kw)
        children.append(child)
        return child

    p = add_parser("dist", help="pairwise distance matrix from a FASTA")
    p.add_argument("--align", required=True)
    p.add_argument("--kind", choices=("p", "k80"), default="p")
    p.add_argument("--out", required=True)
    p.add_argument("--cap", type=float, default=None,
                   help="replace undefined distances with this value")
    p.add_argument("--binary", action="store_true",
                   help="write the compact triangle format instead of phylip")
    p.set_defaults(func=_cmd_dist)

    p = add_parser("cluster", help="partition sequences into clusters")
    p.add_argument(
        "--method",
        required=True,
        choices=("maxp", "medianpatristic", "maxpatristic", "gap", "mcmc"),
    )
    p.add_argument("--tree", default=None)
    p.add_argument("--align", default=None)
    p.add_argument("--matrix", default=None,
                   help="precomputed distance matrix (phylip or .bin)")
    p.add_argument("--support-min", type=float, default=0.70)
    p.add_argument("--distance-max", type=float, default=0.045)
    p.add_argument("--gap-quantile", type=float, default=0.90,
                   help="gap search quantile")
    p.add_argument("--iterations", type=int, default=220_000)
    p.add_argument("--burn-in", type=int, default=20_000)
    p.add_argument("--thin", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None,
                   help="comma-separated seeds for independent chains; the "
                        "partition with the best posterior is reported "
                        "(mcmc only)")
    p.add_argument("--chain-dir", default=None,
                   help="directory for the full chain summary (mcmc only); "
                        "with --seeds, one chain-<seed> subdirectory each")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = add_parser("support", help="annotate clade support from a tree sample")
    p.add_argument("--tree", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_support)

    p = add_parser("consensus", help="majority-rule consensus of a tree sample")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_consensus)

    p = add_parser("sweep", help="grid-search cutpoints against a reference")
    p.add_argument("--tree", required=True)
    p.add_argument("--align", default=None)
    p.add_argument("--ref", required=True,
                   help="partition csv over the reference subset")
    p.add_argument(
        "--method",
        choices=("maxp", "medianpatristic", "maxpatristic"),
        default="maxp",
    )
    p.add_argument("--support-grid", default="0.70,0.90,0.95")
    p.add_argument("--distance-grid", default="0.015,0.03,0.045,0.068,0.077")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = add_parser("ari", help="adjusted Rand index between two partitions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", "--planted", dest="b", required=True)
    p.add_argument("--ref", default=None,
                   help="partial reference csv; scores --a against it")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ari)

    p = add_parser("compare", help="co-clustering matrix across methods")
    p.add_argument("--partitions", nargs="+", required=True)
    p.add_argument("--out", required=True,
                   help=".bin triangle; row order goes to the .ids sidecar")
    p.set_defaults(func=_cmd_compare)

    p = add_parser("linkage", help="walktrap communities of a chain's cocluster")
    p.add_argument("--chain-dir", required=True)
    p.add_argument("--walk-length", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_linkage)

    p = add_parser("growth", help="cluster growth report from metadata")
    p.add_argument("--partition", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--window-start", default="2012-01-01")
    p.add_argument("--phi-start", default="2012-07-01")
    p.add_argument("--window-end", default="2016-02-01")
    p.add_argument("--top-k", type=int, default=30)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_growth)

    p = add_parser("simulate", help="planted-cluster ground truth generator")
    p.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p.add_argument("--cluster-sizes", default=None,
                   help="comma-separated sizes, overrides the preset")
    p.add_argument("--within-mean", dest="within_mean", type=float, default=None)
    p.add_argument("--between-mean", dest="between_mean", type=float, default=None)
    p.add_argument("--stem-min", dest="stem_min", type=float, default=None)
    p.add_argument("--seq-length", dest="seq_length", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--phi-fraction", dest="phi_fraction", type=float, default=None)
    p.add_argument("--mask-fraction", dest="mask_fraction", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate)

    return parser, children


def main(argv: list[str] | None = None) -> int:
    parser, children = _parser()

    # pre-scan for --config so its values become defaults the real parse
    # can override; defaults must reach the subparsers too, because each
    # subcommand parses into a fresh namespace that wins over the parent
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("expected a JSON object of flag defaults")
            if "func" in overrides:
                raise ValueError("'func' is not a flag")
        except (OSError, ValueError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return 1
        parser.set_defaults(**overrides)
        for child in children:
            child.set_defaults(**overrides)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
