"""Command-line surface: one subcommand per pipeline stage.

Every command that writes a file writes a manifest JSON beside its primary
output recording the resolved flags, input digests, seeds, and duration,
so a run can be reproduced from the manifest alone.  A handler returns
what it wrote and `main` writes the record, timing the whole command.
Exit codes: 0 success, 1 data error, 2 usage error.

Each handler imports the modules it runs, so a command loads only what
it uses: `ari`, `growth`, `support` and `consensus` never import numpy.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import logging
import os
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import __version__
from .errors import DataError
from .evaluation import Statistic

if TYPE_CHECKING:
    from .distance import DistanceMatrix
    from .io_formats import Alignment

log = logging.getLogger(__name__)

_STATISTIC_BY_METHOD = {
    "maxp": Statistic.MAX_PAIRWISE_P,
    "medianpatristic": Statistic.MEDIAN_PATRISTIC,
    "maxpatristic": Statistic.MAX_PATRISTIC,
}


class _UsageError(Exception):
    """Bad flag value or combination; maps to exit code 2."""


@contextmanager
def _flag_values(*fields: str, **flags: str):
    """Report a ValueError raised while flag values become a config
    object, a date or a grid as a usage error, which names each config
    field by its flag: --field-name, or the flag given as field=flag."""
    flags.update({f: "--" + f.replace("_", "-") for f in fields})
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        for field, flag in flags.items():
            message = re.sub(rf"\b{field}\b", flag, message)
        raise _UsageError(message) from None


def _parse_value(flag: str, text: str, kind: Callable):
    """A flag's value converted by kind."""
    try:
        return kind(text)
    except ValueError:
        raise _UsageError(f"bad {flag} value {text!r}") from None


def _parse_list(flag: str, text: str, kind: type) -> tuple:
    """A flag's comma-separated values, each converted by kind."""
    return _parse_value(flag, text, lambda t: tuple(map(kind, t.split(","))))


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


def _write_manifest(
    args: argparse.Namespace,
    started: float,
    anchor: str | Path,
    inputs: list[str | Path],
    seeds: tuple[int, ...] = (),
) -> None:
    flags = {
        k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    }
    manifest = {
        "subcommand": args.command,
        "flags": flags,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "version": __version__,
        "seeds": list(seeds),
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    anchor = Path(anchor)
    if anchor.is_dir():
        target = anchor / "manifest.json"
    else:
        target = anchor.with_name(anchor.name + ".manifest.json")
    with open(target, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_threads(args: argparse.Namespace) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise _UsageError(
                f"--threads must be a positive integer, got {args.threads}"
            )
        return args.threads
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


def _p_source(args, inputs: list) -> Alignment | DistanceMatrix:
    """The p-distances of --matrix (phylip or .bin), else of --align, with
    the path read appended to inputs.  gap reads whole rows, so it gets the
    alignment's matrix; the clade statistics compute the pairs they need."""
    from .distance import (
        MatrixKind,
        build_distance_matrix,
        read_matrix_binary,
        read_matrix_phylip,
    )
    from .io_formats import load_fasta

    matrix = getattr(args, "matrix", None)  # sweep takes no --matrix
    if matrix:
        inputs.append(matrix)
        read = read_matrix_binary if matrix.endswith(".bin") else read_matrix_phylip
        return read(matrix, MatrixKind.P_DISTANCE)
    if not args.align:
        alternative = " or --matrix" if hasattr(args, "matrix") else ""
        raise _UsageError(f"--method {args.method} needs --align{alternative}")
    inputs.append(args.align)
    if args.method != "gap":
        return load_fasta(args.align)
    threads = _resolve_threads(args)  # a bad setting fails before the parse
    return build_distance_matrix(
        load_fasta(args.align), MatrixKind.P_DISTANCE, threads=threads
    )


# -------------------------------------------------------------- handlers


def _cmd_dist(args) -> tuple:
    from .distance import (
        MatrixKind,
        build_distance_matrix,
        write_matrix_binary,
        write_matrix_phylip,
    )
    from .io_formats import load_fasta

    if args.cap is not None and not args.cap >= 0:  # NaN fails too
        raise _UsageError(f"--cap must be a distance of 0 or more, got {args.cap}")
    threads = _resolve_threads(args)  # a bad setting fails before the parse
    kind = MatrixKind.P_DISTANCE if args.kind == "p" else MatrixKind.K80
    dm = build_distance_matrix(
        load_fasta(args.align), kind, cap=args.cap, threads=threads
    )
    if args.binary:
        write_matrix_binary(dm, args.out)
    else:
        write_matrix_phylip(dm, args.out)
    return args.out, [args.align]


def _cmd_cluster(args) -> tuple:
    from .evaluation import ClusterCriteria
    from .gap import GapConfig, gap_cluster
    from .io_formats import load_fasta, load_newick, write_partition
    from .mcmc import ChainConfig, run_chain, save_chain_summary
    from .threshold import threshold_cluster

    inputs: list[str | Path] = []
    # a flag the method never reads is refused, not recorded as if it took
    # effect; the patristic methods sum path lengths from --tree, not --matrix
    for flag, methods in (("seeds", ("mcmc",)), ("chain_dir", ("mcmc",)),
                          ("matrix", ("maxp", "gap"))):
        if getattr(args, flag) is not None and args.method not in methods:
            name, allowed = "--" + flag.replace("_", "-"), " and ".join(methods)
            if flag in args._from_config:
                name += " (from --config)"
            raise _UsageError(f"{name} applies only to --method {allowed}")
    seeds: tuple[int, ...] = ()
    if args.method == "gap":
        with _flag_values(search_quantile="--gap-quantile"):
            config = GapConfig(search_quantile=args.gap_quantile)
        part = gap_cluster(_p_source(args, inputs), config)
    elif args.method == "mcmc":
        if not args.tree or not args.align:
            raise _UsageError("--method mcmc needs --tree and --align")
        listed = args.seeds is not None
        seeds = _parse_list("--seeds", args.seeds, int) if listed else (args.seed,)
        if len(set(seeds)) != len(seeds):
            raise _UsageError("--seeds entries must be distinct")
        seed_flag = "--seeds" if listed else "--seed"
        with _flag_values("iterations", "burn_in", "thin", rng_seed=seed_flag):
            configs = [
                ChainConfig(
                    iterations=args.iterations,
                    burn_in=args.burn_in,
                    thin=args.thin,
                    rng_seed=seed,
                )
                for seed in seeds
            ]
        tree = load_newick(args.tree)
        # each chain's start reads only the p-distances its clades need
        alignment = load_fasta(args.align)
        inputs += [args.tree, args.align]
        summaries = [run_chain(tree, alignment, cfg) for cfg in configs]
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
            for seed, summary in zip(seeds, summaries):
                sub = f"chain-{seed}" if len(summaries) > 1 else ""
                save_chain_summary(summary, Path(args.chain_dir) / sub)
        part = best.map_partition
    else:
        statistic = _STATISTIC_BY_METHOD[args.method]
        if not args.tree:
            raise _UsageError(f"--method {args.method} needs --tree")
        with _flag_values("support_min", "distance_max"):
            criteria = ClusterCriteria(args.support_min, args.distance_max, statistic)
        maxp = statistic is Statistic.MAX_PAIRWISE_P  # patristic is from the tree
        inputs.append(args.tree)  # hashing a matrix first raised the peak 0.3 MB
        source = _p_source(args, inputs) if maxp else None
        part = threshold_cluster(load_newick(args.tree), source, criteria)
    write_partition(part, args.out)
    return args.out, inputs, seeds


def _cmd_support(args) -> tuple:
    from .io_formats import load_newick, load_newick_list, write_newick
    from .phylo import annotate_support

    tree = load_newick(args.tree)
    sample = load_newick_list(args.samples)
    write_newick(annotate_support(tree, sample), args.out)
    return args.out, [args.tree, args.samples]


def _cmd_consensus(args) -> tuple:
    from .io_formats import load_newick_list, write_newick
    from .phylo import majority_consensus

    sample = load_newick_list(args.samples)
    write_newick(majority_consensus(sample), args.out)
    return args.out, [args.samples]


def _cmd_sweep(args) -> tuple:
    from .evaluation import ClusterCriteria, ReferenceSet, cutpoint_sweep
    from .io_formats import load_newick, load_partition
    from .threshold import threshold_runner

    statistic = _STATISTIC_BY_METHOD[args.method]
    supports = _parse_list("--support-grid", args.support_grid, float)
    distances = _parse_list("--distance-grid", args.distance_grid, float)
    with _flag_values(support_min="--support-grid", distance_max="--distance-grid"):
        points = [ClusterCriteria(s, d, statistic) for s in supports for d in distances]
    inputs: list[str | Path] = [args.tree, args.ref]
    maxp = statistic is Statistic.MAX_PAIRWISE_P  # patristic is from the tree
    source = _p_source(args, inputs) if maxp else None
    tree = load_newick(args.tree)
    reference = load_partition(args.ref)
    ref = ReferenceSet(reference, tuple(tree.tip_labels()))
    runner = threshold_runner(tree, source, points)
    best, best_ari, grid = cutpoint_sweep(runner, ref, points)
    with open(args.out, "w") as fh:
        fh.write("support_min\tdistance_max\tari\n")
        for (s, d), value in sorted(grid.items()):
            fh.write(f"{s!r}\t{d!r}\t{value!r}\n")
    print(
        f"best support_min={best.support_min} "
        f"distance_max={best.distance_max} ari={best_ari:.6f}"
    )
    return args.out, inputs


def _cmd_ari(args) -> tuple | None:
    from .evaluation import ReferenceSet, adjusted_rand_index, reference_ari
    from .io_formats import load_partition

    if (args.b is None) == (args.ref is None):
        raise _UsageError("ari needs exactly one of --b (--planted) and --ref")
    a = load_partition(args.a)
    if args.ref:
        value = reference_ari(a, ReferenceSet(load_partition(args.ref), tuple(a.ids())))
    else:
        value = adjusted_rand_index(a, load_partition(args.b))
    print(f"{value!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"{value!r}\n")
        return args.out, [args.a, args.b or args.ref]
    return None  # a score printed only is no run to record


def _cmd_compare(args) -> tuple:
    from .evaluation import method_cocluster_matrix
    from .io_formats import load_partition

    partitions = [load_partition(p) for p in args.partitions]
    universe = partitions[0].ids()
    method_cocluster_matrix(partitions, universe, args.out)
    return args.out, list(args.partitions)


def _cmd_linkage(args) -> tuple:
    from .community import WeightedGraph, walktrap_communities
    from .distance import read_nonzero_pairs_binary
    from .errors import MalformedMatrix
    from .io_formats import write_partition

    if args.walk_length < 1:
        raise _UsageError(f"--walk-length must be at least 1, got {args.walk_length}")
    matrix = Path(args.chain_dir) / "cocluster.bin"
    # the graph's edges are the triangle's nonzero pairs, read block by block
    ids, i, j, w = read_nonzero_pairs_binary(matrix)
    if not (w >= 0.0).all():  # NaN fails too
        raise MalformedMatrix(f"{matrix}: co-clustering weights must be non-negative")
    graph = WeightedGraph(ids, i, j, w)
    part = walktrap_communities(graph, walk_length=args.walk_length)
    write_partition(part, args.out)
    return args.out, [matrix]


def _cmd_growth(args) -> tuple:
    from .growth import (
        GrowthWindow,
        emit_growth_svg,
        growth_report,
        growth_report_tsv,
        phi_breakdown,
    )
    from .io_formats import load_metadata, load_partition

    if args.top_k < 1:
        raise _UsageError(f"--top-k must be a positive integer, got {args.top_k}")
    date = datetime.date.fromisoformat
    with _flag_values():
        window = GrowthWindow(
            window_start=_parse_value("--window-start", args.window_start, date),
            phi_reliable_start=_parse_value("--phi-start", args.phi_start, date),
            window_end=_parse_value("--window-end", args.window_end, date),
        )
    part = load_partition(args.partition)
    meta = load_metadata(args.metadata)
    rows = growth_report(part, meta, window, top_k=args.top_k)
    with open(args.out, "w") as fh:
        fh.write(growth_report_tsv(rows))
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(emit_growth_svg(rows))
    print(json.dumps(phi_breakdown(part, meta, window), sort_keys=True))
    return args.out, [args.partition, args.metadata]


def _cmd_simulate(args) -> tuple:
    from .io_formats import write_fasta, write_metadata, write_newick, write_partition
    from .simulate import (
        SimConfig,
        simulate_alignment,
        simulate_metadata,
        simulate_tree,
    )

    base = dict(_PRESETS[args.preset]) if args.preset else {}
    if not (args.cluster_sizes or args.preset):
        raise _UsageError("simulate needs --preset or --cluster-sizes")
    fields = ("within_mean", "between_mean", "stem_min", "seq_length", "kappa",
              "phi_fraction", "mask_fraction")
    for key in fields:
        value = getattr(args, key)
        if value is not None:
            base[key] = value
    if args.cluster_sizes:
        base["cluster_sizes"] = _parse_list("--cluster-sizes", args.cluster_sizes, int)
    with _flag_values(*fields, rng_seed="--seed"):
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
    return out_dir, [], (args.seed,)


# ---------------------------------------------------------------- parser


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="phyloclust",
        description="Transmission-cluster detection toolkit",
    )
    children: dict[str, argparse.ArgumentParser] = {}
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes for a whole p/K80 matrix build (dist, and gap "
        "from --align), clamped to the cores and the rows "
        "(default: PHYLOCLUST_THREADS or all cores)",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of flag defaults, each parsed as its flag's text; "
        "explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        child = children[name] = sub.add_parser(name, **kw)
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
                   help="p-distance matrix (phylip or .bin) for maxp and gap")
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
    p.add_argument("--b", "--planted", dest="b", default=None,
                   help="partition csv to score --a against")
    p.add_argument("--ref", default=None,
                   help="partial reference csv to score --a against, "
                        "instead of --b")
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


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, value):
    """A --config value converted as its flag's text would be, with the
    flag's type and choices.  A store-true flag takes a JSON boolean,
    --partitions a list, and any other flag one string, or one number when
    its type is numeric."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif (action.nargs == "+") == isinstance(value, list) and value != []:
        items = value if isinstance(value, list) else [value]
        if all(isinstance(v, str) or action.type and type(v) in (int, float)
               for v in items):
            try:
                return parser._get_values(action, [str(v) for v in items])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{action.dest!r}: {exc}") from None
    raise ValueError(f"{action.dest!r} cannot be {json.dumps(value)}")


def main(argv: list[str] | None = None) -> int:
    parser, children = _parser()

    # pre-scan for --config so its values become defaults the real parse
    # can override; the subcommand's go to its own parser, because each
    # subcommand parses into a fresh namespace that wins over the parent
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, rest = probe.parse_known_args(argv)
    defaults: list[tuple[argparse.ArgumentParser, dict]] = []
    if known.config:
        try:
            with open(known.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("expected a JSON object of flag defaults")
            flags = {a.dest for p in (parser, *children.values()) for a in p._actions}
            flags -= {"help", "command", "config"}  # not flag defaults
            unknown = sorted(set(overrides) - flags)
            if unknown:
                raise ValueError(f"{', '.join(map(repr, unknown))} names no flag")
            # only the global flags and the chosen subcommand's apply
            command = next((children[a] for a in rest if a in children), None)
            defaults = [
                (p, {a.dest: _config_value(p, a, overrides[a.dest])
                     for a in p._actions if a.dest in overrides})
                for p in (parser, command) if p is not None
            ]
        except (OSError, ValueError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return 1
        for p, values in defaults:
            p.set_defaults(**values)
            for action in p._actions:  # a config value supplies a required flag
                action.required &= action.dest not in values

    args = parser.parse_args(argv)
    # a config value that no flag replaced is still the config's own
    # object (an equal cached one given both ways counts as the config's)
    args._from_config = {
        dest for _, values in defaults for dest, value in values.items()
        if getattr(args, dest) is value
    }
    started = time.monotonic()
    try:
        record = args.func(args)
        if record is not None:
            _write_manifest(args, started, *record)
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
