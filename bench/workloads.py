"""Workload definitions: the inputs made from a seed, and the CLI steps run on them.

Every workload is a list of `Step`s.  `run.py` runs each step as one
`phyloclust` child process; `replay.py` runs the same steps in-process as
direct calls into the library.  Both write the same output files, so
`checks.py` verifies either.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from phyloclust import io_formats, simulate
from phyloclust.cli import _PRESETS

WORKLOADS = ("paper-conventional", "paper-bayesian", "acceptance-study")

# threshold and gap parameters, passed explicitly so the checks know them
SUPPORT_MIN = 0.70
DISTANCE_MAX = 0.045
GAP_QUANTILE = 0.90

# paper-bayesian chain: 30,000 post-burn-in iterations, three retained samples
CHAIN_ITERATIONS = 32_000
CHAIN_BURN_IN = 2_000
CHAIN_THIN = 10_000
# the traced run repeats the chain at this thinning, which retains nothing
CHAIN_THIN_NONE = 40_000

# Cluster-method costs follow the tree's shape: over paper-scale seeds
# 11-15, cluster_s ran from 11.8 to 21.6 s.  Paper-scale cohorts therefore
# share one tree, simulated at the seed of the ROADMAP baseline; their
# sequences, metadata and chain seed come from the workload seed.
PAPER_TREE_SEED = 7

TREE_SAMPLE = 20  # sibling-seed trees per acceptance cohort


@dataclass(frozen=True)
class Step:
    """One CLI invocation: subcommand, its flags, and the cohort it reads."""

    command: str
    opts: dict
    cohort: Path

    @property
    def metric(self) -> str:
        if self.command == "cluster":
            return f"cluster_{self.opts['method']}_s"
        return f"{self.command}_s"

    def argv(self, threads: int) -> list[str]:
        out = ["--threads", str(threads), self.command]
        for key, value in self.opts.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                out.append(flag)
            elif isinstance(value, (list, tuple)):
                out += [flag, *map(str, value)]
            else:
                out += [flag, str(value)]
        return out


def sibling_seeds(cohort_seed: int) -> list[int]:
    return [cohort_seed * 1000 + j for j in range(1, TREE_SAMPLE + 1)]


def make_inputs(workload: str, seed: int, work: Path) -> Path:
    """Simulate the workload's cohort (and tree sample) under `work`."""
    preset = "acceptance" if workload == "acceptance-study" else "paper-scale"
    sizes = _PRESETS[preset]["cluster_sizes"]
    d = work / f"cohort-{seed}"
    d.mkdir(parents=True, exist_ok=True)
    cfg = simulate.SimConfig(cluster_sizes=sizes, rng_seed=seed)
    tree_seed = PAPER_TREE_SEED if preset == "paper-scale" else seed
    tree, planted = simulate.simulate_tree(
        simulate.SimConfig(cluster_sizes=sizes, rng_seed=tree_seed))
    alignment = simulate.simulate_alignment(tree, cfg)
    io_formats.write_newick(tree, d / "tree.nwk")
    io_formats.write_fasta(alignment, d / "alignment.fasta")
    io_formats.write_metadata(simulate.simulate_metadata(planted, cfg), d / "metadata.csv")
    io_formats.write_partition(planted, d / "planted.csv")
    if workload == "acceptance-study":
        # same ids and planted clades as the cohort, other topologies
        with open(d / "sample.nwk", "w") as fh:
            for ss in sibling_seeds(seed):
                sib, _ = simulate.simulate_tree(
                    simulate.SimConfig(cluster_sizes=sizes, rng_seed=ss)
                )
                fh.write(io_formats.newick_string(sib))
    return d


def steps(workload: str, seed: int, cohort: Path) -> list[Step]:
    out: list[Step] = []
    threshold = {"support_min": SUPPORT_MIN, "distance_max": DISTANCE_MAX}
    o = cohort / "out"
    o.mkdir(exist_ok=True)
    tree, aln, planted = cohort / "tree.nwk", cohort / "alignment.fasta", cohort / "planted.csv"

    def add(command, **opts):
        out.append(Step(command, opts, cohort))

    if workload == "paper-conventional":
        add("dist", align=aln, kind="p", binary=True, out=o / "p.bin")
        add("cluster", method="maxp", tree=tree, matrix=o / "p.bin",
            **threshold, out=o / "maxp.csv")
        add("cluster", method="gap", matrix=o / "p.bin",
            gap_quantile=GAP_QUANTILE, out=o / "gap.csv")
        add("cluster", method="medianpatristic", tree=tree, **threshold,
            out=o / "medianpatristic.csv")
        parts = [o / "maxp.csv", o / "gap.csv", o / "medianpatristic.csv"]
        for p in parts:
            add("ari", a=p, planted=planted)
        add("compare", partitions=parts, out=o / "compare.bin")
        add("growth", partition=o / "maxp.csv", metadata=cohort / "metadata.csv",
            out=o / "growth.tsv", svg=o / "growth.svg")
    elif workload == "paper-bayesian":
        add("cluster", method="mcmc", tree=tree, align=aln, seed=seed,
            iterations=CHAIN_ITERATIONS, burn_in=CHAIN_BURN_IN,
            thin=CHAIN_THIN, chain_dir=o / "chain", out=o / "mcmc.csv")
        add("linkage", chain_dir=o / "chain", out=o / "linkage.csv")
        add("ari", a=o / "chain" / "map_partition.csv", planted=planted)
        add("ari", a=o / "linkage.csv", planted=planted)
    elif workload == "acceptance-study":
        sample = cohort / "sample.nwk"
        add("support", tree=tree, samples=sample, out=o / "support.nwk")
        add("consensus", samples=sample, out=o / "consensus.nwk")
        add("dist", align=aln, kind="p", out=o / "p.phy")
        add("dist", align=aln, kind="k80", out=o / "k80.phy")
        add("cluster", method="maxp", tree=tree, matrix=o / "p.phy",
            **threshold, out=o / "maxp.csv")
        add("cluster", method="gap", matrix=o / "p.phy",
            gap_quantile=GAP_QUANTILE, out=o / "gap.csv")
        add("cluster", method="medianpatristic", tree=tree, **threshold,
            out=o / "medianpatristic.csv")
        for method in ("maxpatristic", "medianpatristic"):
            add("sweep", tree=tree, ref=planted, method=method,
                out=o / f"sweep-{method}.tsv")
        parts = [o / "maxp.csv", o / "gap.csv", o / "medianpatristic.csv"]
        add("compare", partitions=parts, out=o / "compare.bin")
        add("growth", partition=o / "maxp.csv", metadata=cohort / "metadata.csv",
            out=o / "growth.tsv", svg=o / "growth.svg")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
