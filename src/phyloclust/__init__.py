"""Transmission-cluster detection from sequence alignments and phylogenies.

Distance-threshold clustering on supported clades, largest-gap
friendship clustering, a clade-partition MCMC with co-clustering
summaries, walktrap communities, partition scoring against partial
references, growth reporting, and a planted-cluster simulator.

Every public name is loaded from its module on first access (PEP 562),
so `import phyloclust` imports no submodule and a command that never
touches numpy does not pay its import.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "community": (
        "WeightedGraph",
        "modularity",
        "partition_adjacency",
        "walktrap_communities",
    ),
    "distance": (
        "DistanceMatrix",
        "MatrixKind",
        "build_distance_matrix",
        "read_matrix_binary",
        "read_matrix_phylip",
        "write_matrix_binary",
        "write_matrix_phylip",
    ),
    "errors": ("DataError",),
    "evaluation": (
        "ClusterCriteria",
        "ReferenceSet",
        "Statistic",
        "adjusted_rand_index",
        "cutpoint_sweep",
        "method_cocluster_matrix",
        "partial_gold_transform",
        "reference_ari",
    ),
    "gap": (
        "GapConfig",
        "gap_cluster",
    ),
    "growth": (
        "ClusterGrowthRow",
        "GrowthWindow",
        "emit_growth_svg",
        "growth_report",
        "phi_breakdown",
    ),
    "io_formats": (
        "Alignment",
        "CaseMetadata",
        "Partition",
        "SequenceRecord",
        "Stage",
        "load_fasta",
        "load_metadata",
        "load_newick",
        "load_newick_list",
        "load_partition",
        "fasta_string",
        "metadata_string",
        "newick_string",
        "partition_string",
        "parse_fasta",
        "parse_metadata",
        "parse_newick",
        "parse_newick_list",
        "parse_partition",
        "write_fasta",
        "write_metadata",
        "write_newick",
        "write_partition",
    ),
    "mcmc": (
        "ChainConfig",
        "ChainState",
        "ChainSummary",
        "initialize_chain",
        "load_chain_summary",
        "log_posterior",
        "run_chain",
        "save_chain_summary",
    ),
    "phylo": (
        "Node",
        "PhyloTree",
        "annotate_support",
        "majority_consensus",
        "patristic_matrix",
    ),
    "simulate": (
        "SimConfig",
        "simulate_alignment",
        "simulate_metadata",
        "simulate_tree",
    ),
    "threshold": ("threshold_cluster",),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)

