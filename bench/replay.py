"""In-process replay of a workload's steps, with a span around each library call.

Each step runs through `phyloclust.cli.main`, the entry point of the
child processes, so the replay takes the program's own path.
`Tracer.install` swaps each traced public function for a wrapper in every
`phyloclust` module that refers to it, `cli` included, so the handlers'
calls and the calls the library makes to itself (the p-matrix rebuild
inside `initialize_chain`, the patristic fill inside `threshold_cluster`)
get spans of their own.  Spans are kept in memory; a layer's self time
is its span minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

from phyloclust import (
    cli,
    community,
    distance,
    evaluation,
    gap,
    growth,
    io_formats,
    mcmc,
    phylo,
    simulate,
    threshold,
)

from workloads import Step

_LAYER = {stat: method for method, stat in cli._STATISTIC_BY_METHOD.items()}


def _build_span(alignment, kind, cap=None, threads=1):
    n = len(alignment.records)
    name = "distance.build_p" if kind is distance.MatrixKind.P_DISTANCE else "distance.build_k80"
    return name, {"threads": threads, "pairs": n * (n - 1) // 2, "sites": alignment.sites}


# (module, function, span name or namer(*args, **kw) -> (name, attrs),
#  counter(result) -> attrs)
_TRACED = [
    (io_formats, "load_fasta", "io_formats.parse_fasta", None),
    (io_formats, "load_newick", "io_formats.parse_newick", None),
    (io_formats, "load_newick_list", "io_formats.parse_newick_list", None),
    (distance, "build_distance_matrix", _build_span,
     lambda dm: {"undefined": dm.num_undefined()}),
    (distance, "write_matrix_phylip", "distance.write_phylip", None),
    (distance, "read_matrix_phylip", "distance.read_phylip", None),
    (distance, "write_matrix_binary", "distance.write_binary", None),
    (distance, "read_matrix_binary", "distance.read_binary", None),
    (phylo, "patristic_matrix", "phylo.patristic_matrix", None),
    (phylo, "annotate_support", "phylo.annotate_support", None),
    (phylo, "majority_consensus", "phylo.majority_consensus", None),
    (threshold, "threshold_cluster",
     lambda t, s, c: ("threshold." + _LAYER[c.statistic], {}),
     lambda p: {"clusters": p.num_clusters()}),
    (gap, "gap_cluster", "gap.gap_cluster", lambda p: {"clusters": p.num_clusters()}),
    (mcmc, "initialize_chain", "mcmc.initialize_chain", None),
    (mcmc, "run_chain", lambda t, a, cfg: ("mcmc.run_chain", {"iterations": cfg.iterations}),
     lambda s: {"retained": len(s.retained_samples),
                "map_clusters": s.map_partition.num_clusters()}),
    (mcmc, "save_chain_summary", "mcmc.save_chain_summary", None),
    (mcmc, "load_chain_summary", "mcmc.load_chain_summary", None),
    (community, "walktrap_communities", "community.walktrap_communities",
     lambda p: {"communities": p.num_clusters()}),
    (evaluation, "adjusted_rand_index", "evaluation.adjusted_rand_index", None),
    (evaluation, "method_cocluster_matrix", "evaluation.method_cocluster_matrix", None),
    (evaluation, "cutpoint_sweep", "evaluation.cutpoint_sweep",
     lambda r: {"grid_points": len(r[2])}),
    (growth, "growth_report", "growth.growth_report", None),
    (growth, "emit_growth_svg", "growth.emit_growth_svg", None),
    (simulate, "simulate_tree", "simulate.simulate_tree", None),
    (simulate, "simulate_alignment", "simulate.simulate_alignment", None),
]


class Tracer:
    """Records spans (name, start, end, parent, attrs) of wrapped calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, namer, counter):
        def traced(*args, **kwargs):
            name, attrs = namer(*args, **kwargs) if callable(namer) else (namer, {})
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "attrs": attrs}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter:
                attrs.update(counter(result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("phyloclust")]
        for owner, attr, namer, counter in _TRACED:
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, namer, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._undo):
            setattr(mod, key, fn)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's time not covered by its child spans."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def run_step(step: Step, threads: int) -> str:
    """Run `phyloclust <step>` in-process; return what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main([str(a) for a in step.argv(threads)])
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"exited {rc}")
    return buf.getvalue()
