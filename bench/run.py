"""phyloclust benchmark: three CLI workloads, end to end or traced per layer.

    python3 bench/run.py --workload paper-conventional --seed 1 --seconds 10 --trace 0

Run from the repository root.  With `--trace 0` every step of the
workload runs as its own `phyloclust` child process and the program is
measured only from outside.  With `--trace 1` the same steps run
in-process with a span around each library call (see replay.py).  Every
output is checked (see checks.py).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

IMPORT_PROBES = 3

# metrics every workload reports; the per-command and per-layer breakdowns
# that only some workloads have, and counts the inputs fix (pairs, clusters,
# computed bytes), are printed and kept in the result file
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "io_formats.parse_fasta_s": "s",
    "io_formats.parse_newick_s": "s",
    "distance.build_p_s": "s",
    "distance.site_comparisons_per_s": "1/s",
    "threshold.maxp_s": "s",
    "evaluation.adjusted_rand_index_s": "s",
    "simulate.simulate_tree_s": "s",
    "simulate.simulate_alignment_s": "s",
}


def unit_of(name: str) -> str:
    units = {**END_TO_END, **PER_LAYER, "distance.phylip_bytes": "B",
             "distance.computed_bytes": "B", "distance.thread_speedup": "x", "mcmc.s_per_1k_iterations": "s",
             "mcmc.s_per_retained_sample": "s"}
    return units.get(name, "s" if name.endswith("_s") else "count")


def timed_setup(workload, seed, work) -> tuple[Path, float]:
    import workloads

    t0 = time.perf_counter()
    cohort = workloads.make_inputs(workload, seed, work)
    return cohort, time.perf_counter() - t0


# ------------------------------------------------------------- end to end


@contextlib.contextmanager
def launcher(env: dict):
    """A function that runs one child through launch.py (see there why) and
    returns its wall seconds, peak RSS (MB), exit code and stdout."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launch.py"))],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run_child(argv: list[str], log: Path) -> tuple[float, float, int, str]:
        out = log.with_suffix(".out")
        job = {"argv": argv, "out": str(out), "err": str(log.with_suffix(".err"))}
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        wall, rss, rc = json.loads(proc.stdout.readline())
        return wall, rss, rc, out.read_text()

    try:
        yield run_child
    finally:
        proc.stdin.close()
        proc.wait()


def end_to_end(workload, seed, seconds, work, env, threads, report):
    import checks
    import workloads

    cohort, first = timed_setup(workload, seed, work)
    setups = [first]
    steps = workloads.steps(workload, seed, cohort)
    # two more set-ups into a spare directory, after the first and the last
    # command of the first round: the CPU speed of this kind of host wanders
    # over tens of seconds, so the median samples several moments of the run
    again_after = {0, len(steps) - 1}
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    rounds, attempted, failed, problems = [], 0, 0, []
    with launcher(env) as run_child:
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            per_command: dict[str, float] = {}
            walls, peak = [], 0.0
            checker = checks.Checker()
            for k, step in enumerate(steps):
                argv = [sys.executable, "-m", "phyloclust", *step.argv(threads)]
                wall, rss, rc, stdout = run_child(argv, logs / f"{len(rounds)}-{k}")
                attempted += 1
                walls.append(wall)
                peak = max(peak, rss)
                per_command[step.metric] = per_command.get(step.metric, 0.0) + wall
                if not rounds and k in again_after:
                    setups.append(timed_setup(workload, seed, work / "again")[1])
                if rc != 0:
                    failed += 1
                    problems.append(f"{' '.join(map(str, argv[3:]))} exited {rc}")
                    continue
                problems += checker.run(step, stdout)
            rounds.append({
                "pipeline_s": sum(walls),
                "cluster_s": sum(v for k, v in per_command.items() if k.startswith("cluster_")),
                "peak_rss_mb": peak,
                **per_command,
            })
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["setup_s"] = statistics.median(setups)
    report["rounds"] = len(rounds)
    return metrics, END_TO_END, attempted, failed, problems


# ----------------------------------------------------------------- traced


def import_probe(env) -> float:
    code = ("import time; t = time.perf_counter(); import phyloclust.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(IMPORT_PROBES)]
    return statistics.median(times)


def replay_steps(steps, threads):
    """Wall time, failed count, failure messages and stdout of each step."""
    import replay

    failed, problems, printed = 0, [], []
    t0 = time.perf_counter()
    for step in steps:
        try:
            printed.append(replay.run_step(step, threads))
        except Exception as exc:  # a failed step is counted, the replay goes on
            failed += 1
            problems.append(f"{step.command} raised {exc.__class__.__name__}: {exc}")
            printed.append(None)
    return time.perf_counter() - t0, failed, problems, printed


# (span name, span counter) -> layer metric
COUNTERS = {
    ("threshold.maxp", "clusters"): "threshold.clusters",
    ("gap.gap_cluster", "clusters"): "gap.clusters",
    ("community.walktrap_communities", "communities"): "community.communities",
    ("evaluation.cutpoint_sweep", "grid_points"): "evaluation.grid_points",
    ("mcmc.run_chain", "retained"): "mcmc.retained_samples",
    ("mcmc.run_chain", "map_clusters"): "mcmc.map_clusters",
}


def layer_metrics(spans, own, cores) -> dict[str, float]:
    """Self time per layer, and the counters its spans carry."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for s, t in zip(spans, own):
        name, a = s["name"], s["attrs"]
        if name != "distance.build_p":
            add(name + "_s", t)
        elif a["threads"] == cores:
            add("distance.build_p_s", t)
            add("distance.pairs", a["pairs"])
            add("distance.undefined_pairs", a["undefined"])
            add("distance.site_comparisons", a["pairs"] * a["sites"])
            # codes and validity rows read per pair, three int64 counts written
            add("distance.computed_bytes", a["pairs"] * (2 * a["sites"] + 24))
        if name == "distance.build_p" and a["threads"] == 1:
            add("distance.build_p_1thread_s", t)
        for (span, counter), key in COUNTERS.items():
            if name == span:
                add(key, a[counter])
    if "distance.build_p_s" in m:
        m["distance.site_comparisons_per_s"] = (
            m.pop("distance.site_comparisons") / m["distance.build_p_s"])
        if "distance.build_p_1thread_s" in m:
            m["distance.thread_speedup"] = m["distance.build_p_1thread_s"] / m["distance.build_p_s"]
    return m


def chain_costs(a_spans, b_spans) -> dict[str, float]:
    """Per-retained-sample and per-1k-iteration cost from two thinnings.

    Both chains make the same moves; B retains nothing, so the kernel time
    of A minus that of B is the cost of A's retained samples."""
    def kernel(spans):
        run = next(s for s in spans if s["name"] == "mcmc.run_chain")
        init = next(s for s in spans if s["name"] == "mcmc.initialize_chain")
        return (run["end"] - run["start"]) - (init["end"] - init["start"]), run["attrs"]

    ka, a = kernel(a_spans)
    kb, b = kernel(b_spans)
    return {
        "mcmc.s_per_retained_sample": (ka - kb) / (a["retained"] - b["retained"]),
        "mcmc.s_per_1k_iterations": kb / b["iterations"] * 1000.0,
    }


def traced(workload, seed, seconds, work, env, threads, report):
    import checks
    import replay
    import workloads
    from phyloclust import distance, io_formats, mcmc

    tracer = replay.Tracer()
    tracer.install()
    cohort, _ = timed_setup(workload, seed, work)
    steps = workloads.steps(workload, seed, cohort)
    traced_s, failed, problems, printed = replay_steps(steps, threads)
    checker = checks.Checker()
    for step, stdout in zip(steps, printed):
        if stdout is not None:
            problems += checker.run(step, stdout)
    del checker
    extras = []
    if workload == "paper-bayesian":
        o = steps[0].opts
        tree, alignment = io_formats.load_newick(o["tree"]), io_formats.load_fasta(o["align"])
        # thread speedup of the rebuild initialize_chain does on one thread
        distance.build_distance_matrix(alignment, distance.MatrixKind.P_DISTANCE, threads=threads)
        tracer.uninstall()
        chain_b = replay.Tracer()
        chain_b.install()
        mcmc.run_chain(tree, alignment, mcmc.ChainConfig(
            iterations=o["iterations"], burn_in=o["burn_in"],
            thin=workloads.CHAIN_THIN_NONE, rng_seed=o["seed"]))
        chain_b.uninstall()
        extras = chain_b.spans
    tracer.uninstall()
    untraced_s = replay_steps(steps, threads)[0]

    metrics = layer_metrics(tracer.spans, tracer.self_times(), threads)
    if extras:
        metrics.update(chain_costs(tracer.spans, extras))
    phylip = [Path(s.opts["out"]) for s in steps if s.command == "dist" and not s.opts.get("binary")]
    if phylip:
        metrics["distance.phylip_bytes"] = float(sum(p.stat().st_size for p in phylip))
    metrics["cli.import_s"] = import_probe(env)
    metrics["trace.replay_s"] = traced_s
    metrics["trace.untraced_replay_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    report["spans"] = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                       for s in tracer.spans + extras]
    return metrics, PER_LAYER, len(steps), failed, problems


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="start rounds of the workload until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "phyloclust" / "cli.py").is_file():
        print(f"error: no phyloclust sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))  # the program is built from the checkout's sources
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    threads = os.cpu_count() or 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    results = Path(__file__).resolve().parent / "_work"
    work = results / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = {"cores": threads, "numpy": numpy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host}
    try:
        run = traced if args.trace else end_to_end
        metrics, listed, attempted, failed, problems = run(
            args.workload, args.seed, args.seconds, work, env, threads, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cores {threads}  numpy {numpy.__version__}  python {host['python']}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:14.6f} {unit_of(name)}")
    print(f"  attempted {attempted}  failed {failed}  check failures {len(problems)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    report.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")

    missing = [name for name in listed if name not in metrics]
    for name in missing:
        print(f"  MISSING METRIC: {name}")
    out = {
        "correct": not problems and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in listed.items() if name in metrics},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
