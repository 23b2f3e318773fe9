"""Self-test of the output checks: each must pass clean output and reject a corrupted one.

    python3 bench/selftest.py

Run from the repository root.  The steps of all three workloads are
replayed in-process on one acceptance-sized cohort (with a short chain;
it takes a few seconds), every check must pass, and then each
output is corrupted in turn and its check must report it.  Exit code 0
when every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402


def relabel(path: Path) -> None:
    """Move the first member of the largest cluster into another cluster."""
    part = checks.read_partition(path)
    big = max(checks.groups(part), key=len)
    moved = sorted(big)[0]
    part[moved] = part[max(i for i in part if i not in big)]
    path.write_text("id,label\n" + "".join(f"{i},{part[i]}\n" for i in sorted(part)))


def split_cluster(path: Path, tree: checks.Tree) -> None:
    """Replace a multi-member cluster by its child clades, each still a clade."""
    part = checks.read_partition(path)
    members = next(g for g in checks.groups(part) if len(g) > 1)
    for k, child in enumerate(tree.kids[tree.node_of(members)]):
        for tip in tree.labels[tree.lo[child] : tree.hi[child]]:
            part[tip] = f"split{k}"
    path.write_text("id,label\n" + "".join(f"{i},{part[i]}\n" for i in sorted(part)))


def all_singletons(path: Path) -> None:
    part = checks.read_partition(path)
    path.write_text("id,label\n" + "".join(f"{i},s{i}\n" for i in sorted(part)))


def bump_cell(path: Path, i: int, j: int) -> None:
    """Add 0.01 to matrix cell (i, j) of a binary triangle or phylip file."""
    if path.suffix == ".bin":
        raw = bytearray(path.read_bytes())
        (n,) = struct.unpack("<Q", raw[5:13])
        i, j = min(i, j), max(i, j)
        at = 13 + 8 * (i * (2 * n - i - 1) // 2 + (j - i - 1))
        (v,) = struct.unpack("<d", raw[at : at + 8])
        raw[at : at + 8] = struct.pack("<d", v + 0.01)
        path.write_bytes(bytes(raw))
        return
    lines = path.read_text().split("\n")
    for a, b in ((i, j), (j, i)):
        cells = lines[1 + a].split()
        cells[1 + b] = repr(float(cells[1 + b]) + 0.01)
        lines[1 + a] = "  ".join([cells[0], " ".join(cells[1:])])
    path.write_text("\n".join(lines))


def drop_last_line(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def edit_cell(path: Path, row: int, col: int) -> None:
    """Change one tab-separated cell of a table."""
    lines = path.read_text().splitlines()
    cells = lines[row].split("\t")
    cells[col] = str(float(cells[col]) + 1) if "." in cells[col] else str(int(cells[col]) + 1)
    lines[row] = "\t".join(cells)
    path.write_text("\n".join(lines) + "\n")


def lower_support(path: Path) -> None:
    text = path.read_text()
    path.write_text(text.replace(")1:", ")0.5:", 1))


def anti_linkage(path: Path, chain: Path) -> None:
    """All singletons but one pair of unlinked vertices: modularity below singletons."""
    ids, w = checks.read_matrix(chain / "cocluster.bin")
    live = np.flatnonzero(w.sum(axis=1) > 0)
    a = live[0]
    b = next(k for k in live[1:] if w[a, k] == 0)
    labels = {ident: str(k) for k, ident in enumerate(ids)}
    labels[ids[b]] = labels[ids[a]]
    path.write_text("id,label\n" + "".join(f"{i},{labels[i]}\n" for i in sorted(labels)))


def bump_posterior(path: Path) -> None:
    summary = json.loads(path.read_text())
    summary["map_log_posterior"] += 1.0
    path.write_text(json.dumps(summary))


def corruptions(step: workloads.Step, tree: checks.Tree):
    """(description, files touched, corrupting function) for a step's output."""
    o = step.opts
    if step.command == "dist":
        i, j = checks.pair_sample(len(tree.labels), checks.SAMPLED_PAIRS)
        yield "altered matrix cell", [o["out"]], lambda: bump_cell(o["out"], i[0], j[0])
    elif step.command == "cluster" and o["method"] == "mcmc":
        chain = o["chain_dir"]
        parts = [o["out"], chain / "map_partition.csv"]
        yield "relabelled id (MAP not a clade)", parts, lambda: [relabel(p) for p in parts]
        yield "wrong retained count", [chain / "retained_samples.txt"], \
            lambda: drop_last_line(chain / "retained_samples.txt")
        yield "MAP posterior off the trace", [chain / "summary.json"], \
            lambda: bump_posterior(chain / "summary.json")
        yield "altered co-clustering cell", [chain / "cocluster.bin"], \
            lambda: bump_cell(chain / "cocluster.bin", 0, 1)
    elif step.command == "cluster":
        yield "relabelled id", [o["out"]], lambda: relabel(o["out"])
        if o["method"] != "gap":
            yield "cluster split below a passing clade", [o["out"]], \
                lambda: split_cluster(o["out"], tree)
            yield "all singletons", [o["out"]], lambda: all_singletons(o["out"])
    elif step.command == "linkage":
        yield "worse than singletons", [o["out"]], lambda: anti_linkage(o["out"], o["chain_dir"])
    elif step.command == "ari":
        yield "relabelled id", [o["a"]], lambda: relabel(o["a"])
    elif step.command == "compare":
        yield "altered matrix cell", [o["out"]], lambda: bump_cell(o["out"], 0, 1)
    elif step.command == "growth":
        yield "altered row count", [o["out"]], lambda: edit_cell(o["out"], 1, 1)
    elif step.command in ("support", "consensus"):
        yield "lowered clade support", [o["out"]], lambda: lower_support(o["out"])
    elif step.command == "sweep":
        yield "altered grid ARI", [o["out"]], lambda: edit_cell(o["out"], 1, 2)


def short_chain(step: workloads.Step) -> workloads.Step:
    """A chain that stays near its start, so the co-clustering graph keeps
    several components and a worse-than-singletons partition exists."""
    if step.opts.get("method") != "mcmc":
        return step
    return workloads.Step(step.command, {**step.opts, "iterations": 30, "burn_in": 0, "thin": 10},
                          step.cohort)


def main() -> int:
    scratch = Path(__file__).resolve().parent / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    bad = 0
    try:
        cohort = workloads.make_inputs("acceptance-study", 0, work)
        tree = checks.read_tree(cohort / "tree.nwk")
        for workload in workloads.WORKLOADS:
            steps = [short_chain(s) for s in workloads.steps(workload, 0, cohort)]
            printed = [replay.run_step(s, 2) for s in steps]
            for step, stdout in zip(steps, printed):
                clean = checks.Checker().run(step, stdout)
                if clean:
                    bad += 1
                    print(f"FAIL {workload} {step.command}: clean output rejected: {clean}")
                for what, files, corrupt in corruptions(step, tree):
                    saved = [(Path(f), Path(f).read_bytes()) for f in files]
                    corrupt()
                    caught = checks.Checker().run(step, stdout)
                    for f, data in saved:
                        f.write_bytes(data)
                    name = f"{step.command} {step.opts.get('method', step.opts.get('kind', ''))}"
                    why = caught[0].split(": ", 1)[-1][:60] if caught else "not caught"
                    print(f"{'ok  ' if caught else 'FAIL'} {workload:20s} {name:24s} {what:36s} {why}")
                    bad += not caught
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("every corruption caught" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
