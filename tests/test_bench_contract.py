"""The bench's in-process replay (bench/replay.py) against the library.

The replay wraps library functions by name and reads counters off their
results, so a change of name, signature or result type fails a traced
bench run.  These tests run the matrix commands of the
`paper-conventional` workload under the replay's tracer on a small
cohort and check what the bench reads.
"""

import sys
from pathlib import Path

import pytest

from phyloclust.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def replay():
    sys.path.insert(0, str(BENCH))
    try:
        import replay
    finally:
        sys.path.remove(str(BENCH))
    return replay


def test_every_traced_name_resolves(replay):
    for owner, attr, _, _ in replay._TRACED:
        assert callable(getattr(owner, attr)), (owner.__name__, attr)


def test_traced_matrix_commands(replay, tmp_path):
    c, o = tmp_path / "cohort", tmp_path / "out"
    o.mkdir()
    assert main(["simulate", "--preset", "demo", "--seed", "3", "--out-dir", str(c)]) == 0
    tree, aln = str(c / "tree.nwk"), str(c / "alignment.fasta")
    assert main(["cluster", "--method", "maxp", "--tree", tree, "--align", aln,
                 "--out", str(o / "maxp.csv")]) == 0
    assert main(["cluster", "--method", "medianpatristic", "--tree", tree,
                 "--out", str(o / "medianpatristic.csv")]) == 0
    steps = [
        ["--threads", "2", "dist", "--align", aln, "--binary", "--out", str(o / "p.bin")],
        ["--threads", "1", "dist", "--align", aln, "--kind", "k80", "--out", str(o / "k80.phy")],
        ["cluster", "--method", "gap", "--matrix", str(o / "p.bin"), "--out", str(o / "gap.csv")],
        ["compare", "--partitions", str(o / "maxp.csv"), str(o / "gap.csv"),
         str(o / "medianpatristic.csv"), "--out", str(o / "compare.bin")],
    ]
    tracer = replay.Tracer()
    tracer.install()
    try:
        for argv in steps:
            assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    builds = [s for s in tracer.spans if s["name"].startswith("distance.build_")]
    assert [s["name"] for s in builds] == ["distance.build_p", "distance.build_k80"]
    for span, threads in zip(builds, (2, 1)):
        attrs = span["attrs"]
        assert set(attrs) == {"threads", "pairs", "sites", "undefined"}
        assert attrs["threads"] == threads and attrs["undefined"] >= 0
    assert names.count("gap.gap_cluster") == 1
    assert names.count("evaluation.method_cocluster_matrix") == 1
