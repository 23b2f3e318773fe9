"""End-to-end command coverage through the in-process entry point."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phyloclust import parse_newick
from phyloclust.cli import main
from phyloclust.distance import (
    MatrixKind,
    build_distance_matrix,
    read_matrix_binary,
    read_matrix_phylip,
)
from phyloclust.evaluation import adjusted_rand_index
from phyloclust.gap import GapConfig, gap_cluster
from phyloclust.io_formats import load_fasta, load_partition
from phyloclust.mcmc import load_chain_summary


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Separable three-cluster cohort shared by the command tests."""
    d = tmp_path_factory.mktemp("cohort")
    rc = main(
        [
            "simulate",
            "--cluster-sizes",
            "6,6,6",
            "--within-mean",
            "0.002",
            "--between-mean",
            "0.4",
            "--stem-min",
            "0.08",
            "--seq-length",
            "400",
            "--seed",
            "11",
            "--out-dir",
            str(d),
        ]
    )
    assert rc == 0
    return d


def test_simulate_outputs(cohort):
    for name in ("tree.nwk", "alignment.fasta", "metadata.csv", "planted.csv", "manifest.json"):
        assert (cohort / name).exists()
    manifest = json.loads((cohort / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seeds"] == [11]
    assert manifest["duration_seconds"] >= 0


def test_dist_phylip_matches_library(cohort, tmp_path):
    out = tmp_path / "dm.phy"
    assert main(["dist", "--align", str(cohort / "alignment.fasta"), "--out", str(out)]) == 0
    dm = read_matrix_phylip(out, MatrixKind.P_DISTANCE)
    direct = build_distance_matrix(
        load_fasta(cohort / "alignment.fasta"), MatrixKind.P_DISTANCE
    )
    assert dm.ids == direct.ids
    assert np.allclose(dm.values, direct.values, atol=1e-9, equal_nan=True)
    manifest = json.loads((tmp_path / "dm.phy.manifest.json").read_text())
    assert manifest["inputs"][str(cohort / "alignment.fasta")] == sha(
        cohort / "alignment.fasta"
    )


def test_dist_binary_roundtrip(cohort, tmp_path):
    out = tmp_path / "dm.bin"
    assert main(
        ["dist", "--align", str(cohort / "alignment.fasta"), "--kind", "k80",
         "--binary", "--out", str(out)]
    ) == 0
    dm = read_matrix_binary(out, MatrixKind.K80)
    direct = build_distance_matrix(
        load_fasta(cohort / "alignment.fasta"), MatrixKind.K80
    )
    assert np.array_equal(dm.values, direct.values, equal_nan=True)
    assert (tmp_path / "dm.bin.ids").exists()


def test_cluster_patristic_cutpoints(cohort, tmp_path):
    out = tmp_path / "part.csv"
    rc = main(
        [
            "cluster",
            "--method",
            "maxpatristic",
            "--support-min",
            "0.70",
            "--distance-max",
            "0.077",
            "--tree",
            str(cohort / "tree.nwk"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    part = load_partition(out)
    planted = load_partition(cohort / "planted.csv")
    assert adjusted_rand_index(part, planted) == pytest.approx(1.0)
    manifest = json.loads((tmp_path / "part.csv.manifest.json").read_text())
    assert manifest["flags"]["distance_max"] == 0.077
    assert manifest["flags"]["support_min"] == 0.70


def test_cluster_then_ari_pipeline(cohort, tmp_path, capsys):
    part = tmp_path / "part.csv"
    assert main(
        ["cluster", "--method", "maxp", "--distance-max", "0.045",
         "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"), "--out", str(part)]
    ) == 0
    score = tmp_path / "ari.txt"
    rc = main(
        ["ari", "--a", str(part), "--planted", str(cohort / "planted.csv"),
         "--out", str(score)]
    )
    assert rc == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == pytest.approx(1.0)
    assert float(score.read_text()) == printed


def test_gap_quantile_flag_matches_library(cohort, tmp_path):
    dm_path = tmp_path / "dm.bin"
    main(["dist", "--align", str(cohort / "alignment.fasta"), "--binary",
          "--out", str(dm_path)])
    out = tmp_path / "gap.csv"
    rc = main(
        ["cluster", "--method", "gap", "--gap-quantile", "0.75",
         "--matrix", str(dm_path), "--out", str(out)]
    )
    assert rc == 0
    direct = gap_cluster(
        read_matrix_binary(dm_path, MatrixKind.P_DISTANCE),
        GapConfig(search_quantile=0.75),
    )
    assert load_partition(out).same_grouping(direct)


@pytest.mark.parametrize("method", ["maxp", "maxpatristic", "medianpatristic"])
def test_unary_clade_gives_its_singleton(tmp_path, recwarn, method):
    """A one-tip clade under a unary node is a singleton, not an error."""
    tree = tmp_path / "tree.nwk"
    tree.write_text("((a:1)1.0:1,(b:0.1,c:0.1)1.0:1);")
    align = tmp_path / "align.fasta"
    align.write_text(">a\n" + "C" * 40 + "\n>b\n" + "A" * 40 + "\n>c\n" + "A" * 40 + "\n")
    out = tmp_path / "part.csv"
    argv = ["cluster", "--method", method, "--tree", str(tree),
            "--support-min", "0.7", "--distance-max", "0.5", "--out", str(out)]
    if method == "maxp":
        argv += ["--align", str(align)]
    assert main(argv) == 0
    clusters = load_partition(out).clusters().values()
    assert sorted(sorted(m) for m in clusters) == [["a"], ["b", "c"]]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_usage_errors_exit_two(cohort, tmp_path):
    out = tmp_path / "nope.csv"
    assert main(["cluster", "--method", "mcmc", "--out", str(out)]) == 2
    assert main(
        ["cluster", "--method", "maxp", "--tree", str(cohort / "tree.nwk"),
         "--out", str(out)]
    ) == 2
    assert main(
        ["cluster", "--method", "gap", "--align", str(cohort / "alignment.fasta"),
         "--seeds", "1,2", "--out", str(out)]
    ) == 2
    assert not out.exists()


def test_unknown_flag_exits_two(cohort, tmp_path):
    out = tmp_path / "nope.csv"
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--method", "maxp", "--frobnicate", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_missing_input_exits_one(tmp_path, capsys):
    rc = main(
        ["cluster", "--method", "maxpatristic", "--tree",
         str(tmp_path / "ghost.nwk"), "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_malformed_tree_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.nwk"
    bad.write_text("((a:1,b:2;\n")
    rc = main(
        ["cluster", "--method", "maxpatristic", "--tree", str(bad),
         "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_config_defaults_flags_still_win(cohort, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"distance_max": 0.5, "support_min": 0.95}))
    out_cfg = tmp_path / "from_config.csv"
    assert main(
        ["--config", str(cfg), "cluster", "--method", "maxpatristic",
         "--tree", str(cohort / "tree.nwk"), "--out", str(out_cfg)]
    ) == 0
    manifest = json.loads((tmp_path / "from_config.csv.manifest.json").read_text())
    assert manifest["flags"]["distance_max"] == 0.5
    assert manifest["flags"]["support_min"] == 0.95

    out_flag = tmp_path / "flag_wins.csv"
    assert main(
        ["--config", str(cfg), "cluster", "--method", "maxpatristic",
         "--distance-max", "0.077", "--tree", str(cohort / "tree.nwk"),
         "--out", str(out_flag)]
    ) == 0
    manifest = json.loads((tmp_path / "flag_wins.csv.manifest.json").read_text())
    assert manifest["flags"]["distance_max"] == 0.077


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = main(["--config", str(cfg), "simulate", "--cluster-sizes", "3",
               "--out-dir", str(tmp_path / "d")])
    assert rc == 1
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [[0.5, 0.95], {"func": 1}])
def test_config_not_flag_defaults_exits_one(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    rc = main(["--config", str(cfg), "simulate", "--cluster-sizes", "3",
               "--out-dir", str(tmp_path / "d")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad config file: ")
    assert "Traceback" not in err
    assert not (tmp_path / "d").exists()


def test_cli_import_leaves_scipy_unloaded():
    probe = (
        "import sys, phyloclust.cli; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_reruns_byte_identical_and_inputs_untouched(cohort, tmp_path):
    before = {p.name: sha(p) for p in cohort.iterdir() if p.is_file()}
    outs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}.csv"
        main(
            ["cluster", "--method", "maxpatristic", "--tree",
             str(cohort / "tree.nwk"), "--out", str(out)]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    after = {p.name: sha(p) for p in cohort.iterdir() if p.is_file()}
    assert before == after


def test_mcmc_multi_seed_chain_dirs(cohort, tmp_path):
    out = tmp_path / "mcmc.csv"
    chains = tmp_path / "chains"
    rc = main(
        ["cluster", "--method", "mcmc", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--iterations", "4000", "--burn-in", "500", "--thin", "10",
         "--seeds", "1,2", "--chain-dir", str(chains), "--out", str(out)]
    )
    assert rc == 0
    assert (chains / "chain-1").is_dir() and (chains / "chain-2").is_dir()
    manifest = json.loads((tmp_path / "mcmc.csv.manifest.json").read_text())
    assert manifest["seeds"] == [1, 2]
    reported = load_partition(out)
    summaries = [load_chain_summary(chains / f"chain-{s}") for s in (1, 2)]
    best = max(summaries, key=lambda s: s.map_log_posterior)
    assert reported.same_grouping(best.map_partition)
    assert main(
        ["cluster", "--method", "mcmc", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"), "--seeds", "1,1",
         "--out", str(out)]
    ) == 2


def test_mcmc_single_seed_layout_unchanged(cohort, tmp_path):
    out = tmp_path / "mcmc.csv"
    chains = tmp_path / "chain"
    rc = main(
        ["cluster", "--method", "mcmc", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--iterations", "3000", "--burn-in", "500", "--thin", "10",
         "--seed", "5", "--chain-dir", str(chains), "--out", str(out)]
    )
    assert rc == 0
    assert (chains / "cocluster.bin").exists()  # no per-seed nesting
    summary = load_chain_summary(chains)
    assert load_partition(out).same_grouping(summary.map_partition)


def test_linkage_command(cohort, tmp_path):
    chains = tmp_path / "chain"
    main(
        ["cluster", "--method", "mcmc", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--iterations", "3000", "--burn-in", "500", "--thin", "10",
         "--chain-dir", str(chains), "--out", str(tmp_path / "m.csv")]
    )
    out = tmp_path / "linkage.csv"
    assert main(["linkage", "--chain-dir", str(chains), "--out", str(out)]) == 0
    part = load_partition(out)
    tree = parse_newick((cohort / "tree.nwk").read_text())
    assert sorted(part.ids()) == sorted(tree.tip_labels())


def test_sweep_command(cohort, tmp_path, capsys):
    out = tmp_path / "sweep.tsv"
    rc = main(
        ["sweep", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--ref", str(cohort / "planted.csv"),
         "--support-grid", "0.70,0.90",
         "--distance-grid", "0.03,0.045",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "support_min\tdistance_max\tari"
    assert len(lines) == 5
    assert "best support_min=" in capsys.readouterr().out


def test_compare_command(cohort, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["cluster", "--method", "maxpatristic", "--tree",
          str(cohort / "tree.nwk"), "--out", str(a)])
    main(["cluster", "--method", "maxp", "--tree", str(cohort / "tree.nwk"),
          "--align", str(cohort / "alignment.fasta"), "--out", str(b)])
    out = tmp_path / "cocluster.bin"
    assert main(["compare", "--partitions", str(a), str(b), "--out", str(out)]) == 0
    dm = read_matrix_binary(out, MatrixKind.COCLUSTER)
    assert set(np.unique(dm.values)) <= {0.0, 0.5, 1.0}
    assert sorted(dm.ids) == sorted(load_partition(a).ids())


def test_support_and_consensus_commands(cohort, tmp_path):
    trees = tmp_path / "samples.nwk"
    base = (cohort / "tree.nwk").read_text()
    trees.write_text(base * 3)
    annotated = tmp_path / "annotated.nwk"
    assert main(["support", "--tree", str(cohort / "tree.nwk"),
                 "--samples", str(trees), "--out", str(annotated)]) == 0
    tree = parse_newick(annotated.read_text())
    internal = [n for n in tree.preorder() if not n.is_tip and n.parent is not None]
    assert internal and all(n.support == pytest.approx(1.0) for n in internal)

    consensus = tmp_path / "consensus.nwk"
    assert main(["consensus", "--samples", str(trees), "--out", str(consensus)]) == 0
    assert sorted(parse_newick(consensus.read_text()).tip_labels()) == sorted(
        tree.tip_labels()
    )


def test_full_scale_pipeline(tmp_path, capsys):
    """simulate at the large preset, cluster, score against planted."""
    d = tmp_path / "big"
    assert main(["simulate", "--preset", "paper-scale", "--seed", "1",
                 "--out-dir", str(d)]) == 0
    part = tmp_path / "part.csv"
    assert main(["cluster", "--method", "maxpatristic",
                 "--tree", str(d / "tree.nwk"), "--out", str(part)]) == 0
    rc = main(["ari", "--a", str(part), "--planted", str(d / "planted.csv")])
    assert rc == 0
    value = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert -1.0 <= value <= 1.0


def test_growth_command(cohort, tmp_path, capsys):
    out = tmp_path / "growth.tsv"
    svg = tmp_path / "growth.svg"
    rc = main(
        ["growth", "--partition", str(cohort / "planted.csv"),
         "--metadata", str(cohort / "metadata.csv"),
         "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("cluster_label\ttotal_size\t")
    breakdown = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sum(breakdown.values()) >= 0
    first = svg.read_bytes()
    main(
        ["growth", "--partition", str(cohort / "planted.csv"),
         "--metadata", str(cohort / "metadata.csv"),
         "--out", str(out), "--svg", str(svg)]
    )
    assert svg.read_bytes() == first


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_env_exits_two(cohort, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("PHYLOCLUST_THREADS", value)
    out = tmp_path / "dm.phy"
    rc = main(["dist", "--align", str(cohort / "alignment.fasta"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "PHYLOCLUST_THREADS" in err and "Traceback" not in err
    assert not out.exists()


def _cut_header(path):
    path.write_bytes(path.read_bytes()[:9])


def _drop_sidecar(path):
    Path(str(path) + ".ids").unlink()


@pytest.mark.parametrize("corrupt", [_cut_header, _drop_sidecar])
def test_malformed_binary_matrix_exits_one(cohort, tmp_path, capsys, corrupt):
    dm = tmp_path / "dm.bin"
    main(["dist", "--align", str(cohort / "alignment.fasta"), "--binary",
          "--out", str(dm)])
    corrupt(dm)
    rc = main(["cluster", "--method", "gap", "--matrix", str(dm),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "MalformedMatrix" in capsys.readouterr().err


def test_malformed_phylip_count_exits_one(cohort, tmp_path, capsys):
    dm = tmp_path / "dm.phy"
    dm.write_text("abc\na 0 1\nb 1 0\n")
    rc = main(["cluster", "--method", "gap", "--matrix", str(dm),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "MalformedMatrix" in capsys.readouterr().err


@pytest.fixture
def build_threads(monkeypatch):
    """The threads argument of every whole-matrix build from an alignment."""
    from phyloclust import cli, threshold

    calls = []
    real = threshold.build_distance_matrix

    def counted(*args, **kwargs):
        calls.append(kwargs.get("threads"))
        return real(*args, **kwargs)

    for module in (cli, threshold):
        monkeypatch.setattr(module, "build_distance_matrix", counted)
    return calls


def test_sweep_maxp_builds_one_matrix(cohort, tmp_path, build_threads):
    rc = main(
        ["--threads", "2", "sweep", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--ref", str(cohort / "planted.csv"),
         "--support-grid", "0.70,0.90",
         "--distance-grid", "0.03,0.045",
         "--out", str(tmp_path / "sweep.tsv")]
    )
    assert rc == 0
    assert build_threads == [2]


def test_mcmc_seeds_build_no_matrix(cohort, tmp_path, build_threads):
    """Each chain's start computes only the p-distances its clades need."""
    rc = main(
        ["--threads", "2", "cluster", "--method", "mcmc",
         "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--iterations", "300", "--burn-in", "100", "--thin", "100",
         "--seeds", "1,2", "--out", str(tmp_path / "mcmc.csv")]
    )
    assert rc == 0
    assert build_threads == []


def test_cluster_maxp_align_builds_no_matrix(cohort, tmp_path, build_threads):
    rc = main(
        ["--threads", "2", "cluster", "--method", "maxp",
         "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--out", str(tmp_path / "maxp.csv")]
    )
    assert rc == 0
    assert build_threads == []


def test_sweep_maxp_missing_sequence_exits_one(cohort, tmp_path, capsys):
    records = (cohort / "alignment.fasta").read_text().split(">")[2:]
    short = tmp_path / "short.fasta"
    short.write_text("".join(">" + r for r in records))
    rc = main(
        ["sweep", "--tree", str(cohort / "tree.nwk"), "--align", str(short),
         "--ref", str(cohort / "planted.csv"), "--out", str(tmp_path / "s.tsv")]
    )
    assert rc == 1
    assert "MissingSequence" in capsys.readouterr().err
