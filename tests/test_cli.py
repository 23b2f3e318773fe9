"""End-to-end command coverage through the in-process entry point."""

import hashlib
import importlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
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

from conftest import condensed, dense
from test_community import dense_walktrap


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
    assert np.allclose(condensed(dm), condensed(direct), atol=1e-9, equal_nan=True)
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
    assert condensed(dm).tobytes() == condensed(direct).tobytes()
    assert (tmp_path / "dm.bin.ids").exists()


@pytest.mark.parametrize("cap", ["nan", "-1", "-inf", "0", "inf"])
def test_dist_cap_must_be_a_distance(tmp_path, capsys, cap):
    """A NaN or negative --cap is a usage error that writes nothing; 0 and
    inf are distances, and replace the undefined pair."""
    aln = tmp_path / "a.fasta"
    aln.write_text(">a\nACGT\n>b\nACGA\n>c\nNNNN\n")
    out = tmp_path / "out" / "dm.bin"
    out.parent.mkdir()
    rc = main(["dist", "--align", str(aln), "--kind", "k80", "--binary",
               f"--cap={cap}", "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if float(cap) >= 0:
        assert rc == 0
        values = condensed(read_matrix_binary(out, MatrixKind.K80))
        assert values[1:].tolist() == [float(cap)] * 2
    else:
        assert rc == 2
        assert err.startswith("usage error:") and "--cap" in err.splitlines()[0]
        assert not any(out.parent.iterdir())


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


def test_usage_errors_exit_two(cohort, chain, tmp_path, capsys):
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
    # ari scores --a against exactly one of --b and --ref
    planted = str(cohort / "planted.csv")
    for extra in ([], ["--b", planted, "--ref", planted]):
        assert main(["ari", "--a", planted, *extra, "--out", str(out)]) == 2
    # the patristic methods sum path lengths from the tree, so even a
    # well-formed matrix is a usage error
    p_bin = tmp_path / "p.bin"
    assert main(["dist", "--align", str(cohort / "alignment.fasta"), "--binary",
                 "--out", str(p_bin)]) == 0
    for method in ("medianpatristic", "maxpatristic"):
        assert main(
            ["cluster", "--method", method, "--tree", str(cohort / "tree.nwk"),
             "--matrix", str(p_bin), "--out", str(out)]
        ) == 2
    assert not out.exists()

    # flag values that a config object, a date or a grid rejects
    bad = tmp_path / "bad"
    bad.mkdir()
    tree, aln = str(cohort / "tree.nwk"), str(cohort / "alignment.fasta")
    planted, meta = str(cohort / "planted.csv"), str(cohort / "metadata.csv")
    cluster = ["cluster", "--tree", tree, "--align", aln, "--out", str(bad / "c.csv")]
    mcmc = cluster + ["--method", "mcmc", "--chain-dir", str(bad / "chain")]
    sweep = ["sweep", "--tree", tree, "--align", aln, "--ref", planted,
             "--out", str(bad / "s.tsv")]
    growth = ["growth", "--partition", planted, "--metadata", meta,
              "--svg", str(bad / "g.svg"), "--out", str(bad / "g.tsv")]
    simulate = ["simulate", "--out-dir", str(bad / "sim")]
    chain_config = tmp_path / "chain.json"
    chain_config.write_text(json.dumps({"chain_dir": str(bad / "chain")}))
    for argv in (
        cluster + ["--method", "maxp", "--distance-max", "0"],
        cluster + ["--method", "maxp", "--distance-max", "nan"],
        cluster + ["--method", "maxpatristic", "--support-min", "1.5"],
        cluster + ["--method", "gap", "--gap-quantile", "0"],
        mcmc + ["--iterations", "10", "--burn-in", "20"],
        mcmc + ["--thin", "0"],
        mcmc + ["--iterations", "20", "--burn-in", "-3", "--thin", "5"],
        mcmc + ["--iterations", "0", "--burn-in", "-1"],
        mcmc + ["--seed", "-1"],
        mcmc + ["--seeds=-2,1"],
        # an empty --seeds, and flags their method does not read
        mcmc + ["--seeds", ""],
        cluster + ["--method", "maxp", "--seeds", ""],
        cluster + ["--method", "maxp", "--chain-dir", str(bad / "chain")],
        mcmc + ["--matrix", str(bad / "p.bin")],
        # a config key supplies its flag, so the method refuses it alike
        ["--config", str(chain_config)] + cluster + ["--method", "maxp"],
        simulate,
        simulate + ["--preset", "demo", "--seed", "-1"],
        simulate + ["--cluster-sizes", "3,0"],
        simulate + ["--cluster-sizes", "3,x"],
        simulate + ["--preset", "demo", "--seq-length", "0"],
        sweep + ["--support-grid", "x"],
        sweep + ["--distance-grid", "0"],
        sweep + ["--method", "maxpatristic", "--support-grid", "0.9,1.5"],
        ["linkage", "--chain-dir", str(chain), "--walk-length", "0",
         "--out", str(bad / "l.csv")],
        growth + ["--window-start", "2020-01-01"],
        growth + ["--window-start", "bogus"],
        growth + ["--top-k", "-1"],
        growth + ["--top-k", "0"],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err, argv
        assert not any(bad.iterdir()), argv


_NAMED_FLAGS = [
    ("--seed", "simulate --preset demo --seed -1"),
    ("--cluster-sizes", "simulate --cluster-sizes 3,x"),
] + [
    # non-finite means and stems once wrote `:inf` edges that load_newick
    # rejects, and a non-finite kappa a transversion on every branch
    (flag, f"simulate --cluster-sizes 3,3 {flag} {value}")
    for flag, value in (("--between-mean", "inf"), ("--stem-min", "nan"),
                        ("--kappa", "inf"))
] + [
    ("--burn-in", "cluster --method mcmc --tree {d}/tree.nwk"
     " --align {d}/alignment.fasta --iterations 20 --burn-in -3 --thin 5"),
    ("--seeds", "cluster --method mcmc --tree {d}/tree.nwk"
     " --align {d}/alignment.fasta --seeds=-2,1"),
    ("--gap-quantile", "cluster --method gap --align {d}/alignment.fasta"
     " --gap-quantile 0"),
    # a flag its method does not read is a usage error
    ("--chain-dir", "cluster --method maxp --tree {d}/tree.nwk"
     " --align {d}/alignment.fasta --chain-dir nochain"),
    ("--matrix", "cluster --method mcmc --tree {d}/tree.nwk"
     " --align {d}/alignment.fasta --matrix {d}/p.bin"),
    ("--support-min", "cluster --method maxpatristic --tree {d}/tree.nwk"
     " --support-min 1.5"),
    ("--distance-grid", "sweep --tree {d}/tree.nwk --align {d}/alignment.fasta"
     " --ref {d}/planted.csv --distance-grid 0,0.1"),
    ("--support-grid", "sweep --tree {d}/tree.nwk --align {d}/alignment.fasta"
     " --ref {d}/planted.csv --support-grid x"),
] + [
    (flag, "growth --partition {d}/planted.csv --metadata {d}/metadata.csv"
     f" {flag} bogus")
    for flag in ("--window-start", "--phi-start", "--window-end")
]


@pytest.mark.parametrize("named, flags", _NAMED_FLAGS, ids=[n for n, _ in _NAMED_FLAGS])
def test_usage_error_names_the_flag(cohort, tmp_path, capsys, named, flags):
    out = ["--out-dir" if flags.startswith("simulate") else "--out", str(tmp_path / "o")]
    assert main(flags.format(d=cohort).split() + out) == 2
    err = capsys.readouterr().err
    message = err.splitlines()[0]
    assert message.startswith("usage error:") and named in message, message
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_refused_flag_says_it_came_from_config(cohort, tmp_path, capsys):
    """A refused cluster flag that the config file supplied is named as
    coming from --config; one given on the command line is not."""
    config = tmp_path / "pipeline.json"
    config.write_text(json.dumps({"chain_dir": str(tmp_path / "chain")}))
    cluster = ["cluster", "--method", "maxpatristic", "--tree",
               str(cohort / "tree.nwk"), "--out", str(tmp_path / "c.csv")]
    for argv, named in (
        (["--config", str(config)] + cluster, "--chain-dir (from --config)"),
        (["--config", str(config)] + cluster + ["--chain-dir", "other"], "--chain-dir"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        message = capsys.readouterr().err.splitlines()[0]
        assert message == f"usage error: {named} applies only to --method mcmc"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["pipeline.json"]


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


def test_ari_empty_label_is_data_error(tmp_path, capsys):
    """Rows with an empty label once all read as label "" and co-clustered:
    ari printed -0.5 and exited 0."""
    a = _write(tmp_path / "a.csv", "id,label\na,\nb,\nc,1\n")
    b = _write(tmp_path / "b.csv", "id,label\na,1\nb,2\nc,1\n")
    assert main(["ari", "--a", str(a), "--b", str(b)]) == 1
    captured = capsys.readouterr()
    assert "MalformedRow" in captured.err and "row 1: empty label" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "reader", ["tree", "fasta", "partition", "metadata", "phylip", "ids"]
)
def test_non_utf8_input_exits_one(tmp_path, capsys, reader):
    """A byte that is not UTF-8 in any text input is a data error that
    names the file, not a UnicodeDecodeError traceback."""
    good = {
        "tree": "(a:1,b:1);\n",
        "fasta": ">a\nAC\n>b\nAG\n",
        "partition": "id,label\na,1\nb,2\n",
        "metadata": "id,collection_date,stage,risk_group\na,2013-01-01,PHI,MSM\n",
        "phylip": "2\na 0 0.5\nb 0.5 0\n",
    }
    bad = tmp_path / f"bad.{reader}"
    out = str(tmp_path / "o.csv")
    if reader == "ids":
        main(["dist", "--align", str(_write(tmp_path / "a.fa", good["fasta"])),
              "--binary", "--out", str(tmp_path / "p.bin")])
        bad = tmp_path / "p.bin.ids"
        bad.write_bytes(b"a\n\xff\n")
        capsys.readouterr()
    else:
        bad.write_bytes(good[reader].encode() + b"\xff\n")
    part = str(_write(tmp_path / "part.csv", good["partition"]))
    argv = {
        "tree": ["cluster", "--method", "maxpatristic", "--tree", str(bad), "--out", out],
        "fasta": ["dist", "--align", str(bad), "--out", out],
        "partition": ["ari", "--a", str(bad), "--b", part],
        "metadata": ["growth", "--partition", part, "--metadata", str(bad), "--out", out],
        "phylip": ["cluster", "--method", "gap", "--matrix", str(bad), "--out", out],
        "ids": ["cluster", "--method", "gap", "--matrix", str(tmp_path / "p.bin"),
                "--out", out],
    }[reader]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UndecodableText") and str(bad) in err
    assert "Traceback" not in err


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("length", ["nan", "inf", "1e400"])
def test_non_finite_branch_length_exits_one(tmp_path, capsys, length):
    bad = tmp_path / "bad.nwk"
    bad.write_text(f"((a:{length},b:1):1,c:1);\n")
    rc = main(
        ["cluster", "--method", "maxpatristic", "--tree", str(bad),
         "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad branch length" in err and "Traceback" not in err


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


@pytest.mark.parametrize(
    "payload",
    [[0.5, 0.95], {"func": 1}, {"distance_maxx": 0.3}, {"command": "dist"}],
)
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


_BAD_CONFIG_VALUES = [
    ({"seeds": [1, 2]}, ["cluster", "--method", "mcmc", "--tree", "{d}/tree.nwk",
                         "--align", "{d}/alignment.fasta"]),
    ({"support_grid": [0.7]}, ["sweep", "--tree", "{d}/tree.nwk",
                               "--ref", "{d}/planted.csv", "--method", "maxpatristic"]),
    ({"cluster_sizes": [3, 3]}, ["simulate"]),
    ({"gap_quantile": None}, ["cluster", "--method", "gap", "--align", "{d}/alignment.fasta"]),
    ({"top_k": 2.5}, ["growth", "--partition", "{d}/planted.csv",
                      "--metadata", "{d}/metadata.csv"]),
    ({"window_start": 5}, ["growth", "--partition", "{d}/planted.csv",
                           "--metadata", "{d}/metadata.csv"]),
    ({"seed": 1.5}, ["simulate", "--cluster-sizes", "3,3"]),
    ({"kind": "bogus"}, ["dist", "--align", "{d}/alignment.fasta"]),
    ({"binary": "no"}, ["dist", "--align", "{d}/alignment.fasta"]),
    ({"threads": True}, ["dist", "--align", "{d}/alignment.fasta"]),
    # sweep's --method takes no "gap", though cluster's does
    ({"method": "gap"}, ["sweep", "--tree", "{d}/tree.nwk", "--ref", "{d}/planted.csv"]),
    ({"partitions": "{d}/planted.csv"}, ["compare", "--partitions", "{d}/planted.csv"]),
]


@pytest.mark.parametrize(
    "config, argv", _BAD_CONFIG_VALUES, ids=[json.dumps(c) for c, _ in _BAD_CONFIG_VALUES]
)
def test_config_value_its_flag_rejects_exits_one(cohort, tmp_path, capsys, config, argv):
    """A --config value that its flag's parsing rejects, or of the wrong
    JSON type for the flag, exits 1 naming its key, before anything runs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config).replace("{d}", str(cohort)))
    out = tmp_path / "out"
    target = ["--out-dir" if argv[0] == "simulate" else "--out", str(out)]
    rc = main(["--config", str(cfg)] + [a.replace("{d}", str(cohort)) for a in argv] + target)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad config file: {next(iter(config))!r}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, flags, argv",
    [
        ({"threads": 1, "kind": "k80", "binary": True, "cap": 1},
         ["--threads", "1", "dist", "--kind", "k80", "--binary", "--cap", "1"],
         ["dist", "--align", "{d}/alignment.fasta", "--out", "{out}"]),
        ({"support_min": "0.5", "distance_max": 0.1},
         ["cluster", "--support-min", "0.5", "--distance-max", "0.1"],
         ["cluster", "--method", "maxpatristic", "--tree", "{d}/tree.nwk",
          "--out", "{out}"]),
        # a config value supplies a flag that the command requires
        ({"out": "{out}"}, ["cluster", "--out", "{out}"],
         ["cluster", "--method", "maxpatristic", "--tree", "{d}/tree.nwk"]),
        ({"method": "maxpatristic"}, ["cluster", "--method", "maxpatristic"],
         ["cluster", "--tree", "{d}/tree.nwk", "--out", "{out}"]),
    ],
)
def test_config_run_matches_its_flags(cohort, tmp_path, config, flags, argv):
    """A valid config writes the output and the manifest flags that the
    same values given as flags do."""
    out = tmp_path / "out"

    def fill(text):
        return text.replace("{d}", str(cohort)).replace("{out}", str(out))

    cfg = tmp_path / "cfg.json"
    cfg.write_text(fill(json.dumps(config)))
    argv, flags = [fill(a) for a in argv], [fill(f) for f in flags]
    runs = []
    for run in (["--config", str(cfg)] + argv, flags + argv[1:]):
        assert main(run) == 0
        manifest = json.loads(out.with_name("out.manifest.json").read_text())
        runs.append((out.read_bytes(), {**manifest["flags"], "config": None}))
    assert runs[0] == runs[1]


def test_child_process_malformed_input_exits_one_or_two(cohort, tmp_path):
    """`python -m phyloclust` on malformed input, one child process per
    case, exits 1 or 2 and prints no traceback."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    tree, aln = str(cohort / "tree.nwk"), str(cohort / "alignment.fasta")
    bad_tree = _write(tmp_path / "bad.nwk", "((a:1,b:inf),c:1);\n")
    bad_fasta = _write(tmp_path / "bad.fasta", ">a\nACGT\n>b\nAC\n")
    bad_phylip = _write(tmp_path / "bad.phy", "2\na 0 x\nb 1 0\n")
    bad_part = _write(tmp_path / "bad.csv", "id,label\na,\nb,1\n")
    unknown_key = _write(tmp_path / "key.json", json.dumps({"distance_maxx": 0.3}))
    out = str(tmp_path / "out" / "o")
    cases = [
        ["simulate", "--cluster-sizes", "3,3", "--stem-min", "inf", "--out-dir", out],
        ["simulate", "--cluster-sizes", "3,3", "--kappa", "nan", "--out-dir", out],
        ["--config", str(unknown_key), "cluster", "--method", "maxp",
         "--tree", tree, "--align", aln, "--out", out],
        ["cluster", "--method", "maxpatristic", "--tree", str(bad_tree), "--out", out],
        ["cluster", "--method", "gap", "--matrix", str(bad_phylip), "--out", out],
        ["dist", "--align", str(bad_fasta), "--out", out],
        ["dist", "--align", aln, "--cap", "nan", "--out", out],
        ["ari", "--a", str(bad_part), "--b", str(bad_part)],
        ["growth", "--partition", str(bad_part), "--metadata", str(bad_part),
         "--window-start", "bogus", "--out", out],
        ["linkage", "--chain-dir", str(tmp_path / "no-chain"), "--out", out],
        ["cluster", "--method", "maxp", "--frobnicate", "1", "--out", out],
    ]
    for argv in cases:
        run = subprocess.run(
            [sys.executable, "-m", "phyloclust", *argv],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode in (1, 2), (argv, run.returncode, run.stderr)
        assert "Traceback" not in run.stderr, argv
    assert not (tmp_path / "out").exists()


def fresh_python(code, *args):
    """Standard output of `code` run in a new interpreter on these sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    probe = (
        "import sys, phyloclust.cli; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert fresh_python(probe) == "False"


def test_distance_import_loads_no_pool_module():
    probe = (
        "import sys, phyloclust.distance; "
        "print([m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')])"
    )
    assert fresh_python(probe) == "[]"


def test_dist_failing_worker_process_exits_one(tmp_path):
    """dist --threads 2 whose forked worker raises exits 1 with one error
    line naming the worker's error, no traceback and no output file."""
    fasta = tmp_path / "a.fasta"
    fasta.write_text(">a\nACGT\n>b\nACGA\n>c\nAGGA\n>d\nTTGA\n")
    out = tmp_path / "d.phy"
    code = (
        "import os, sys\n"
        "from phyloclust import distance\n"
        "from phyloclust.cli import main\n"
        "real = distance._fill_rows\n"
        "def fill(planes, rows, *rest):\n"
        "    if rows.start == 1:\n"
        "        raise RuntimeError('boom')\n"
        "    return real(planes, rows, *rest)\n"
        "distance._fill_rows = fill\n"
        "os.cpu_count = lambda: 2\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, "--threads", "2", "dist",
         "--align", str(fasta), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: distance worker failed: RuntimeError: boom\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_package_import_loads_no_submodule():
    probe = (
        "import sys, phyloclust; "
        "print([m for m in sys.modules if m.startswith('phyloclust.')])"
    )
    assert fresh_python(probe) == "[]"


def test_public_names_are_their_modules_own():
    import phyloclust

    for name in phyloclust.__all__:
        obj = getattr(phyloclust, name)
        assert obj.__module__.startswith("phyloclust."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_bench_traced_names_resolve(monkeypatch):
    """Every library name the traced bench run wraps or reads exists."""
    import dataclasses

    from phyloclust.mcmc import ChainSummary

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    replay = importlib.import_module("replay")
    for owner, attr, *_ in replay._TRACED:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
    fields = {f.name for f in dataclasses.fields(ChainSummary)}
    assert "retained_samples" in fields


_COMMAND_PROBE = """
import json, sys
from phyloclust.cli import main

watched = set(json.loads(sys.argv[2]))
loaded = []
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    loaded.append([argv[0], sorted(watched & set(sys.modules))])
print(json.dumps(loaded))
"""


def test_commands_import_only_what_they_run(cohort, tmp_path):
    """ari, growth, support and consensus load no numpy; no command loads
    scipy.  Commands run in this order in one new interpreter, so what is
    loaded after a command was loaded by it or by one before it."""
    tree, align = str(cohort / "tree.nwk"), str(cohort / "alignment.fasta")
    planted = str(cohort / "planted.csv")
    samples = tmp_path / "samples.nwk"
    samples.write_text((cohort / "tree.nwk").read_text() * 2)
    out = lambda name: str(tmp_path / name)  # noqa: E731
    text_only = [
        ["ari", "--a", planted, "--b", planted],
        ["growth", "--partition", planted, "--metadata", str(cohort / "metadata.csv"),
         "--out", out("growth.tsv")],
        ["support", "--tree", tree, "--samples", str(samples), "--out", out("s.nwk")],
        ["consensus", "--samples", str(samples), "--out", out("c.nwk")],
    ]
    rest = [
        ["dist", "--align", align, "--binary", "--out", out("p.bin")],
        ["cluster", "--method", "maxp", "--tree", tree, "--matrix", out("p.bin"),
         "--out", out("maxp.csv")],
        ["cluster", "--method", "gap", "--matrix", out("p.bin"),
         "--out", out("gap.csv")],
        ["cluster", "--method", "mcmc", "--tree", tree, "--align", align,
         "--iterations", "300", "--burn-in", "100", "--thin", "100",
         "--chain-dir", out("chain"), "--out", out("mcmc.csv")],
        ["linkage", "--chain-dir", out("chain"), "--out", out("linkage.csv")],
        ["sweep", "--tree", tree, "--ref", planted, "--method", "maxpatristic",
         "--out", out("sweep.tsv")],
        ["compare", "--partitions", out("maxp.csv"), out("gap.csv"), planted,
         "--out", out("cocluster.bin")],
        ["simulate", "--cluster-sizes", "3,2", "--seed", "1", "--out-dir", out("sim")],
    ]
    commands = json.dumps(text_only + rest)
    printed = fresh_python(_COMMAND_PROBE, commands, '["numpy", "scipy"]')
    loaded = json.loads(printed.splitlines()[-1])
    assert [name for name, _ in loaded] == [argv[0] for argv in text_only + rest]
    expect = [[]] * len(text_only) + [["numpy"]] * len(rest)
    assert [modules for _, modules in loaded] == expect


def test_chain_leaves_walktrap_unloaded(cohort, tmp_path):
    """cluster --method mcmc runs no walktrap, so it does not load
    phyloclust.community; linkage on its chain does."""
    chain, out = str(tmp_path / "chain"), str(tmp_path / "out.csv")
    mcmc = ["cluster", "--method", "mcmc", "--tree", str(cohort / "tree.nwk"),
            "--align", str(cohort / "alignment.fasta"), "--iterations", "300",
            "--burn-in", "100", "--thin", "100", "--chain-dir", chain, "--out", out]
    commands = json.dumps([mcmc, ["linkage", "--chain-dir", chain, "--out", out]])
    printed = fresh_python(_COMMAND_PROBE, commands, '["phyloclust.community"]')
    assert json.loads(printed.splitlines()[-1]) == [
        ["cluster", []], ["linkage", ["phyloclust.community"]]]


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


@pytest.fixture(scope="module")
def chain(cohort, tmp_path_factory):
    """A chain directory of the shared cohort."""
    d = tmp_path_factory.mktemp("chain")
    rc = main(
        ["cluster", "--method", "mcmc", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--iterations", "3000", "--burn-in", "500", "--thin", "10",
         "--chain-dir", str(d / "chain"), "--out", str(d / "m.csv")]
    )
    assert rc == 0
    return d / "chain"


def test_linkage_command(cohort, chain, tmp_path):
    out = tmp_path / "linkage.csv"
    assert main(["linkage", "--chain-dir", str(chain), "--out", str(out)]) == 0
    part = load_partition(out)
    tree = parse_newick((cohort / "tree.nwk").read_text())
    assert sorted(part.ids()) == sorted(tree.tip_labels())
    cocluster = read_matrix_binary(chain / "cocluster.bin", MatrixKind.COCLUSTER)
    assert np.count_nonzero(condensed(cocluster)) > 0  # the graph has edges
    assert part.same_grouping(dense_walktrap(dense(cocluster), cocluster.ids))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d[:21] + struct.pack("<d", -0.5) + d[29:], "non-negative"),
        (lambda d: d[:-8] + struct.pack("<d", float("nan")), "non-negative"),
        (lambda d: d[:-3], "value bytes"),
        (lambda d: b"PK\x03\x04" + d[4:], "not a distance-matrix file"),
    ],
    ids=["negative", "nan", "truncated", "foreign"],
)
def test_linkage_bad_cocluster_is_data_error(chain, tmp_path, capsys, edit, message):
    bad = tmp_path / "chain"
    shutil.copytree(chain, bad)
    data = (bad / "cocluster.bin").read_bytes()
    (bad / "cocluster.bin").write_bytes(edit(data))
    out = tmp_path / "linkage.csv"
    assert main(["linkage", "--chain-dir", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "MalformedMatrix" in err and message in err and "Traceback" not in err
    assert not out.exists()


# each command's run: its arguments over the cohort {d}, the chain {c} and
# the run's own directory {o}; the manifest it writes there, or None; the
# files the manifest digests; and the seeds it records
_RECORDS = {
    "dist": ("dist --align {d}/alignment.fasta --binary --out {o}/p.bin",
             "p.bin.manifest.json", ["{d}/alignment.fasta"], []),
    "cluster-gap": ("cluster --method gap --align {d}/alignment.fasta --out {o}/g.csv",
                    "g.csv.manifest.json", ["{d}/alignment.fasta"], []),
    "cluster-maxp": (
        "cluster --method maxp --tree {d}/tree.nwk --align {d}/alignment.fasta"
        " --out {o}/m.csv",
        "m.csv.manifest.json", ["{d}/tree.nwk", "{d}/alignment.fasta"], []),
    "cluster-mcmc": (
        "cluster --method mcmc --tree {d}/tree.nwk --align {d}/alignment.fasta"
        " --iterations 300 --burn-in 100 --thin 100 --seeds 3,4 --out {o}/c.csv",
        "c.csv.manifest.json", ["{d}/tree.nwk", "{d}/alignment.fasta"], [3, 4]),
    "support": ("support --tree {d}/tree.nwk --samples {o}/t.nwk --out {o}/s.nwk",
                "s.nwk.manifest.json", ["{d}/tree.nwk", "{o}/t.nwk"], []),
    "consensus": ("consensus --samples {o}/t.nwk --out {o}/c.nwk",
                  "c.nwk.manifest.json", ["{o}/t.nwk"], []),
    "sweep": (
        "sweep --tree {d}/tree.nwk --align {d}/alignment.fasta --ref {d}/planted.csv"
        " --support-grid 0.9 --distance-grid 0.045 --out {o}/s.tsv",
        "s.tsv.manifest.json",
        ["{d}/tree.nwk", "{d}/alignment.fasta", "{d}/planted.csv"], []),
    "ari": ("ari --a {d}/planted.csv --b {o}/t.csv --out {o}/a.txt",
            "a.txt.manifest.json", ["{d}/planted.csv", "{o}/t.csv"], []),
    "ari-ref": ("ari --a {d}/planted.csv --ref {o}/r.csv --out {o}/a.txt",
                "a.txt.manifest.json", ["{d}/planted.csv", "{o}/r.csv"], []),
    "ari-printed": ("ari --a {d}/planted.csv --b {o}/t.csv", None, [], []),
    "compare": ("compare --partitions {d}/planted.csv {o}/t.csv --out {o}/c.bin",
                "c.bin.manifest.json", ["{d}/planted.csv", "{o}/t.csv"], []),
    "linkage": ("linkage --chain-dir {c} --out {o}/l.csv",
                "l.csv.manifest.json", ["{c}/cocluster.bin"], []),
    "growth": (
        "growth --partition {d}/planted.csv --metadata {d}/metadata.csv"
        " --out {o}/g.tsv",
        "g.tsv.manifest.json", ["{d}/planted.csv", "{d}/metadata.csv"], []),
    "simulate": ("simulate --cluster-sizes 3,2 --seed 5 --out-dir {o}/sim",
                 "sim/manifest.json", [], [5]),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_every_command_records_its_run(cohort, chain, tmp_path, name):
    """Every command that writes a file writes one manifest beside it, with
    its subcommand, a digest of each file it read, its seeds and its
    duration; ari without --out writes no manifest."""
    argv, manifest, inputs, seeds = _RECORDS[name]

    def fill(text):
        return text.format(d=cohort, c=chain, o=tmp_path)

    (tmp_path / "t.nwk").write_text((cohort / "tree.nwk").read_text() * 2)
    for partition in ("t.csv", "r.csv"):
        (tmp_path / partition).write_text((cohort / "planted.csv").read_text())
    assert main(fill(argv).split()) == 0
    written = [p.relative_to(tmp_path) for p in tmp_path.rglob("*manifest.json")]
    assert written == ([Path(manifest)] if manifest else [])
    if manifest:
        record = json.loads((tmp_path / manifest).read_text())
        assert record["subcommand"] == argv.split()[0]
        assert sorted(record["inputs"]) == sorted(fill(p) for p in inputs)
        assert record["seeds"] == seeds
        assert record["duration_seconds"] >= 0


@pytest.fixture(scope="module")
def big_cohort(tmp_path_factory):
    """A 1,000-sequence cohort with its p-matrix in both formats and a
    short chain."""
    d = tmp_path_factory.mktemp("big")
    sizes = ",".join(["10"] * 20 + ["3"] * 100 + ["1"] * 500)
    assert main(["simulate", "--cluster-sizes", sizes, "--seq-length", "200",
                 "--seed", "3", "--out-dir", str(d)]) == 0
    aln = str(d / "alignment.fasta")
    assert main(["dist", "--align", aln, "--binary", "--out", str(d / "p.bin")]) == 0
    assert main(["dist", "--align", aln, "--out", str(d / "p.phy")]) == 0
    assert main(["cluster", "--method", "mcmc", "--tree", str(d / "tree.nwk"),
                 "--align", aln, "--iterations", "400", "--burn-in", "200",
                 "--thin", "20", "--seed", "1", "--chain-dir", str(d / "chain"),
                 "--out", str(d / "mcmc.csv")]) == 0
    return d


# each matrix command, and the bytes per n² it may hold: under the n×n
# square's 8, of which the condensed triangle takes 4.  Every matrix
# lives in a file, which max-p reads in blocks and gap and the phylip
# writer in strips, and compare writes its triangle a row at a time, so
# these commands stay under 4 on top of what they hold.  A build holds
# the alignment, its bit-planes, and per worker one kernel scratch and
# one run of about a row's values, so the builds, run on two workers,
# stay under 2.5.  A phylip read writes each row to its file as it reads
# it, so it holds what a .bin read holds.  The patristic commands sum
# path lengths from the tree and stay under the triangle itself.
_MATRIX_COMMANDS = {
    "gap-bin": ("cluster --method gap --matrix {d}/p.bin", 3),
    "gap-phy": ("cluster --method gap --matrix {d}/p.phy", 3),
    "maxp-bin": ("cluster --method maxp --tree {d}/tree.nwk --matrix {d}/p.bin", 3.5),
    "maxp-phy": ("cluster --method maxp --tree {d}/tree.nwk --matrix {d}/p.phy", 3.5),
    "medianpatristic": ("cluster --method medianpatristic --tree {d}/tree.nwk", 4),
    "maxpatristic": ("cluster --method maxpatristic --tree {d}/tree.nwk", 4),
    "sweep-medianpatristic": (
        "sweep --method medianpatristic --tree {d}/tree.nwk --ref {d}/planted.csv",
        4,
    ),
    "sweep-maxpatristic": (
        "sweep --method maxpatristic --tree {d}/tree.nwk --ref {d}/planted.csv",
        4,
    ),
    "sweep-maxp": (
        "sweep --tree {d}/tree.nwk --ref {d}/planted.csv --align {d}/alignment.fasta",
        8,
    ),
    "gap-align": ("--threads 2 cluster --method gap --align {d}/alignment.fasta", 2.5),
    "dist-phylip": ("--threads 2 dist --align {d}/alignment.fasta", 2.5),
    "dist-binary": ("--threads 2 dist --align {d}/alignment.fasta --binary", 2.5),
    "dist-binary-k80-cap": (
        "--threads 2 dist --align {d}/alignment.fasta --kind k80 --binary --cap 1.0",
        2.5,
    ),
    "compare": (
        "compare --partitions {d}/planted.csv {d}/mcmc.csv {d}/chain/map_partition.csv",
        2,
    ),
    "linkage": ("linkage --chain-dir {d}/chain", 8),
    "chain": (
        "cluster --method mcmc --tree {d}/tree.nwk --align {d}/alignment.fasta "
        "--iterations 400 --burn-in 200 --thin 20 --seed 1 --chain-dir {t}/chain",
        4,
    ),
}


@pytest.mark.parametrize("name", list(_MATRIX_COMMANDS))
def test_matrix_commands_build_no_square(big_cohort, tmp_path, name):
    """No matrix command materializes the n×n matrix: traced allocations
    peak below the bound, which one n×n float64 square on top of what the
    command holds would exceed.  The fixture has already loaded every
    module the commands import."""
    command, per_n2 = _MATRIX_COMMANDS[name]
    argv = command.format(d=big_cohort, t=tmp_path).split()
    argv += ["--out", str(tmp_path / "out")]
    n = 1000
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < per_n2 * n * n, (name, peak / (n * n))


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
    assert set(np.unique(condensed(dm))) <= {0.0, 0.5, 1.0}
    assert sorted(dm.ids) == sorted(load_partition(a).ids())


def test_compare_of_universal_singletons_is_empty(tmp_path):
    """compare keeps only ids that some partition groups, so when none is
    grouped its triangle is the header alone and its id sidecar is empty."""
    a = _write(tmp_path / "a.csv", "id,label\na,1\nb,2\nc,3\n")
    b = _write(tmp_path / "b.csv", "id,label\na,x\nb,y\nc,z\n")
    out = tmp_path / "c.bin"
    assert main(["compare", "--partitions", str(a), str(b), "--out", str(out)]) == 0
    assert out.read_bytes() == b"PCDM" + struct.pack("<BQ", 1, 0)
    assert (tmp_path / "c.bin.ids").read_text() == ""
    assert read_matrix_binary(out, MatrixKind.COCLUSTER).ids == []


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


def _thread_runs(cohort, tmp_path):
    """dist and cluster gap over the cohort and over a ragged FASTA: the
    thread setting is checked before the alignment is parsed."""
    ragged = tmp_path / "ragged.fasta"
    ragged.write_text(">a\nACGT\n>b\nACG\n")
    out = tmp_path / "out"
    for align in (cohort / "alignment.fasta", ragged):
        yield ["dist", "--align", str(align), "--out", str(out)], out
        yield ["cluster", "--method", "gap", "--align", str(align),
               "--out", str(out)], out


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_env_exits_two(cohort, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("PHYLOCLUST_THREADS", value)
    for argv, out in _thread_runs(cohort, tmp_path):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "PHYLOCLUST_THREADS" in err and "Traceback" not in err, argv
        assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bad_threads_flag_exits_two(cohort, tmp_path, capsys, value):
    for argv, out in _thread_runs(cohort, tmp_path):
        assert main(["--threads", value, *argv]) == 2, argv
        err = capsys.readouterr().err
        assert "--threads" in err and "Traceback" not in err, argv
        assert not out.exists()


def _cut_header(path):
    path.write_bytes(path.read_bytes()[:9])


def _cut_values(path):
    path.write_bytes(path.read_bytes()[:-8])


def _drop_sidecar(path):
    Path(str(path) + ".ids").unlink()


def _short_sidecar(path):
    ids = Path(str(path) + ".ids")
    ids.write_text("".join(ids.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("corrupt", [_cut_header, _cut_values, _drop_sidecar, _short_sidecar])
def test_malformed_binary_matrix_exits_one(cohort, tmp_path, capsys, corrupt):
    """A .bin file cut short or a missing or short sidecar stops both
    methods that read one, before any value is read."""
    dm = tmp_path / "dm.bin"
    main(["dist", "--align", str(cohort / "alignment.fasta"), "--binary",
          "--out", str(dm)])
    corrupt(dm)
    for method in (["gap"], ["maxp", "--tree", str(cohort / "tree.nwk")]):
        rc = main(["cluster", "--method", *method, "--matrix", str(dm),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "MalformedMatrix" in err and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()


def test_malformed_phylip_count_exits_one(cohort, tmp_path, capsys):
    dm = tmp_path / "dm.phy"
    dm.write_text("abc\na 0 1\nb 1 0\n")
    rc = main(["cluster", "--method", "gap", "--matrix", str(dm),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "MalformedMatrix" in capsys.readouterr().err


@pytest.fixture
def matrix_builds(monkeypatch):
    """The row items each worker of a whole p/K80 matrix build fills,
    however the caller imported build_distance_matrix."""
    from phyloclust import distance

    calls = []
    real = distance._fill_rows

    def counted(planes, rows, *rest):
        calls.append(rows)
        return real(planes, rows, *rest)

    monkeypatch.setattr(distance, "_fill_rows", counted)
    return calls


def test_sweep_maxp_builds_no_matrix(cohort, tmp_path, matrix_builds):
    """The grid's one pass reads only the p-distances its clades need."""
    rc = main(
        ["--threads", "2", "sweep", "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--ref", str(cohort / "planted.csv"),
         "--support-grid", "0.70,0.90",
         "--distance-grid", "0.03,0.045",
         "--out", str(tmp_path / "sweep.tsv")]
    )
    assert rc == 0
    assert matrix_builds == []


def test_sweep_maxp_without_align_exits_two(cohort, tmp_path, capsys):
    out = tmp_path / "s.tsv"
    rc = main(["sweep", "--tree", str(cohort / "tree.nwk"),
               "--ref", str(cohort / "planted.csv"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "usage error: --method maxp needs --align" in err
    assert not any(tmp_path.iterdir())


# four tips whose six pairs split three (0.01) and three (0.1) at every
# default cutoff, so that the clade's median must be computed
_STRADDLED = "((a:0.005,b:0.005,c:0.005,d:0.095)0.99:0.2,(e:0.01,f:0.01)0.99:0.2);"


@pytest.mark.parametrize("method", ["maxp", "maxpatristic", "medianpatristic"])
def test_sweep_prepares_each_pass_once(tmp_path, monkeypatch, method):
    """A 3 x 5 sweep makes one diameter pass over all five cutoffs,
    whatever the statistic, and computes a straddled median once."""
    from phyloclust import threshold

    (tmp_path / "tree.nwk").write_text(_STRADDLED)
    (tmp_path / "aln.fasta").write_text(
        "".join(f">{t}\n{'ACGT' * 25}\n" for t in "abcdef")
    )
    (tmp_path / "ref.csv").write_text("id,label\na,1\nb,1\nc,1\nd,1\ne,2\nf,2\n")
    passes, medians = [], []
    diameters, patristic = threshold._diameters, threshold.patristic_matrix
    monkeypatch.setattr(
        threshold, "_diameters", lambda *a: passes.append(list(a[4])) or diameters(*a)
    )
    monkeypatch.setattr(
        threshold, "patristic_matrix", lambda t: medians.append(t.root) or patristic(t)
    )
    rc = main(
        ["sweep", "--method", method, "--tree", str(tmp_path / "tree.nwk"),
         "--align", str(tmp_path / "aln.fasta"), "--ref", str(tmp_path / "ref.csv"),
         "--out", str(tmp_path / "s.tsv")]
    )
    assert rc == 0
    assert passes == [[0.015, 0.03, 0.045, 0.068, 0.077]]
    assert len(medians) == (1 if method == "medianpatristic" else 0)


def test_mcmc_seeds_build_no_matrix(cohort, tmp_path, matrix_builds):
    """Each chain's start computes only the p-distances its clades need."""
    rc = main(
        ["--threads", "2", "cluster", "--method", "mcmc",
         "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--iterations", "300", "--burn-in", "100", "--thin", "100",
         "--seeds", "1,2", "--out", str(tmp_path / "mcmc.csv")]
    )
    assert rc == 0
    assert matrix_builds == []


def test_cluster_maxp_align_builds_no_matrix(cohort, tmp_path, matrix_builds):
    rc = main(
        ["--threads", "2", "cluster", "--method", "maxp",
         "--tree", str(cohort / "tree.nwk"),
         "--align", str(cohort / "alignment.fasta"),
         "--out", str(tmp_path / "maxp.csv")]
    )
    assert rc == 0
    assert matrix_builds == []


@pytest.mark.parametrize("method", ["maxpatristic", "medianpatristic"])
def test_patristic_sweep_reads_no_alignment(cohort, tmp_path, monkeypatch, method):
    from phyloclust import io_formats

    aln = str(cohort / "alignment.fasta")
    argv = ["sweep", "--method", method, "--tree", str(cohort / "tree.nwk"),
            "--ref", str(cohort / "planted.csv"),
            "--support-grid", "0.70,0.90", "--distance-grid", "0.03,0.045"]
    plain, given = tmp_path / "plain.tsv", tmp_path / "given.tsv"
    assert main(argv + ["--out", str(plain)]) == 0

    def refuse(path):
        raise AssertionError(f"sweep --method {method} loaded {path}")

    monkeypatch.setattr(io_formats, "load_fasta", refuse)
    assert main(argv + ["--align", aln, "--out", str(given)]) == 0
    assert given.read_bytes() == plain.read_bytes()
    manifest = json.loads((tmp_path / "given.tsv.manifest.json").read_text())
    assert aln not in manifest["inputs"]


@pytest.mark.parametrize("method", ["maxpatristic", "medianpatristic"])
def test_patristic_without_tree_exits_two(cohort, tmp_path, capsys, method):
    out = tmp_path / "c.csv"
    rc = main(["cluster", "--method", method,
               "--align", str(cohort / "alignment.fasta"), "--out", str(out)])
    assert rc == 2
    assert f"--method {method} needs --tree" in capsys.readouterr().err
    assert not out.exists()


def test_maxp_matrix_missing_tip_exits_one(cohort, tmp_path, capsys):
    records = (cohort / "alignment.fasta").read_text().split(">")[1:]
    missing = records[0].split()[0]
    short, dm, out = tmp_path / "short.fasta", tmp_path / "dm.bin", tmp_path / "c.csv"
    short.write_text("".join(">" + r for r in records[1:]))
    assert main(["dist", "--align", str(short), "--binary", "--out", str(dm)]) == 0
    rc = main(["cluster", "--method", "maxp", "--tree", str(cohort / "tree.nwk"),
               "--matrix", str(dm), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"TipSetMismatch: matrix is missing tip {missing!r}" in err
    assert not out.exists()


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
