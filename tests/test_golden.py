"""Pinned sha256 digests of CLI outputs on the `acceptance` cohort, seed 0.

A refactor must leave these bytes alone.  A change that means to move an
output updates its digest here and says in CHANGES.md why it moved.
"""

import hashlib

import numpy as np
import pytest

from phyloclust import MatrixKind, newick_string, read_matrix_binary
from phyloclust.cli import _PRESETS, main
from phyloclust.simulate import SimConfig, simulate_tree

from conftest import dense

GOLDEN = {
    "maxp.csv": "c284d2495d2e11a4612af1088150be445010725e860c3934b0cdf1d822c1caa4",
    "gap.csv": "51f325fa8a2d5ba600d3cd6cd461455e4c691be53d4ed85917cbb6a0507b49e2",
    "medianpatristic.csv": "0f431ea5c6073f72d53a797c5502d6ef83c56b3b9dd573bc82650b0b1bfa1a49",
    "maxpatristic.csv": "ad47d5d65b104db8b5a557323f0320311ae710f25a7ecda726879a6bd229a67b",
    "sweep-maxp.tsv": "acf3dcff4b981b55c0e5a11ef5008f97eb80d998bff1cc55426679e786e61f3d",
    "sweep-maxpatristic.tsv": "162193278c482d5e25c43c52632e06e1cc56fe5dd2bf608d0b7f5bc9ed8c2a37",
    "sweep-medianpatristic.tsv": "7b8bec6f9b12fc7f4643013611646dccbe6de7539d1ea7f7bab41da68d715908",
    "chain/map_partition.csv": "72665d6980fd506889b38f045c64d334d789eae1bd620c859c1b372409f7bc2c",
    "chain/retained_samples.txt": "6048fd50b24e36a745aecb7a6660388eef8669a30de259471b536cea33aacd10",
    "chain/trace.tsv": "69649ef879e823cc1e2d66dc96ff1c221fe705f76324270fd28773cde1497dfd",
    "chain/summary.json": "dba9d74ef47f69270d1863eb322d6faec8c31466ef5984fc99275bac60457142",
    "chain/cocluster.bin": "37f110e3d8befdb8da7687415a5976dc91f97557b0887b2e390da0926bd76b42",
    "linkage.csv": "72665d6980fd506889b38f045c64d334d789eae1bd620c859c1b372409f7bc2c",
    "p.phy": "3dd3a8b229100a0789a0bc7d43ab37fc9be72055ac8823877f163519c59b8f8c",
    "k80.phy": "2f157ff6e116ce39d4cf27df75ba70beaf92dd91db80f6a053aff8c2905da12f",
    "p.bin": "174259ba4f6958f819c5147b7bdbf3448236b2b092d61366e69e48f8b094fe65",
    "p.bin.ids": "af4f2eea9a005cc73e8e70591548a337a3a7fa17cac8a24b6fcdccaeb0a9e8ab",
    "k80cap.bin": "2764f66758c51f1e095dda3db9dc231787780eee3e01a96d441e60b1cde91f12",
    "k80cap.bin.ids": "af4f2eea9a005cc73e8e70591548a337a3a7fa17cac8a24b6fcdccaeb0a9e8ab",
    "maxp-bin.csv": "c284d2495d2e11a4612af1088150be445010725e860c3934b0cdf1d822c1caa4",
    "gap-bin.csv": "51f325fa8a2d5ba600d3cd6cd461455e4c691be53d4ed85917cbb6a0507b49e2",
    "compare.bin": "b181b9cdc4a1aeec5e58e2893a00d24f4114c1c83cc5c939b74bc0a252b7d224",
    "compare.bin.ids": "eb370df1f458620eb9b43c167716ff7f9a2aeceeebd3e311e962f3b39ef0baf5",
    "support.nwk": "581684d32266cf1a2c045bf2dd83a57b50dbef93fc13f5cbc6a2165014fb1696",
    "consensus.nwk": "7a3ae9934f4402861fefc7dae8342b40291dc20b242c23cecfca8211b8bce4e9",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    c = d / "cohort"
    tree, align, planted = c / "tree.nwk", c / "alignment.fasta", c / "planted.csv"

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("simulate", "--preset", "acceptance", "--seed", 0, "--out-dir", c)
    # a tree sample over the cohort's ids at the sibling seeds 1..20
    sample = d / "sample.nwk"
    sizes = _PRESETS["acceptance"]["cluster_sizes"]
    sample.write_text("".join(
        newick_string(simulate_tree(SimConfig(cluster_sizes=sizes, rng_seed=s))[0])
        for s in range(1, 21)
    ))
    run("support", "--tree", tree, "--samples", sample, "--out", d / "support.nwk")
    run("consensus", "--samples", sample, "--out", d / "consensus.nwk")
    run("dist", "--align", align, "--out", d / "p.phy")
    run("dist", "--align", align, "--kind", "k80", "--out", d / "k80.phy")
    run("dist", "--align", align, "--binary", "--out", d / "p.bin")
    run("dist", "--align", align, "--kind", "k80", "--binary", "--cap", "1.0",
        "--out", d / "k80cap.bin")
    run("cluster", "--method", "maxp", "--tree", tree, "--matrix", d / "p.phy",
        "--out", d / "maxp.csv")
    run("cluster", "--method", "gap", "--matrix", d / "p.phy", "--out", d / "gap.csv")
    run("cluster", "--method", "maxp", "--tree", tree, "--matrix", d / "p.bin",
        "--out", d / "maxp-bin.csv")
    run("cluster", "--method", "gap", "--matrix", d / "p.bin", "--out", d / "gap-bin.csv")
    for method in ("medianpatristic", "maxpatristic"):
        run("cluster", "--method", method, "--tree", tree, "--out", d / f"{method}.csv")
    run("compare", "--partitions", d / "maxp.csv", d / "gap.csv",
        d / "medianpatristic.csv", "--out", d / "compare.bin")
    for method in ("maxp", "medianpatristic", "maxpatristic"):
        run("sweep", "--tree", tree, "--align", align, "--ref", planted,
            "--method", method, "--out", d / f"sweep-{method}.tsv")
    run("cluster", "--method", "mcmc", "--tree", tree, "--align", align,
        "--iterations", 3000, "--burn-in", 1000, "--thin", 500, "--seed", 0,
        "--chain-dir", d / "chain", "--out", d / "mcmc.csv")
    run("linkage", "--chain-dir", d / "chain", "--out", d / "linkage.csv")
    return d


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digest(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


# compare.bin with its ids sorted: the co-clustering fraction of every
# pair, whatever order compare writes the rows in
COMPARE_PAIRS = "50d417eedcba2b526a835e9c0391414c2124e5180e9e28e935d429dd4fc7884a"


def test_compare_pairs_keep_their_values(outputs):
    """Each pair's fraction is the one compare wrote when it ordered its
    rows by average linkage; only the order of the rows moved."""
    dm = read_matrix_binary(outputs / "compare.bin", MatrixKind.COCLUSTER)
    order = np.argsort(dm.ids)
    square = dense(dm)[np.ix_(order, order)]
    ids = "".join(f"{dm.ids[k]}\n" for k in order).encode()
    values = square[np.triu_indices(dm.n, k=1)].astype("<f8").tobytes()
    assert hashlib.sha256(ids + values).hexdigest() == COMPARE_PAIRS
