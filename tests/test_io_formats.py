"""Parsing and serialization of the four on-disk text formats."""

import numpy as np
import pytest

from phyloclust import (
    Alignment,
    CaseMetadata,
    Partition,
    Stage,
    fasta_string,
    metadata_string,
    newick_string,
    parse_fasta,
    parse_metadata,
    parse_newick,
    parse_newick_list,
    parse_partition,
    partition_string,
)
from phyloclust.errors import (
    BadDate,
    DuplicateId,
    DuplicateTipLabel,
    IllegalCharacter,
    NegativeBranchLength,
    RaggedAlignment,
    TrailingGarbage,
    UnbalancedParentheses,
)
from phyloclust.simulate import SimConfig, simulate_alignment, simulate_tree


def test_parse_fasta_minimal():
    aln = parse_fasta(">a\nACGT\n>b\nACGA\n")
    assert aln.n == 2
    assert aln.sites == 4
    assert aln.get("a").residues == "ACGT"


def test_parse_fasta_normalizes_case_and_u():
    aln = parse_fasta(">a\nacgu\n")
    assert aln.get("a").residues == "ACGT"


def test_parse_fasta_multiline_record():
    aln = parse_fasta(">a\nAC\nGT\n>b\nACGA\n")
    assert aln.get("a").residues == "ACGT"


def test_parse_fasta_ragged():
    with pytest.raises(RaggedAlignment):
        parse_fasta(">a\nAC\n>b\nACG\n")


def test_parse_fasta_duplicate_id():
    with pytest.raises(DuplicateId):
        parse_fasta(">a\nAC\n>a\nAC\n")


def test_parse_fasta_illegal_character():
    with pytest.raises(IllegalCharacter):
        parse_fasta(">a\nAC!T\n")
    # the first illegal residue after normalization, 1-based across lines
    with pytest.raises(IllegalCharacter) as err:
        parse_fasta(">a\nACGT\n>b\nacgu.\nnnXZ\n")
    assert (err.value.char, err.value.ident, err.value.site) == ("X", "b", 8)


def test_fasta_roundtrip_cohort_scale():
    """A full-size synthetic alignment survives parse/serialize unchanged."""
    cfg = SimConfig(cluster_sizes=(3707,), seq_length=918, rng_seed=42)
    tree, _ = simulate_tree(cfg)
    aln = simulate_alignment(tree, cfg)
    assert aln.n == 3707 and aln.sites == 918
    text = fasta_string(aln)
    again = parse_fasta(text)
    assert [r.id for r in again.records] == [r.id for r in aln.records]
    assert fasta_string(again) == text


def test_newick_support_rescaled_from_percent():
    tree = parse_newick("((a:0.1,b:0.2)90:0.05,c:0.3);")
    internal = [n for n in tree.preorder() if not n.is_tip and n.parent]
    assert len(internal) == 1
    assert internal[0].support == pytest.approx(0.90)


def test_newick_support_posterior_convention():
    tree = parse_newick("((a:0.1,b:0.2)1.0:0.05,c:0.3);")
    internal = [n for n in tree.preorder() if not n.is_tip and n.parent]
    assert internal[0].support == 1.0


def test_newick_unbalanced():
    with pytest.raises(UnbalancedParentheses):
        parse_newick("(a:0.1,b:0.2;")


def test_newick_trailing_garbage():
    with pytest.raises(TrailingGarbage):
        parse_newick("(a:0.1,b:0.2); junk")


def test_newick_duplicate_tip():
    with pytest.raises(DuplicateTipLabel):
        parse_newick("(a:0.1,a:0.2);")


def test_newick_negative_length():
    with pytest.raises(NegativeBranchLength):
        parse_newick("(a:-0.1,b:0.2);")


def test_newick_whitespace_insensitive():
    clean = parse_newick("((a:0.1,b:0.2)0.9:0.05,c:0.3);")
    spaced = parse_newick("( ( a:0.1 ,\n\tb:0.2 ) 0.9 : 0.05 , c:0.3 ) ;")
    assert newick_string(clean) == newick_string(spaced)


def test_newick_roundtrip_simulated():
    for seed in range(5):
        tree, _ = simulate_tree(SimConfig(cluster_sizes=(6, 4, 2), rng_seed=seed))
        text = newick_string(tree)
        assert newick_string(parse_newick(text)) == text


def test_newick_list():
    trees = parse_newick_list("(a:1,b:1);\n(a:2,b:2);\n")
    assert len(trees) == 2
    assert trees[1].tips()[0].length == 2.0


def test_metadata_row():
    rows = parse_metadata(
        "id,collection_date,stage,risk_group\ns1,2015-12-23,PHI,MSM\n"
    )
    assert rows[0].stage is Stage.PHI
    assert rows[0].collection_date.isoformat() == "2015-12-23"
    assert rows[0].risk_group == "MSM"


def test_metadata_stage_case_insensitive():
    rows = parse_metadata("id,collection_date,stage,risk_group\ns1,2015-01-01,phi,\n")
    assert rows[0].stage is Stage.PHI


def test_metadata_bad_date():
    with pytest.raises(BadDate):
        parse_metadata("id,collection_date,stage,risk_group\ns1,2015-13-01,PHI,\n")


def test_metadata_roundtrip():
    import datetime

    rows = [
        CaseMetadata("s1", datetime.date(2014, 2, 3), Stage.PHI, "MSM"),
        CaseMetadata("s2", datetime.date(2015, 6, 7), Stage.CHRONIC_TREATED, ""),
    ]
    assert parse_metadata(metadata_string(rows)) == rows


def test_partition_canonical_order():
    p = Partition.from_labels(["b", "a", "c"], ["1", "1", "2"])
    assert partition_string(p) == "id,label\na,1\nb,1\nc,2\n"


def test_partition_empty_is_header_only():
    assert partition_string(Partition.from_labels([], [])) == "id,label\n"


def test_partition_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 1001))
        ids = [f"t{i}" for i in range(n)]
        labels = [str(int(x)) for x in rng.integers(0, max(1, n // 3), n)]
        p = Partition.from_labels(ids, labels)
        q = parse_partition(partition_string(p))
        assert q.same_grouping(p)
        assert partition_string(q) == partition_string(p)


def test_partition_from_clusters_canonical_labels():
    p = Partition.from_clusters([["z", "y"], ["a"], ["m", "b"]])
    # groups are labelled 1..K by their smallest member
    assert p.label_of("a") == "1"
    assert p.label_of("b") == p.label_of("m") == "2"
    assert p.label_of("z") == p.label_of("y") == "3"


def test_alignment_subset_follows_request_order():
    aln = parse_fasta(">a\nAC\n>b\nAG\n>c\nAT\n")
    sub = aln.subset(["c", "a"])
    assert [r.id for r in sub.records] == ["c", "a"]
    assert sub.get("a").residues == "AC"
