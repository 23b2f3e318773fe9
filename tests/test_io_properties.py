"""Property tests of the Newick, FASTA, partition, metadata and
distance-matrix readers.

Random edits of valid Newick, FASTA, partition, metadata and phylip
texts, and of binary matrix files and their id sidecars, must parse or
raise a DataError,
never another exception; the writers' output reads back to what was
written (for phylip, which keeps 10 significant digits, a second write
gives the first one's bytes); and a list of trees reads as its trees read
one at a time.
Every test is derandomized with a fixed example count, so a run is
repeatable.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phyloclust import newick_string, parse_newick, parse_newick_list
from phyloclust.cli import _PRESETS
from phyloclust.distance import (
    MatrixKind, read_matrix_binary, read_matrix_phylip,
    read_nonzero_pairs_binary, write_matrix_binary, write_matrix_phylip,
)
from phyloclust.errors import DataError
from phyloclust.io_formats import (
    CaseMetadata, Partition, Stage, fasta_string, metadata_string, parse_fasta,
    parse_metadata, parse_partition, partition_string,
)
from phyloclust.simulate import SimConfig, simulate_alignment, simulate_tree

from conftest import condensed, condensed_dm

VALID = (
    "((a:0.1,b:0.2)90:0.05,c:0.3);",
    "((a:0.1,b:0.2)1.0:0.05,(c:0.3,d:0)0.5:1e-3,e:2);",
    "(a,(b:1,c)x:2,((d,e)77,f:0.25)100);",
    "((t1:1.5,t2:0.5,t3:0.125)inner:0.5,(t4:1,t5:1)0:0);",
)

# the reserved characters, whitespace, and label and number characters
ALPHABET = "():,;" + " \n" + "abxt_" + "0123456789.-+eE"

VALID_FASTA = (
    ">a\nACGT\n>b\nAC-T\n",
    ">s1 first sample\nacgu\nnn\n\n>s2\nRYSW\nKM.-\n",
    ">x\n\nA\n>y\t2017\nN\n>z\nt\n",
)

# the header mark, whitespace, residues in both cases, gaps, and
# characters that are not residues
FASTA_ALPHABET = ">" + " \t\n\r" + "ACGTUNRYacgtun-." + "xz1?*"

VALID_PARTITION = ("id,label\na,1\nb,1\nc,2\n",
                   "ID , Label\n\ns1,c-1\ns2 , c,2\n", "id,label\nx,x\n")

# the delimiter, whitespace, id and label characters
PARTITION_ALPHABET = "," + " \t\n\r" + "abdeilx" + "12-_"

VALID_METADATA = (
    "id,collection_date,stage,risk_group\na,2017-03-01,PHI,MSM\n"
    "b,2016-12-31,chronic_untreated,MSM\n",
    "stage\tid\textra\tcollection_date\trisk_group\n"
    "UNKNOWN\ts1\t\t2015-01-02\t\nCHRONIC_TREATED\ts2\tz\t2014-06-30\tIDU\n",
)

# the delimiters, whitespace, quotes, digits and date dashes, and the
# letters of the column names and stage tokens
METADATA_ALPHABET = ",\t" + " \n\r" + '"' + "0123456789-" + "_acdehiknoprstuPHI"

VALID_PHYLIP = ("3\na  0 0.1 0.2\nb  0.1 0 nan\nc  0.2 nan 0\n",
                "2\ns1  0 1e-05\ns2  1e-05 0\n", "1\nx  0\n")

# number characters, the words nan and inf, id characters and whitespace
PHYLIP_ALPHABET = "0123456789.-+eE" + "naif" + "bsx" + " \t\n"

BYTES = [bytes([b]) for b in range(256)]


def fixed(max_examples):
    """The same examples on every run, and no example database on disk."""
    return settings(
        derandomize=True, database=None, deadline=None, max_examples=max_examples
    )


@st.composite
def mutants(draw, texts=st.sampled_from(VALID), alphabet=ALPHABET):
    """A valid text after one to four random insertions, deletions or
    substitutions of alphabet characters."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        if op == "insert":
            text = text[:k] + c + text[k:]
        elif op == "delete":
            text = text[:k] + text[k + 1 :]
        else:
            text = text[:k] + c + text[k + 1 :]
    return text


def _read_or_reject(parse, text):
    """parse(text), or None when it raises a DataError; any other
    exception fails the test."""
    try:
        return parse(text)
    except DataError:
        return None


@fixed(1500)
@given(mutants())
def test_mutated_tree_parses_or_raises_data_error(text):
    tree = _read_or_reject(parse_newick, text)
    if tree is not None:
        again = newick_string(tree)
        assert newick_string(parse_newick(again)) == again
    # the list reader takes a one-tree text exactly when parse_newick does
    trees = _read_or_reject(parse_newick_list, text)
    assert (tree is not None) == (trees is not None and len(trees) == 1)
    if tree is not None:
        assert newick_string(trees[0]) == newick_string(tree)


@fixed(500)
@given(mutants(st.lists(st.sampled_from(VALID), min_size=2, max_size=3).map("\n".join)))
def test_mutated_tree_list_parses_or_raises_data_error(text):
    _read_or_reject(parse_newick_list, text)
    _read_or_reject(parse_newick, text)


@fixed(12)
@given(st.sampled_from(("demo", "acceptance")), st.integers(0, 2**16))
def test_simulated_tree_round_trips_byte_for_byte(preset, seed):
    sizes = _PRESETS[preset]["cluster_sizes"]
    tree, _ = simulate_tree(SimConfig(cluster_sizes=sizes, rng_seed=seed))
    text = newick_string(tree)
    assert newick_string(parse_newick(text)) == text


@fixed(40)
@given(
    st.lists(st.sampled_from(VALID) | st.integers(0, 2**16), min_size=1, max_size=5),
    st.sampled_from(("", "\n", " \n\t")),
)
def test_tree_list_reads_as_its_trees(sources, sep):
    texts = [
        s if isinstance(s, str)
        else newick_string(simulate_tree(SimConfig(
            cluster_sizes=_PRESETS["demo"]["cluster_sizes"], rng_seed=s))[0])
        for s in sources
    ]
    trees = parse_newick_list(sep.join(texts))
    assert [newick_string(t) for t in trees] == [
        newick_string(parse_newick(t)) for t in texts
    ]


@fixed(1500)
@given(mutants(st.sampled_from(VALID_FASTA), FASTA_ALPHABET))
def test_mutated_fasta_parses_or_raises_data_error(text):
    alignment = _read_or_reject(parse_fasta, text)
    if alignment is not None:
        again = fasta_string(alignment)
        assert fasta_string(parse_fasta(again)) == again


@fixed(12)
@given(st.sampled_from(("demo", "acceptance")), st.integers(0, 2**16))
def test_simulated_alignment_round_trips(preset, seed):
    cfg = SimConfig(cluster_sizes=_PRESETS[preset]["cluster_sizes"], rng_seed=seed)
    alignment = simulate_alignment(simulate_tree(cfg)[0], cfg)
    assert parse_fasta(fasta_string(alignment)).records == alignment.records


@fixed(1500)
@given(mutants(st.sampled_from(VALID_PARTITION), PARTITION_ALPHABET))
def test_mutated_partition_parses_or_raises_data_error(text):
    partition = _read_or_reject(parse_partition, text)
    if partition is not None:
        again = parse_partition(partition_string(partition))
        assert again.assignment == partition.assignment


@fixed(1500)
@given(mutants(st.sampled_from(VALID_METADATA), METADATA_ALPHABET))
def test_mutated_metadata_parses_or_raises_data_error(text):
    _read_or_reject(parse_metadata, text)


# ids hold no delimiter or whitespace; a label or risk group may hold
# inner spaces (and a label commas) but is stripped as it is read
IDS = st.text("abz019_.-|", min_size=1, max_size=6)


def _cell(alphabet):
    return st.text(alphabet, max_size=6).filter(lambda s: s == s.strip())


@fixed(300)
@given(st.dictionaries(IDS, _cell("abz019_.-|, ").filter(bool), max_size=8))
def test_partition_round_trips(assignment):
    p = Partition(assignment)
    assert parse_partition(partition_string(p)) == p


@fixed(300)
@given(st.lists(
    st.builds(CaseMetadata, IDS, st.dates(), st.sampled_from(Stage), _cell("MSIDU_x ")),
    min_size=1, max_size=8, unique_by=lambda r: r.id,
))
def test_metadata_round_trips(rows):
    assert parse_metadata(metadata_string(rows)) == rows


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    """The path each example writes its matrix file to."""
    return tmp_path_factory.mktemp("matrix") / "m.bin"


@fixed(1500)
@given(text=mutants(st.sampled_from(VALID_PHYLIP), PHYLIP_ALPHABET))
def test_mutated_phylip_parses_or_raises_data_error(matrix_path, text):
    matrix_path.with_suffix(".phy").write_text(text)
    _read_or_reject(read_matrix_phylip, matrix_path.with_suffix(".phy"))


@st.composite
def matrices(draw):
    """Distinct ids and any float64 values for their triangle."""
    ids = draw(st.lists(IDS, max_size=8, unique=True))
    return ids, draw(arrays(np.float64, len(ids) * (len(ids) - 1) // 2))


@fixed(200)
@given(matrices())
@example((["a", "b"], np.array([np.finfo(np.float64).max])))
def test_phylip_rewrite_is_byte_identical(matrix_path, matrix):
    """Any float64 values: the first write rounds them to 10 significant
    digits, and reading and writing again gives the same bytes.  The
    largest double's 10 digits round up past it, to a number that reads
    as inf, so the writer rounds it down."""
    ids, values = matrix
    first, second = matrix_path.with_suffix(".phy"), matrix_path.with_suffix(".2.phy")
    write_matrix_phylip(condensed_dm(ids, values), first)
    write_matrix_phylip(read_matrix_phylip(first), second)
    assert second.read_bytes() == first.read_bytes()


@fixed(1500)
@given(sidecar=st.booleans(), data=st.data())
def test_mutated_binary_matrix_reads_or_raises_data_error(matrix_path, sidecar, data):
    """A .bin file cut short or with edited bytes, or an edited .ids
    sidecar, reads or raises a DataError; both readers agree on a file
    that read_matrix_binary takes."""
    values = np.array([0.0, 0.5, np.nan, 1.0, 0.0, 0.25])
    matrix = condensed_dm(["a", "bb", "c", "d"], values, MatrixKind.COCLUSTER)
    write_matrix_binary(matrix, matrix_path)
    target = matrix_path.with_name("m.bin.ids") if sidecar else matrix_path
    original = target.read_bytes()
    cut = st.integers(0, len(original)).map(lambda k: original[:k])
    target.write_bytes(data.draw(cut | mutants(st.just(original), BYTES)))
    dm = _read_or_reject(read_matrix_binary, matrix_path)
    pairs = _read_or_reject(read_nonzero_pairs_binary, matrix_path)
    if dm is not None:
        assert pairs[0] == dm.ids
        vals = condensed(dm)
        assert pairs[3].tobytes() == vals[vals != 0].tobytes()


@fixed(100)
@given(n=st.integers(0, 12), data=st.data())
def test_binary_matrix_reads_back_bit_for_bit(matrix_path, n, data):
    """Any float64 values, over ids drawn from the characters an id may hold."""
    values = data.draw(arrays(np.float64, n * (n - 1) // 2))
    dm = condensed_dm(
        data.draw(st.lists(IDS, min_size=n, max_size=n, unique=True)),
        values,
        MatrixKind.K80,
    )
    write_matrix_binary(dm, matrix_path)
    back = read_matrix_binary(matrix_path, MatrixKind.K80)
    assert back.ids == dm.ids and condensed(back).tobytes() == values.tobytes()
    ids, _, _, w = read_nonzero_pairs_binary(matrix_path)
    assert ids == dm.ids and w.tobytes() == values[values != 0].tobytes()
