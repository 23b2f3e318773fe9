"""Pairwise distance kernels and the matrix container."""

import itertools
import math
import os

import numpy as np
import pytest

from phyloclust import (
    Alignment,
    DistanceMatrix,
    MatrixKind,
    SequenceRecord,
    build_distance_matrix,
    parse_fasta,
)
from phyloclust import distance
from phyloclust.distance import (
    compare_pair,
    condensed_index,
    encode_alignment,
    k80_distance,
    p_distance,
    pair_counts,
    read_matrix_binary,
    read_matrix_phylip,
    write_matrix_binary,
    write_matrix_phylip,
)
from phyloclust.errors import DataError, LengthMismatch, MalformedMatrix

_BASES = "ACGT"


def _random_seq(rng, length, alphabet="ACGTN-"):
    return "".join(alphabet[k] for k in rng.integers(0, len(alphabet), length))


def test_compare_identity():
    c = compare_pair("ACGT", "ACGT")
    assert (c.compared, c.mismatches) == (4, 0)


def test_compare_single_transversion():
    c = compare_pair("ACGT", "ACGA")
    assert (c.compared, c.mismatches) == (4, 1)
    assert c.transversions == 1 and c.transitions == 0


def test_compare_pairwise_deletion():
    # R is ambiguous and '-' is a gap: sites 1 and 4 drop out
    c = compare_pair("ACGT", "RCG-")
    assert (c.compared, c.mismatches) == (2, 0)


def test_compare_length_mismatch():
    with pytest.raises(LengthMismatch):
        compare_pair("ACG", "AC")


def test_p_quarter():
    assert p_distance("ACGT", "ACGA") == 0.25


def test_p_undefined_when_nothing_compared():
    assert math.isnan(p_distance("NN--", "ACGT"))


def test_p_matches_site_loop():
    """Vectorized p-distance equals a per-site Python loop."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        length = int(rng.integers(1, 120))
        x = _random_seq(rng, length)
        y = _random_seq(rng, length)
        compared = mismatched = 0
        for a, b in zip(x, y):
            if a in _BASES and b in _BASES:
                compared += 1
                mismatched += a != b
        expect = mismatched / compared if compared else math.nan
        got = p_distance(x, y)
        if math.isnan(expect):
            assert math.isnan(got)
        else:
            assert got == expect


# gaps, N, IUPAC ambiguity codes and lowercase bases
_MIXED = "ACGTacgtN-RYKMSWn."
_TRANSITIONS = ({"A", "G"}, {"C", "T"})


def _oracle_counts(x, y):
    """(compared, mismatches, transitions) by a per-site loop."""
    compared = mismatches = transitions = 0
    for a, b in zip(x.upper(), y.upper()):
        if a in _BASES and b in _BASES:
            compared += 1
            if a != b:
                mismatches += 1
                transitions += {a, b} in _TRANSITIONS
    return compared, mismatches, transitions


@pytest.mark.parametrize("sites", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("threads", [1, 2])
def test_pair_counts_match_site_oracle(sites, n, threads):
    """Every count of the bit-packed kernel equals a per-site loop, across
    word boundaries and padding, for either thread count."""
    rng = np.random.default_rng(1000 * sites + 10 * n + threads)
    seqs = [_random_seq(rng, sites, _MIXED) for _ in range(n)]
    seqs[0] = seqs[1]  # one pair with no mismatches
    # built directly, so lowercase reaches the kernel unnormalized
    aln = Alignment([SequenceRecord(f"s{i}", s) for i, s in enumerate(seqs)])
    oracle = np.array(
        [_oracle_counts(x, y) for x, y in itertools.combinations(seqs, 2)]
    ).T
    counts = pair_counts(encode_alignment(aln), threads)
    assert np.array_equal(counts, oracle)
    for (x, y), (c, m, t) in zip(itertools.combinations(seqs, 2), oracle.T):
        assert compare_pair(x, y) == distance.PairComparison(c, m, t, m - t)

    compared, mism, ts = oracle.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = mism / compared
        w1 = 1.0 - 2.0 * (ts / compared) - (mism - ts) / compared
        w2 = 1.0 - 2.0 * ((mism - ts) / compared)
        bad = (compared == 0) | (w1 <= 0.0) | (w2 <= 0.0)
        k80 = -0.5 * np.log(np.where(bad, 1.0, w1)) - 0.25 * np.log(
            np.where(bad, 1.0, w2)
        )
    p[compared == 0] = np.nan
    k80[bad] = np.nan
    got_p = build_distance_matrix(aln, MatrixKind.P_DISTANCE, threads=threads)
    got_k80 = build_distance_matrix(aln, MatrixKind.K80, threads=threads)
    assert np.array_equal(got_p.values, p, equal_nan=True)
    assert np.array_equal(got_k80.values, k80, equal_nan=True)


def test_compare_pair_empty_strings():
    assert compare_pair("", "") == distance.PairComparison(0, 0, 0, 0)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each
    task at once on the calling thread, so no thread is started."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.mark.parametrize(
    "cores, n, threads, expect",
    [(2, 40, 8, 2), (2, 40, 2, 2), (16, 3, 8, 2), (16, 40, 3, 3), (2, 40, 1, None),
     (2, 2, 8, None)],
)
def test_thread_pool_clamped_to_cores_and_rows(monkeypatch, cores, n, threads, expect):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(distance, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    rng = np.random.default_rng(n)
    aln = parse_fasta("".join(f">r{i}\n{_random_seq(rng, 70)}\n" for i in range(n)))
    serial = build_distance_matrix(aln, MatrixKind.K80, threads=1)
    _RecordingPool.created.clear()
    pooled = build_distance_matrix(aln, MatrixKind.K80, threads=threads)
    assert _RecordingPool.created == ([] if expect is None else [expect])
    assert np.array_equal(serial.values, pooled.values, equal_nan=True)


def test_k80_identical_is_zero():
    d = k80_distance("ACGT", "ACGT")
    assert d == 0.0 and math.copysign(1.0, d) == 1.0


def test_k80_closed_form():
    # 100 sites: 10 transitions (A<->G), 5 transversions (A<->C)
    x = "A" * 100
    y = "G" * 10 + "C" * 5 + "A" * 85
    expect = -0.5 * math.log(1 - 2 * 0.10 - 0.05) - 0.25 * math.log(1 - 2 * 0.05)
    assert k80_distance(x, y) == pytest.approx(expect, abs=1e-15)


def test_k80_saturation_undefined():
    # P = 0.5, Q = 0 makes the first log argument zero
    assert math.isnan(k80_distance("AAAA", "GGAA"))


def test_k80_dominates_p():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = _random_seq(rng, 60, _BASES)
        y = _random_seq(rng, 60, _BASES)
        k = k80_distance(x, y)
        if not math.isnan(k):
            assert k >= p_distance(x, y) - 1e-12


def test_masking_leaves_remaining_sites_alone():
    """Hiding extra sites in both sequences never changes what the
    surviving sites contribute."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = list(_random_seq(rng, 80, _BASES))
        y = list(_random_seq(rng, 80, _BASES))
        hide = rng.random(80) < 0.3
        kept_x = "".join(c for c, h in zip(x, hide) if not h)
        kept_y = "".join(c for c, h in zip(y, hide) if not h)
        for k in np.flatnonzero(hide):
            x[k] = "N"
            y[k] = "N"
        a = compare_pair("".join(x), "".join(y))
        b = compare_pair(kept_x, kept_y)
        assert (a.compared, a.mismatches) == (b.compared, b.mismatches)


def test_matrix_identical_sequences():
    aln = parse_fasta(">a\nACGT\n>b\nACGT\n>c\nACGT\n")
    dm = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    assert np.all(dm.values == 0.0)
    assert dm.get(0, 0) == 0.0


def test_matrix_symmetry_and_spot_checks():
    rng = np.random.default_rng(19)
    rows = [f">r{i}\n{_random_seq(rng, 90)}\n" for i in range(12)]
    aln = parse_fasta("".join(rows))
    for kind, kernel in ((MatrixKind.P_DISTANCE, p_distance), (MatrixKind.K80, k80_distance)):
        dm = build_distance_matrix(aln, kind)
        sq = dm.square()
        assert np.array_equal(sq, sq.T, equal_nan=True)
        assert np.all(np.diag(sq) == 0.0)
        for _ in range(30):
            i, j = rng.integers(0, 12, 2)
            direct = kernel(aln.records[i].residues, aln.records[j].residues)
            got = dm.get(int(i), int(j))
            if math.isnan(direct):
                assert math.isnan(got)
            else:
                assert got == direct


def test_matrix_cap_policy():
    aln = parse_fasta(">a\nNNNN\n>b\nACGT\n>c\nACGA\n")
    plain = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    assert math.isnan(plain.get(0, 1))
    capped = build_distance_matrix(aln, MatrixKind.P_DISTANCE, cap=0.75)
    assert capped.get(0, 1) == 0.75
    assert capped.get(1, 2) == 0.25
    assert capped.capped is not None
    assert capped.capped[condensed_index(3, 0, 1)]
    assert not capped.capped[condensed_index(3, 1, 2)]


@pytest.mark.parametrize("idx", [[7, 2, 11, 5], [13, 0], [9], [], [12, 3, 8, 1, 6]])
def test_values_within_matches_get_loop(idx):
    """Pairs of the sorted indices, in row-major order, as get(i, j) reads them."""
    n = 14
    vals = np.random.default_rng(5).random(n * (n - 1) // 2)
    dm = DistanceMatrix([f"t{k}" for k in range(n)], vals, MatrixKind.P_DISTANCE)
    want = [dm.get(i, j) for i, j in itertools.combinations(sorted(idx), 2)]
    assert dm.values_within(iter(idx)).tolist() == want


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
def test_square_conversions_match_triu_reference(n):
    rng = np.random.default_rng(n)
    ids = [f"t{k}" for k in range(n)]
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.25] = np.nan
    iu = np.triu_indices(n, k=1)
    ref = np.zeros((n, n))
    ref[iu] = vals
    ref.T[iu] = vals
    sq = DistanceMatrix(ids, vals, MatrixKind.P_DISTANCE).square()
    assert sq.dtype == np.float64
    assert np.array_equal(sq, ref, equal_nan=True)
    # from_square reads the strict upper triangle only
    noisy = ref.copy()
    noisy[np.tril_indices(n)] = -7.0
    back = DistanceMatrix.from_square(ids, noisy, MatrixKind.K80)
    assert back.ids == ids and back.kind is MatrixKind.K80
    assert back.values.dtype == np.float64
    assert back.values.tobytes() == ref[iu].tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_from_upper_rows_inverts_upper_rows(n):
    rng = np.random.default_rng(53 + n)
    ids = [f"t{k}" for k in range(n)]
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.25] = np.nan
    dm = DistanceMatrix(ids, vals, MatrixKind.PATRISTIC)
    back = DistanceMatrix.from_upper_rows(ids, dm.upper_rows(), MatrixKind.PATRISTIC)
    assert back.ids == ids and back.kind is MatrixKind.PATRISTIC
    assert back.values.tobytes() == vals.tobytes()
    # a trailing empty row is not read; a missing row is an error
    rows = [*dm.upper_rows(), np.empty(0)]
    again = DistanceMatrix.from_upper_rows(ids, rows, MatrixKind.PATRISTIC)
    assert again.values.tobytes() == vals.tobytes()
    if n > 1:
        with pytest.raises(ValueError):
            DistanceMatrix.from_upper_rows(ids, rows[:-2], MatrixKind.PATRISTIC)


def test_from_square_inverts_square_bit_for_bit():
    rng = np.random.default_rng(37)
    rows = [f">r{i}\n{_random_seq(rng, 60, 'ACGTN-')}\n" for i in range(25)]
    rows.append(">blank\n" + "N" * 60 + "\n")  # NaN against everyone
    aln = parse_fasta("".join(rows))
    for kind in (MatrixKind.P_DISTANCE, MatrixKind.K80):
        dm = build_distance_matrix(aln, kind)
        assert dm.num_undefined() > 0
        back = DistanceMatrix.from_square(dm.ids, dm.square(), kind)
        assert back.values.tobytes() == dm.values.tobytes()


def test_threads_do_not_change_values():
    rng = np.random.default_rng(23)
    rows = [f">r{i}\n{_random_seq(rng, 400)}\n" for i in range(40)]
    aln = parse_fasta("".join(rows))
    one = build_distance_matrix(aln, MatrixKind.K80, threads=1)
    four = build_distance_matrix(aln, MatrixKind.K80, threads=4)
    assert np.array_equal(one.values, four.values, equal_nan=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "r0, r1, c0, c1",
    [(0, 3, 3, 37), (5, 37, 0, 5), (9, 10, 10, 37), (0, 30, 30, 31), (0, 37, 0, 37)],
)
def test_p_blocks_bit_equal_matrix(r0, r1, c0, c1):
    """Wide, tall and one-sided blocks read the matrix's values bit for bit,
    NaN included, whichever side the kernel loops over."""
    rng = np.random.default_rng(41)
    seqs = [_random_seq(rng, 130) for _ in range(37)]
    seqs[4], seqs[30] = "N" * 130, "-" * 130  # nothing compared: NaN
    aln = parse_fasta("".join(f">r{i}\n{s}\n" for i, s in enumerate(seqs)))
    sq = build_distance_matrix(aln, MatrixKind.P_DISTANCE).square()
    block = distance.p_block_reader(encode_alignment(aln))(r0, r1, c0, c1)
    want = sq[r0:r1, c0:c1]
    off = np.arange(r0, r1)[:, None] != np.arange(c0, c1)[None, :]  # not i, i
    assert np.isnan(want[off]).any()
    assert want[off].tobytes() == block[off].tobytes()


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    vals = rng.random(10 * 9 // 2)
    vals[3] = np.nan
    dm = DistanceMatrix([f"s{i}" for i in range(10)], vals, MatrixKind.K80)
    path = tmp_path / "m.bin"
    write_matrix_binary(dm, path)
    back = read_matrix_binary(path, MatrixKind.K80)
    assert back.ids == dm.ids
    assert np.array_equal(back.values, dm.values, equal_nan=True)


def test_phylip_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    vals = rng.random(6 * 5 // 2)
    dm = DistanceMatrix([f"s{i}" for i in range(6)], vals, MatrixKind.P_DISTANCE)
    path = tmp_path / "m.phy"
    write_matrix_phylip(dm, path)
    back = read_matrix_phylip(path)
    assert back.ids == dm.ids
    assert np.allclose(back.values, dm.values, atol=1e-9)


def _write_bin(tmp_path):
    dm = DistanceMatrix(["a", "b", "c"], np.array([0.1, 0.2, 0.3]), MatrixKind.P_DISTANCE)
    path = tmp_path / "m.bin"
    write_matrix_binary(dm, path)
    return path


@pytest.mark.parametrize("keep", [0, 3, 4, 5, 12, 20])
def test_binary_cut_short_is_data_error(tmp_path, keep):
    path = _write_bin(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(MalformedMatrix):
        read_matrix_binary(path)


def test_binary_huge_count_is_data_error(tmp_path):
    path = _write_bin(tmp_path)
    data = bytearray(path.read_bytes())
    data[5:13] = (2**63).to_bytes(8, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedMatrix):
        read_matrix_binary(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: b"XXXX" + d[4:], "not a distance-matrix file"),
        (lambda d: d[:12], "header is cut short"),
        (lambda d: d[:4] + b"\x02" + d[5:], "unsupported matrix version 2"),
        (lambda d: d + b"\x00", "25 value bytes for n=3, expected 24"),
        (lambda d: d[:-1], "23 value bytes for n=3, expected 24"),
    ],
)
def test_binary_malformed_messages(tmp_path, edit, message):
    path = _write_bin(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(MalformedMatrix, match=message):
        read_matrix_binary(path)


def test_binary_read_is_writable_float64(tmp_path):
    back = read_matrix_binary(_write_bin(tmp_path))
    assert back.values.dtype == np.float64 and back.values.flags.writeable
    back.values[0] = 0.5


def test_binary_without_sidecar_is_data_error(tmp_path):
    path = _write_bin(tmp_path)
    (tmp_path / "m.bin.ids").unlink()
    with pytest.raises(MalformedMatrix, match="sidecar"):
        read_matrix_binary(path)


def test_binary_sidecar_count_mismatch_is_data_error(tmp_path):
    path = _write_bin(tmp_path)
    (tmp_path / "m.bin.ids").write_text("a\nb\n")
    with pytest.raises(MalformedMatrix):
        read_matrix_binary(path)


@pytest.mark.parametrize(
    "text",
    [
        "abc\na 0 1\nb 1 0\n",  # count line is not an integer
        "2\na 0 1\nb 1\n",  # short row
        "2\na 0 1\nb 1 x\n",  # non-numeric cell
        "3\na 0 1\nb 1 0\n",  # missing row
    ],
)
def test_phylip_malformed_is_data_error(tmp_path, text):
    path = tmp_path / "m.phy"
    path.write_text(text)
    with pytest.raises(DataError):
        read_matrix_phylip(path)
