"""Pairwise distance kernels and the matrix container."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from phyloclust import (
    Alignment,
    MatrixKind,
    SequenceRecord,
    build_distance_matrix,
    parse_fasta,
)
from phyloclust import distance
from phyloclust.distance import (
    read_matrix_binary,
    read_matrix_phylip,
    read_nonzero_pairs_binary,
    write_binary_rows,
    write_matrix_binary,
    write_matrix_phylip,
)
from phyloclust.errors import DataError, MalformedMatrix

from conftest import condensed, condensed_dm, dense, pair_counts


def kernel_counts(*seqs):
    """pair_counts of seqs, pairs in condensed order."""
    aln = Alignment([SequenceRecord(f"s{i}", s) for i, s in enumerate(seqs)])
    return pair_counts(aln)


# Single-pair reference distances over the kernel's counts; the matrix
# builder must agree with them pair by pair.


def p_distance(x: str, y: str) -> float:
    """Proportion of differing sites among pairwise-defined sites.

    NaN when no site is defined for the pair.
    """
    compared, mismatches, _ = kernel_counts(x, y)[:, 0].tolist()
    if compared == 0:
        return math.nan
    return mismatches / compared


def k80_distance(x: str, y: str) -> float:
    """Two-parameter distance -0.5*ln(1-2P-Q) - 0.25*ln(1-2Q).

    P and Q are the transition and transversion proportions among
    pairwise-defined sites.  NaN when the pair has no defined sites or
    either log argument is not positive (saturation).
    """
    compared, mismatches, transitions = kernel_counts(x, y)[:, 0].tolist()
    if compared == 0:
        return math.nan
    p = transitions / compared
    q = (mismatches - transitions) / compared
    w1 = 1.0 - 2.0 * p - q
    w2 = 1.0 - 2.0 * q
    if w1 <= 0.0 or w2 <= 0.0:
        return math.nan
    return -0.5 * math.log(w1) - 0.25 * math.log(w2) + 0.0  # -0.0 -> 0.0


_BASES = "ACGT"


def _random_seq(rng, length, alphabet="ACGTN-"):
    return "".join(alphabet[k] for k in rng.integers(0, len(alphabet), length))


def test_compare_identity():
    assert kernel_counts("ACGT", "ACGT")[:, 0].tolist() == [4, 0, 0]


def test_compare_single_transversion():
    assert kernel_counts("ACGT", "ACGA")[:, 0].tolist() == [4, 1, 0]


def test_compare_pairwise_deletion():
    # R is ambiguous and '-' is a gap: sites 1 and 4 drop out
    assert kernel_counts("ACGT", "RCG-")[:, 0].tolist() == [2, 0, 0]


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
        compared, mismatched, _ = _oracle_counts(x, y)
        expect = mismatched / compared if compared else math.nan
        assert np.array_equal(p_distance(x, y), expect, equal_nan=True)


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


def _random_codes(n, sites, seed):
    """Residue codes: 0-3 for A, C, G, T and 255 for anything else."""
    codes = np.array([0, 1, 2, 3, 255], dtype=np.uint8)
    return np.random.default_rng(seed).choice(codes, size=(n, sites))


def _coded_alignment(codes):
    """The alignment whose residues have the codes: A, C, G, T, and N for
    255."""
    letters = np.full(256, ord("N"), dtype=np.uint8)
    letters[:4] = np.frombuffer(b"ACGT", dtype=np.uint8)
    rows = (row.tobytes().decode() for row in letters[codes])
    return Alignment([SequenceRecord(f"s{i}", row) for i, row in enumerate(rows)])


def _stacked_planes(codes):
    """The three (n, sites) masks of codes stacked and packed at once, the
    padding bits past the last site zero: the planes _pack_planes makes."""
    n, sites = codes.shape
    words = -(-sites // 64)
    bits = np.packbits(
        np.stack([codes != 255, codes & 1, codes & 2]), axis=-1, bitorder="little"
    )
    padded = np.zeros((3, n, words * 8), dtype=np.uint8)
    padded[:, :, : bits.shape[2]] = bits
    return padded.view(np.uint64).transpose(0, 2, 1)


@pytest.mark.parametrize("sites", [1, 7, 8, 9, 63, 64, 65, 129])
def test_pack_planes_equals_stacked_packbits(sites):
    """The planes of an alignment equal its codes' three masks stacked and
    packed at once, the padding bits past the last site included."""
    codes = _random_codes(11, sites, sites)
    got = distance._pack_planes(_coded_alignment(codes))
    assert got.dtype == np.uint64 and got.flags.c_contiguous
    assert got.shape == (3, -(-sites // 64), 11)
    assert np.array_equal(got, _stacked_planes(codes))


def test_pack_planes_in_chunks_equals_stacked_packbits(monkeypatch):
    """Packed three rows to a chunk, the last chunk short, the planes of
    an alignment equal the stacked reference."""
    monkeypatch.setattr(distance, "BLOCK_PAIRS", 3 * 65)
    codes = _random_codes(11, 65, 3)
    assert list(distance.row_chunks(0, 11, 65)) == [(0, 3), (3, 6), (6, 9), (9, 11)]
    got = distance._pack_planes(_coded_alignment(codes))
    assert np.array_equal(got, _stacked_planes(codes))


def test_pack_planes_holds_one_plane_mask():
    """Packing a paper-scale alignment (3,704 x 918) peaks at or under
    3 MB traced, 1.33 MB of which are the planes: one chunk of rows is
    coded and masked at a time.  Coding the whole alignment into an
    (n, sites) matrix first, and packing that, peaked at 9.0 MB."""
    aln = _coded_alignment(_random_codes(3704, 918, 0))
    tracemalloc.start()
    try:
        distance._pack_planes(aln)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, peak


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
    assert np.array_equal(pair_counts(aln), oracle)

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
    assert np.array_equal(condensed(got_p), p, equal_nan=True)
    assert np.array_equal(condensed(got_k80), k80, equal_nan=True)


def _whole_array_values(counts, kind):
    """Distances from all pair counts at once, in the operation order
    build_distance_matrix keeps per item: the oracle of its item
    transform."""
    compared, mism = counts[0], counts[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is MatrixKind.P_DISTANCE:
            vals = mism / compared
            vals[compared == 0] = np.nan
        else:
            tsc = counts[2]
            p = tsc / compared
            q = (mism - tsc) / compared
            w1 = 1.0 - 2.0 * p - q
            w2 = 1.0 - 2.0 * q
            bad = (compared == 0) | (w1 <= 0.0) | (w2 <= 0.0)
            w1[bad] = 1.0
            w2[bad] = 1.0
            vals = -0.5 * np.log(w1) - 0.25 * np.log(w2)
            vals[bad] = np.nan
    return vals


@pytest.mark.parametrize("kind", [MatrixKind.P_DISTANCE, MatrixKind.K80])
@pytest.mark.parametrize("block", [5, 100])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_transform_bit_equal_whole_array(monkeypatch, kind, block, threads):
    """Distances made item by item, a row near the top of the triangle
    with its partner near the bottom, whatever BLOCK_PAIRS is (5 or 100),
    by one, two or four worker processes, equal the whole-array
    transform of pair_counts bit for bit: NaN of an all-N row, zeros of
    identical rows, and K80 pairs saturated at w1 <= 0 and at w2 <= 0."""
    monkeypatch.setattr(distance, "BLOCK_PAIRS", block)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    rng = np.random.default_rng(block + threads)
    sites = 300
    base = np.array(list(_random_seq(rng, sites, _BASES)))
    seqs = []
    for _ in range(40):
        seq = base.copy()
        hit = rng.random(sites) < rng.uniform(0.01, 0.3)
        seq[hit] = rng.choice(list(_BASES + "N-"), hit.sum())
        seqs.append("".join(seq))
    seqs[3] = "N" * sites
    seqs[8] = seqs[7]
    seqs[20], seqs[21] = "A" * sites, "G" * sites  # P = 1: w1 < 0
    seqs[22] = "C" * sites  # against A: Q = 1, w2 < 0
    seqs[23] = "A" * (sites // 2) + "G" * (sites // 2)  # against A: w1 = 0
    aln = parse_fasta("".join(f">r{i}\n{s}\n" for i, s in enumerate(seqs)))
    counts = pair_counts(aln)
    want = _whole_array_values(counts, kind)
    got = build_distance_matrix(aln, kind, threads=threads)
    assert condensed(got).tobytes() == want.tobytes()
    assert np.count_nonzero(want == 0.0) and np.isnan(want).any()
    if kind is MatrixKind.K80:
        assert np.count_nonzero(np.isnan(want)) > np.count_nonzero(counts[0] == 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 40, 300])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("block", [1, 7, 65_536])
def test_row_runs_tile_the_triangle(monkeypatch, n, workers, block):
    """The writes of a build, one per row, tile the value region of the
    matrix file exactly once, whatever BLOCK_PAIRS is and for one, two or
    four workers (as many as n - 1 allows): row i's n - 1 - i values land
    at the row's own place.  The workers run in this process, so that
    every write is seen."""
    monkeypatch.setattr(distance, "BLOCK_PAIRS", block)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(distance, "_Worker", _InProcessWorker)
    writes = []
    real = distance._pwrite_all

    def recorded(fd, values, offset):
        writes.append((offset, len(values)))
        return real(fd, values, offset)

    monkeypatch.setattr(distance, "_pwrite_all", recorded)
    aln = parse_fasta("".join(f">r{i}\nACGTN\n" for i in range(n)))
    dm = build_distance_matrix(aln, MatrixKind.P_DISTANCE, threads=workers)
    assert len(writes) == n - 1
    covered = np.zeros(n * (n - 1) // 2, dtype=int)
    for offset, size in writes:
        lo = (offset - distance._HEADER) // 8
        assert lo >= 0 and (offset - distance._HEADER) % 8 == 0 and size > 0
        covered[lo : lo + size] += 1
    assert covered.tolist() == [1] * (n * (n - 1) // 2)
    assert sorted(size for _, size in writes) == list(range(1, n))
    assert np.array_equal(condensed(dm), np.zeros(n * (n - 1) // 2))


def test_compare_pair_empty_strings():
    assert kernel_counts("", "")[:, 0].tolist() == [0, 0, 0]


class _InProcessWorker:
    """Stands in for distance._Worker: records the items of each share
    that would be forked and fills them at once in this process, so no
    process is forked and every write and call is seen here."""

    created: list[range] = []

    def __init__(self, planes, rows, *rest):
        self.created.append(rows)
        self._capped = distance._fill_rows(planes, rows, *rest)

    def result(self):
        return self._capped

    def kill(self):
        pass


@pytest.mark.parametrize(
    "cores, n, threads, expect",
    [(2, 40, 8, 2), (2, 40, 2, 2), (16, 3, 8, 2), (16, 40, 3, 3), (2, 40, 1, 1),
     (2, 2, 8, 1)],
)
def test_thread_pool_clamped_to_cores_and_rows(monkeypatch, cores, n, threads, expect):
    """min(threads, cores, n - 1) workers: the calling process fills share
    0 and one forked worker each other share, items dealt in turn."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(distance, "_Worker", _InProcessWorker)
    monkeypatch.setattr(_InProcessWorker, "created", [])
    rng = np.random.default_rng(n)
    aln = parse_fasta("".join(f">r{i}\n{_random_seq(rng, 70)}\n" for i in range(n)))
    serial = build_distance_matrix(aln, MatrixKind.K80, threads=1)
    assert _InProcessWorker.created == []
    pooled = build_distance_matrix(aln, MatrixKind.K80, threads=threads)
    assert len(_InProcessWorker.created) + 1 == expect
    items = range(n // 2)
    assert _InProcessWorker.created == [items[w::expect] for w in range(1, expect)]
    assert np.array_equal(condensed(serial), condensed(pooled), equal_nan=True)


_FOUR = ">a\nACGT\n>b\nACGA\n>c\nAGGA\n>d\nTTGA\n"
_FOUR_P = [0.25, 0.5, 0.75, 0.25, 0.5, 0.5]


def test_one_worker_where_fork_is_missing(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(distance, "_Worker", _InProcessWorker)
    monkeypatch.setattr(_InProcessWorker, "created", [])
    dm = build_distance_matrix(parse_fasta(_FOUR), MatrixKind.P_DISTANCE, threads=4)
    assert _InProcessWorker.created == []
    assert condensed(dm).tolist() == _FOUR_P


def _no_child_left():
    # os.waitpid(-1) raises once this process has no child, live or dead
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_share(monkeypatch, share, act):
    # Patches _fill_rows so that worker `share` of a two-worker build
    # (0: this process, 1: the forked child) calls act first.
    real = distance._fill_rows

    def fill(planes, rows, *rest):
        if rows.start == share:
            act()
        return real(planes, rows, *rest)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(distance, "_fill_rows", fill)


def _boom():
    raise RuntimeError("boom")


def _killed():
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "act, message",
    [(_boom, "distance worker failed: RuntimeError: boom"),
     (_killed, "distance worker killed by signal 9")],
)
def test_failing_worker_process_raises_oserror(monkeypatch, act, message):
    """A forked worker that raises, or is killed, fails the build with an
    OSError naming the cause, and no child process is left over."""
    _failing_share(monkeypatch, 1, act)
    with pytest.raises(OSError, match=message):
        build_distance_matrix(parse_fasta(_FOUR), MatrixKind.K80, threads=2)
    _no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failing_own_share_kills_worker_processes(monkeypatch, error):
    """When the calling process's own share raises, KeyboardInterrupt
    included, the error propagates and the forked worker, here one that
    would sleep for a minute, is killed and waited for."""
    import time

    real = distance._fill_rows

    def fill(planes, rows, *rest):
        if rows.start == 0:
            raise error("own share")
        time.sleep(60)
        return real(planes, rows, *rest)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(distance, "_fill_rows", fill)
    t0 = time.monotonic()
    with pytest.raises(error, match="own share"):
        build_distance_matrix(parse_fasta(_FOUR), MatrixKind.P_DISTANCE, threads=2)
    assert time.monotonic() - t0 < 30
    _no_child_left()


def test_worker_processes_close_their_pipes(monkeypatch):
    """A build on two worker processes, failed or not, leaves this
    process's open descriptors as it found them once the matrix is gone."""
    import gc

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    aln = parse_fasta(_FOUR)
    opened = len(os.listdir("/proc/self/fd"))
    dm = build_distance_matrix(aln, MatrixKind.P_DISTANCE, threads=2)
    assert condensed(dm).tolist() == _FOUR_P
    del dm
    _failing_share(monkeypatch, 1, _boom)
    with pytest.raises(OSError):
        build_distance_matrix(aln, MatrixKind.P_DISTANCE, threads=2)
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == opened
    _no_child_left()


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
        a = kernel_counts("".join(x), "".join(y))
        b = kernel_counts(kept_x, kept_y)
        assert np.array_equal(a, b)


def test_matrix_identical_sequences():
    aln = parse_fasta(">a\nACGT\n>b\nACGT\n>c\nACGT\n")
    dm = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    assert np.all(condensed(dm) == 0.0)


def test_matrix_symmetry_and_spot_checks():
    rng = np.random.default_rng(19)
    rows = [f">r{i}\n{_random_seq(rng, 90)}\n" for i in range(12)]
    aln = parse_fasta("".join(rows))
    for kind, kernel in ((MatrixKind.P_DISTANCE, p_distance), (MatrixKind.K80, k80_distance)):
        dm = build_distance_matrix(aln, kind)
        sq = dense(dm)
        assert np.array_equal(sq, sq.T, equal_nan=True)
        assert np.all(np.diag(sq) == 0.0)
        for _ in range(30):
            i, j = rng.integers(0, 12, 2)
            direct = kernel(aln.records[i].residues, aln.records[j].residues)
            got = sq[i, j]
            if math.isnan(direct):
                assert math.isnan(got)
            else:
                assert got == direct


@pytest.mark.parametrize("threads", [1, 2, "phylip"])
def test_build_leaves_no_file_behind(monkeypatch, tmp_path_factory, tmp_path, threads):
    """The matrix's file, built by one or two worker processes or read
    from phylip, has no name in the temporary directory, and is gone once
    the matrix is."""
    import gc
    import tempfile

    phy = tmp_path_factory.mktemp("phylip") / "m.phy"
    phy.write_text("3\na 0 0.5 1\nb 0.5 0 1\nc 1 1 0\n")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    aln = parse_fasta(">a\nACGT\n>b\nACGA\n>c\nNNNN\n")
    opened = len(os.listdir("/proc/self/fd"))
    if threads == "phylip":
        dm = read_matrix_phylip(phy)
    else:
        dm = build_distance_matrix(aln, MatrixKind.K80, cap=1.0, threads=threads)
    assert condensed(dm)[1:].tolist() == [1.0, 1.0]  # a and b against all-N c
    assert list(tmp_path.iterdir()) == []
    del dm
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == opened


def test_matrix_cap_policy(caplog):
    aln = parse_fasta(">a\nNNNN\n>b\nACGT\n>c\nACGA\n")
    plain = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    assert np.isnan(condensed(plain)).tolist() == [True, True, False]  # ab, ac, bc
    capped = build_distance_matrix(aln, MatrixKind.P_DISTANCE, cap=0.75)
    assert condensed(capped).tolist() == [0.75, 0.75, 0.25]
    assert "capping 2 undefined p distances at 0.75" in caplog.text


@pytest.mark.parametrize("idx", [[7, 2, 11, 5], [13, 0], [9], [], [12, 3, 8, 1, 6]])
def test_values_within_matches_get_loop(idx):
    """The block a reader over some of the ids, in any order, gives of
    them against themselves holds each pair's value as the dense square
    does."""
    n = 14
    vals = np.random.default_rng(5).random(n * (n - 1) // 2)
    dm = condensed_dm([f"t{k}" for k in range(n)], vals)
    block = dm.block_reader([dm.ids[k] for k in idx])(0, len(idx), 0, len(idx))
    assert block.tobytes() == dense(dm)[np.ix_(idx, idx)].tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17])
def test_square_conversions_match_triu_reference(tmp_path, n):
    """The reader's whole square, and the triangle written from a square's
    upper rows, match a triu reference bit for bit, NaN included."""
    rng = np.random.default_rng(n)
    ids = [f"t{k}" for k in range(n)]
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.25] = np.nan
    iu = np.triu_indices(n, k=1)
    ref = np.zeros((n, n))
    ref[iu] = vals
    ref.T[iu] = vals
    sq = condensed_dm(ids, vals).block_reader(ids)(0, n, 0, n)
    assert sq.dtype == np.float64
    assert np.array_equal(sq, ref, equal_nan=True)
    # the upper rows leave the diagonal and the lower triangle unread
    noisy = ref.copy()
    noisy[np.tril_indices(n)] = -7.0
    rows = (row[i + 1 :] for i, row in enumerate(noisy))
    write_binary_rows(ids, rows, tmp_path / "m.bin")
    back = read_matrix_binary(tmp_path / "m.bin", MatrixKind.K80)
    assert back.ids == ids and back.kind is MatrixKind.K80
    assert condensed(back).tobytes() == ref[iu].tobytes()


def test_upper_rows_of_the_read_square_invert_it_bit_for_bit(tmp_path):
    rng = np.random.default_rng(37)
    rows = [f">r{i}\n{_random_seq(rng, 60, 'ACGTN-')}\n" for i in range(25)]
    rows.append(">blank\n" + "N" * 60 + "\n")  # NaN against everyone
    aln = parse_fasta("".join(rows))
    for kind in (MatrixKind.P_DISTANCE, MatrixKind.K80):
        dm = build_distance_matrix(aln, kind)
        assert dm.num_undefined() > 0
        sq = dm.block_reader(dm.ids)(0, dm.n, 0, dm.n)
        rows = (row[i + 1 :] for i, row in enumerate(sq))
        write_binary_rows(dm.ids, rows, tmp_path / "m.bin")
        back = read_matrix_binary(tmp_path / "m.bin", kind)
        assert condensed(back).tobytes() == condensed(dm).tobytes()


@pytest.mark.parametrize("permuted", [False, True])
def test_block_reader_matches_dense(permuted):
    """Blocks of a matrix with NaN cells, in its own id order or a shuffled
    one, equal the dense square's bit for bit: one-sided, straddling the
    diagonal, larger than one chunk, read in row chunks, and the upper
    triangles the median takes."""
    rng = np.random.default_rng(61)
    n = 300  # the whole square holds more than BLOCK_PAIRS pairs
    assert n * n > distance.BLOCK_PAIRS
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.02] = np.nan
    dm = condensed_dm([f"t{k}" for k in range(n)], vals, MatrixKind.PATRISTIC)
    order = rng.permutation(n) if permuted else np.arange(n)
    read = dm.block_reader([dm.ids[k] for k in order])
    sq = dense(dm)[np.ix_(order, order)]
    for r0, r1, c0, c1 in [
        (0, n, 0, n), (40, 300, 0, 40), (0, 40, 40, 300), (17, 18, 0, 300),
        (90, 200, 150, 260), (5, 5, 0, 9), (299, 300, 0, 299),
    ]:
        block = read(r0, r1, c0, c1)
        assert block.shape == (r1 - r0, c1 - c0)
        assert block.tobytes() == np.ascontiguousarray(sq[r0:r1, c0:c1]).tobytes()
    chunks = list(distance.row_chunks(0, n, n))
    assert len(chunks) > 1 and chunks[0][0] == 0 and chunks[-1][1] == n
    stacked = np.concatenate([read(a, b, 0, n) for a, b in chunks])
    assert stacked.tobytes() == sq.tobytes()
    for lo, hi in [(0, n), (31, 97), (150, 152)]:
        iu = np.triu_indices(hi - lo, k=1)
        assert read(lo, hi, lo, hi)[iu].tobytes() == sq[lo:hi, lo:hi][iu].tobytes()


def _cocluster(n, vals):
    return condensed_dm([f"t{k}" for k in range(n)], vals, MatrixKind.COCLUSTER)


def _nonzero_pairs(tmp_path, n, vals):
    """The pairs read_nonzero_pairs_binary gives of the written triangle."""
    write_matrix_binary(_cocluster(n, vals), tmp_path / "c.bin")
    return read_nonzero_pairs_binary(tmp_path / "c.bin")[1:]


def test_nonzero_pairs_two_ids(tmp_path):
    i, j, w = _nonzero_pairs(tmp_path, 2, [0.25])
    assert i.tolist() == [0] and j.tolist() == [1] and w.tolist() == [0.25]
    i, j, w = _nonzero_pairs(tmp_path, 2, [0.0])
    assert i.size == j.size == w.size == 0


@pytest.mark.parametrize("n", [0, 1, 3, 40])
def test_nonzero_pairs_all_zero(tmp_path, n):
    i, j, w = _nonzero_pairs(tmp_path, n, np.zeros(n * (n - 1) // 2))
    assert i.size == j.size == w.size == 0
    assert np.issubdtype(i.dtype, np.integer) and np.issubdtype(j.dtype, np.integer)


@pytest.mark.parametrize("n", [3, 4, 9])
def test_nonzero_pairs_first_and_last(tmp_path, n):
    vals = np.zeros(n * (n - 1) // 2)
    vals[0], vals[-1] = 0.5, 0.75
    i, j, w = _nonzero_pairs(tmp_path, n, vals)
    assert list(zip(i.tolist(), j.tolist(), w.tolist())) == [
        (0, 1, 0.5), (n - 2, n - 1, 0.75)
    ]


@pytest.mark.parametrize("n", [2, 5, 23, 64])
def test_nonzero_pairs_match_square(tmp_path, n):
    """Every pair of a random triangle, NaN included, in condensed order."""
    rng = np.random.default_rng(71 + n)
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.6] = 0.0
    vals[rng.random(vals.shape) < 0.05] = np.nan
    i, j, w = _nonzero_pairs(tmp_path, n, vals)
    sq = dense(_cocluster(n, vals))
    want = [(a, b) for a, b in itertools.combinations(range(n), 2) if sq[a, b] != 0]
    assert list(zip(i.tolist(), j.tolist())) == want
    assert w.tobytes() == sq[i, j].tobytes()


def test_threads_do_not_change_values():
    rng = np.random.default_rng(23)
    rows = [f">r{i}\n{_random_seq(rng, 400)}\n" for i in range(40)]
    aln = parse_fasta("".join(rows))
    one = build_distance_matrix(aln, MatrixKind.K80, threads=1)
    four = build_distance_matrix(aln, MatrixKind.K80, threads=4)
    assert np.array_equal(condensed(one), condensed(four), equal_nan=True)


_BLOCKS = [(0, 3, 3, 37), (5, 37, 0, 5), (9, 10, 10, 37), (0, 30, 30, 31), (0, 37, 0, 37)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "reader, r0, r1, c0, c1",
    [("p", *b) for b in _BLOCKS] + [("matrix", *b) for b in _BLOCKS],
    ids=[f"{r0}-{r1}-{c0}-{c1}" for r0, r1, c0, c1 in _BLOCKS]
    + [f"matrix-{r0}-{r1}-{c0}-{c1}" for r0, r1, c0, c1 in _BLOCKS],
)
def test_p_blocks_bit_equal_matrix(reader, r0, r1, c0, c1):
    """Wide, tall and one-sided blocks read the matrix's values bit for bit,
    NaN included, from the alignment whichever side the kernel loops over,
    and from the matrix itself."""
    rng = np.random.default_rng(41)
    seqs = [_random_seq(rng, 130) for _ in range(37)]
    seqs[4], seqs[30] = "N" * 130, "-" * 130  # nothing compared: NaN
    aln = parse_fasta("".join(f">r{i}\n{s}\n" for i, s in enumerate(seqs)))
    dm = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    sq = dense(dm)
    if reader == "p":
        read = distance.p_block_reader(aln)
    else:
        read = dm.block_reader(dm.ids)
    block = read(r0, r1, c0, c1)
    want = sq[r0:r1, c0:c1]
    off = np.arange(r0, r1)[:, None] != np.arange(c0, c1)[None, :]  # not i, i
    assert np.isnan(want[off]).any()
    assert want[off].tobytes() == block[off].tobytes()


@pytest.mark.parametrize("block", [1, 40, 65_536])
@pytest.mark.parametrize("n", [2, 9, 30])
def test_phylip_cells_are_each_values_own_format(tmp_path, monkeypatch, n, block):
    """Each phylip cell is "%.10g" of its own value, however the strips and
    the writer's shared tables of distinct values split the rows: -0 stays
    -0 beside 0, NaN of either sign is nan, repeated values are written
    alike, and a finite value past 10 digits of the largest double is
    clipped to them."""
    monkeypatch.setattr(distance, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(n + block)
    big = np.finfo(np.float64).max
    pool = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.25, 1 / 3, big, -big]
    m = n * (n - 1) // 2
    vals = np.where(rng.random(m) < 0.6, rng.choice(pool, m), rng.random(m))
    ids = [f"t{k}" for k in range(n)]
    dm = condensed_dm(ids, vals)
    want = [str(n)] + [
        f"{ident}  " + " ".join(
            "%.10g" % (min(max(v, -distance._PHYLIP_MAX), distance._PHYLIP_MAX)
                       if math.isfinite(v) else v)
            for v in row.tolist()
        )
        for ident, row in zip(ids, dense(dm))
    ]
    write_matrix_phylip(dm, tmp_path / "m.phy")
    assert (tmp_path / "m.phy").read_text().splitlines() == want


@pytest.mark.parametrize("block", [1, 5, 40, 65_536])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 17, 64])
def test_strips_tile_the_dense_square(tmp_path, monkeypatch, n, block):
    """Strips, whatever their height, cover rows 0..n-1 in order and equal
    the dense square bit for bit, NaN included, from a phylip read and
    from the .bin file written from it alike."""
    monkeypatch.setattr(distance, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(7 * n + block)
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.2] = np.nan
    ids = [f"t{k}" for k in range(n)]
    write_matrix_phylip(condensed_dm(ids, vals), tmp_path / "m.phy")
    held = read_matrix_phylip(tmp_path / "m.phy")
    assert np.allclose(condensed(held), vals, rtol=1e-9, atol=0, equal_nan=True)
    write_matrix_binary(held, tmp_path / "m.bin")
    back = read_matrix_binary(tmp_path / "m.bin")
    assert condensed(back).tobytes() == condensed(held).tobytes()
    want = dense(held)
    for dm in (held, back):
        got = [(a, strip.copy()) for a, strip in dm.strips()]
        assert [a for a, _ in got] == list(range(0, n, len(got[0][1]) if got else 1))
        square = np.concatenate([strip for _, strip in got]) if got else np.zeros((0, 0))
        assert square.tobytes() == want.tobytes()


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    vals = rng.random(10 * 9 // 2)
    vals[3] = np.nan
    dm = condensed_dm([f"s{i}" for i in range(10)], vals, MatrixKind.K80)
    path = tmp_path / "m.bin"
    write_matrix_binary(dm, path)
    back = read_matrix_binary(path, MatrixKind.K80)
    assert back.ids == dm.ids
    assert condensed(back).tobytes() == vals.tobytes()


def test_binary_copy_onto_its_own_file_keeps_it(tmp_path):
    """Writing a matrix read from a .bin file back to that file leaves its
    values in place; a built matrix is copied byte for byte."""
    aln = parse_fasta(">a\nACGT\n>b\nACGA\n>c\nNNNN\n")
    built = build_distance_matrix(aln, MatrixKind.P_DISTANCE)
    path = tmp_path / "m.bin"
    write_matrix_binary(built, path)
    want = condensed(built).tobytes()
    back = read_matrix_binary(path)
    write_matrix_binary(back, path)
    assert condensed(read_matrix_binary(path)).tobytes() == want
    assert path.stat().st_size == 13 + 8 * 3


@pytest.mark.parametrize("block", [1, 3, 7, 65_536])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 23])
def test_binary_nonzero_reader_matches_nonzero_pairs(tmp_path, monkeypatch, n, block):
    """Bit for bit the nonzero pairs of the written triangle, when nonzeros
    and NaNs straddle the block boundaries."""
    monkeypatch.setattr(distance, "BLOCK_PAIRS", block)
    rng = np.random.default_rng(53 + n)
    vals = rng.random(n * (n - 1) // 2)
    vals[rng.random(vals.shape) < 0.5] = 0.0
    vals[rng.random(vals.shape) < 0.1] = np.nan
    dm = _cocluster(n, vals)
    path = tmp_path / "m.bin"
    write_matrix_binary(dm, path)
    ids, i, j, w = read_nonzero_pairs_binary(path)
    i_all, j_all = np.triu_indices(n, k=1)
    hit = vals != 0
    assert ids == dm.ids
    for got, exp in zip((i, j, w), (i_all[hit], j_all[hit], vals[hit])):
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_binary_rows_writer_matches_matrix_writer(tmp_path, n):
    dm = _cocluster(n, np.random.default_rng(n).random(n * (n - 1) // 2))
    write_matrix_binary(dm, tmp_path / "a.bin")
    # rows past n - 2 are not read
    rows = [row[i + 1 :] for i, row in enumerate(dense(dm))]
    write_binary_rows(dm.ids, [*rows, np.ones(3)], tmp_path / "b.bin")
    for suffix in ("bin", "bin.ids"):
        a, b = (tmp_path / f"{k}.{suffix}" for k in "ab")
        assert a.read_bytes() == b.read_bytes(), suffix


def test_binary_rows_writer_rejects_short_rows(tmp_path):
    with pytest.raises(ValueError, match="rows fill 2 of 3"):
        write_binary_rows(["a", "b", "c"], [np.ones(2)], tmp_path / "m.bin")


def test_phylip_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    vals = rng.random(6 * 5 // 2)
    dm = condensed_dm([f"s{i}" for i in range(6)], vals)
    path = tmp_path / "m.phy"
    write_matrix_phylip(dm, path)
    back = read_matrix_phylip(path)
    assert back.ids == dm.ids
    assert np.allclose(condensed(back), vals, atol=1e-9)


@pytest.mark.parametrize(
    "text, ids, square",
    [("0\n", [], np.zeros((0, 0))), ("1\n\nx  0\n", ["x"], np.zeros((1, 1)))],
    ids=["count-0", "count-1"],
)
def test_phylip_of_no_pair_reads_empty(tmp_path, text, ids, square):
    """A count line of 0, or of 1 and its one row, reads as a matrix with
    no pair."""
    path = tmp_path / "m.phy"
    path.write_text(text)
    dm = read_matrix_phylip(path)
    assert dm.ids == ids and condensed(dm).size == 0 and dm.num_undefined() == 0
    assert dm.block_reader(ids)(0, len(ids), 0, len(ids)).tobytes() == square.tobytes()
    assert [strip.tolist() for _, strip in dm.strips()] == [square.tolist()] * len(ids)


def _write_bin(tmp_path):
    dm = condensed_dm(["a", "b", "c"], [0.1, 0.2, 0.3])
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


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: b"XXXX" + d[4:],
        lambda d: d[:12],
        lambda d: d[:4] + b"\x02" + d[5:],
        lambda d: d + b"\x00",
        lambda d: d[:-1],
        lambda d: b"",
    ],
)
def test_binary_nonzero_reader_rejects_malformed(tmp_path, edit):
    path = _write_bin(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(MalformedMatrix):
        read_nonzero_pairs_binary(path)


def test_binary_nonzero_reader_checks_the_sidecar(tmp_path):
    path = _write_bin(tmp_path)
    (tmp_path / "m.bin.ids").write_text("a\nb\n")
    with pytest.raises(MalformedMatrix, match="2 ids for n=3"):
        read_nonzero_pairs_binary(path)
    (tmp_path / "m.bin.ids").unlink()
    with pytest.raises(MalformedMatrix, match="sidecar"):
        read_nonzero_pairs_binary(path)


def test_binary_reads_are_fresh_float64_arrays(tmp_path):
    """A strip and a block read from a .bin file are writable float64
    arrays of their own: writing to them leaves the file alone."""
    path = _write_bin(tmp_path)
    back = read_matrix_binary(path)
    _, strip = next(back.strips())
    block = back.block_reader(back.ids)(0, 1, 1, 3)
    for got in (strip, block):
        assert got.dtype == np.float64 and got.flags.writeable
        got[0] = 0.5
    assert condensed(read_matrix_binary(path)).tolist() == [0.1, 0.2, 0.3]


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
        "2\na 0 1\nb x 0\n",  # non-numeric cell below the diagonal
        "2\na 0 x\nb 1 0\n",  # non-numeric cell in the first row
        "3\na 0 1\nb 1 0\n",  # missing row
    ],
)
def test_phylip_malformed_is_data_error(tmp_path, text):
    path = tmp_path / "m.phy"
    path.write_text(text)
    with pytest.raises(DataError):
        read_matrix_phylip(path)
