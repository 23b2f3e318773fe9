"""Pairwise evolutionary distances and their on-disk formats.

Two alignment-based distances are provided: the proportion of differing
sites (p) and the two-parameter transition/transversion correction (K80).
Both use pairwise deletion: a site counts for a pair only when both
sequences hold a plain A/C/G/T there.  Both derive from one set of pair
counts (compared sites, mismatches, transitions), which one kernel over
bit-planes packed from the alignment gives for the triangle or a block.

A matrix is stored condensed (upper triangle, row major) in a file in
write_matrix_binary's layout: an unnamed temporary file for a built
matrix and for a phylip read, the .bin file itself for a binary read.
NaN encodes an undefined entry: an empty site overlap, or a saturated K80
pair whose log argument is not positive.
"""

from __future__ import annotations

import enum
import itertools
import logging
import os
import struct
import sys
import tempfile
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateId,
    EmptyInput,
    MalformedMatrix,
    text_input,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .io_formats import Alignment

log = logging.getLogger(__name__)

# Residue codes: A=0, C=1, G=2, T=3; anything else (gaps, ambiguity codes,
# N) is 255 and excluded by pairwise deletion.  With this code assignment
# the transitions A<->G and C<->T are exactly the pairs whose XOR is 2.
_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(b"ACGT"):
    _CODE[_c] = _i
    _CODE[ord(chr(_c).lower())] = _i

_BINARY_MAGIC = b"PCDM"
_BINARY_VERSION = 1
_HEADER = 13  # magic, version u8, n u64; the float64 values follow
_PHYLIP_MAX = 1.797693134e308  # the largest 10-digit value below the largest double


class MatrixKind(enum.Enum):
    P_DISTANCE = "p"
    K80 = "k80"
    PATRISTIC = "patristic"
    COCLUSTER = "cocluster"


# Pair counts come from three bit-planes per sequence, 64 sites to a
# uint64 word: valid (a plain A/C/G/T), bit 0 and bit 1 of the residue
# code.  For a pair, with v = va & vb, x0 = a0 ^ b0 and x1 = a1 ^ b1:
#   compared    = popcount(v)
#   mismatches  = popcount(v & (x0 | x1))
#   transitions = mismatches - popcount(v & x0)    (x0 = 0 and x1 = 1)
# Padding bits past the last site are not valid, so they never count.


def _pack_planes(alignment: "Alignment") -> np.ndarray:
    """Pack an alignment's residues into (3, words, n) uint64 bit-planes.

    The planes are valid, code bit 0 and code bit 1.  Words run along the
    middle axis, so the rows after any one sequence are a slice whose
    inner axis is long.  Each row_chunk of about BLOCK_PAIRS residues is
    joined, coded and packed one mask at a time: no (n, sites) array.
    """
    n, sites = alignment.n, alignment.sites
    words = -(-sites // 64)
    out = np.empty((3, words, n), dtype=np.uint64)
    for a, b in row_chunks(0, n, max(sites, 1)):
        joined = "".join(r.residues for r in alignment.records[a:b]).encode("ascii")
        codes = _CODE[np.frombuffer(joined, dtype=np.uint8)].reshape(b - a, sites)
        padded = np.zeros((b - a, words * 8), dtype=np.uint8)  # tail bytes stay zero
        for k in range(3):
            mask = codes != 255 if k == 0 else codes & k  # valid, bit 0, bit 1
            padded[:, : -(-sites // 8)] = np.packbits(mask, axis=-1, bitorder="little")
            out[k, :, a:b] = padded.view(np.uint64).T
    return out


def _count_against(
    planes: np.ndarray,
    i: int,
    cols: slice,
    work: np.ndarray,
    pop: np.ndarray,
    out: np.ndarray,
) -> None:
    # Counts sequence i against the sequences in cols into out, shape
    # (k, m): the first k of compared, mismatches and popcount(v & x0), so
    # p-distances (k = 2) skip the transition count.  work and pop are
    # scratch of at least m sequences.
    valid, bit0, bit1 = planes
    k, m = out.shape
    v, mism, x0 = work[:, :, :m]
    np.bitwise_and(valid[:, cols], valid[:, i, None], out=v)
    np.bitwise_xor(bit0[:, cols], bit0[:, i, None], out=x0)
    np.bitwise_xor(bit1[:, cols], bit1[:, i, None], out=mism)
    np.bitwise_or(mism, x0, out=mism)
    np.bitwise_and(mism, v, out=mism)
    if k == 3:
        np.bitwise_and(x0, v, out=x0)
    np.bitwise_count(work[:k, :, :m], out=pop[:k, :, :m])
    np.add.reduce(pop[:k, :, :m], axis=1, dtype=out.dtype, out=out)


def _scratch(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.empty(planes.shape, dtype=np.uint64),
        np.empty(planes.shape, dtype=np.uint8),
    )


def _p_values(compared: np.ndarray, mism: np.ndarray) -> np.ndarray:
    # mism / compared, NaN where no site is compared: 0/0 alone gives a
    # NaN with its sign bit set, so NaN is written over it
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = mism / compared
    vals[compared == 0] = np.nan
    return vals


def _k80_values(counts: np.ndarray) -> np.ndarray:
    # -0.5*ln(1-2P-Q) - 0.25*ln(1-2Q) from compared, mismatches and
    # transversions, NaN where no site is compared or a log argument is
    # not positive
    compared, mism, tv = counts
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (mism - tv) / compared
        q = tv / compared
        w1 = 1.0 - 2.0 * p - q
        w2 = 1.0 - 2.0 * q
        bad = (compared == 0) | (w1 <= 0.0) | (w2 <= 0.0)
        w1[bad] = 1.0
        w2[bad] = 1.0
        vals = -0.5 * np.log(w1) - 0.25 * np.log(w2)
    vals[bad] = np.nan
    return vals


def _fill_rows(
    planes: np.ndarray,
    rows: Iterable[int],
    fd: int,
    cap: float | None,
    k80: bool,
) -> int:
    # Counts each item i of rows, row i with row n-2-i of the triangle (the
    # middle row alone when they meet), turns their pairs into K80 or p
    # distances in one call and writes each row at its place in the
    # .bin-layout file open as fd.  With a cap, undefined values become
    # cap first; returns how many did.  The kernel scratch and one item's
    # counts are made here, once per call.
    n = planes.shape[2]
    work, pop = _scratch(planes)
    counts = np.empty((3 if k80 else 2, n), dtype=np.int32)
    capped = 0
    for item in rows:
        pair = sorted({item, n - 2 - item})
        ends = list(itertools.accumulate((n - 1 - i for i in pair), initial=0))
        for i, lo, hi in zip(pair, ends, ends[1:]):
            _count_against(planes, i, slice(i + 1, n), work, pop, counts[:, lo:hi])
        held = counts[:, : ends[-1]]
        vals = _k80_values(held) if k80 else _p_values(*held)
        if cap is not None:
            bad = np.isnan(vals)
            capped += int(np.count_nonzero(bad))
            vals[bad] = cap
        for i, lo, hi in zip(pair, ends, ends[1:]):
            _pwrite_all(fd, vals[lo:hi], _HEADER + 8 * (_row_shift(n, i) + i + 1))
    return capped


def _pwrite_all(fd: int, values: np.ndarray, offset: int) -> int:
    # Writes values as float64 LE at offset in the file open as fd, and
    # returns the offset past them.
    view = memoryview(np.ascontiguousarray(values, dtype="<f8")).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done
    return offset


class _Worker:
    """_fill_rows(*args) in a forked child process, which shares the
    parent's bit-planes and matrix file.  The child sends its capped
    count, or "TypeName: message" if it raised, down a pipe and leaves
    with os._exit, so it never returns into the caller nor flushes the
    stdio buffers it inherited."""

    def __init__(self, *args) -> None:
        rfd, wfd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(rfd)
            os.close(wfd)
            raise
        if self.pid:
            os.close(wfd)
            self._pipe = open(rfd, "rb")
            return
        status = 1
        try:
            os.close(rfd)
            try:
                reply, failed = str(_fill_rows(*args)), False
            except BaseException as exc:
                reply, failed = f"{type(exc).__name__}: {exc}", True
            with open(wfd, "wb") as pipe:
                pipe.write(reply.encode())
            status = int(failed)
        finally:
            os._exit(status)

    def result(self) -> int:
        """Waits for the child and returns its capped count; OSError names
        the error it raised or the signal that killed it."""
        with self._pipe:
            reply = self._pipe.read().decode(errors="replace")
        status = self._wait()
        if os.WIFSIGNALED(status):
            import signal  # only a failed build loads it

            num = os.WTERMSIG(status)
            raise OSError(
                f"distance worker killed by signal {num} ({signal.strsignal(num)})"
            )
        if os.WEXITSTATUS(status):
            raise OSError(f"distance worker failed: {reply}")
        return int(reply)

    def kill(self) -> None:
        """Kills and waits for the child unless result() has waited."""
        self._pipe.close()
        if self.pid:
            import signal  # only a failed build loads it

            os.kill(self.pid, signal.SIGKILL)
            self._wait()

    def _wait(self) -> int:
        pid, self.pid = self.pid, 0
        return os.waitpid(pid, 0)[1]


def p_block_reader(
    alignment: "Alignment",
) -> Callable[[int, int, int, int], np.ndarray]:
    """p-distances between two runs of an alignment's sequences, on demand.

    The alignment is held as its bit-planes.  The returned read(r0, r1,
    c0, c1) gives the (r1 - r0, c1 - c0) block of sequences r0..r1-1
    against c0..c1-1, with NaN where a pair compares no site; each value
    is bit-identical to build_distance_matrix's.  It calls the pair-count
    kernel once per sequence of the block's smaller side.
    """
    planes = _pack_planes(alignment)
    work, pop = _scratch(planes)

    def read(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        if r1 - r0 > c1 - c0:
            return read(c0, c1, r0, r1).T
        counts = np.empty((2, r1 - r0, c1 - c0), dtype=np.int32)
        for i in range(r0, r1):
            _count_against(planes, i, slice(c0, c1), work, pop, counts[:, i - r0])
        return _p_values(*counts)

    return read


def condensed_size(n: int) -> int:
    return n * (n - 1) // 2


# Pairs per block read, strip and binary stream, and residues per chunk
# of bit-plane packing: each takes a few arrays of that many numbers.
BLOCK_PAIRS = 65_536


def row_chunks(r0: int, r1: int, width: int) -> Iterator[tuple[int, int]]:
    """Runs [a, b) that split rows r0..r1 of width columns into blocks of
    about BLOCK_PAIRS pairs."""
    step = max(1, BLOCK_PAIRS // width)
    for a in range(r0, r1, step):
        yield a, min(a + step, r1)


def _row_shift(n, i):
    # The pair (i, j), i < j, of n ids sits at _row_shift(n, i) + j in the
    # condensed triangle; i is an int or an integer array.
    return i * (2 * n - i - 3) // 2 - 1


def _pair_of(n: int, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The pairs (i, j), i < j, at the sorted condensed positions pos.
    rows = np.arange(n - 1)
    shift = _row_shift(n, rows)
    i = np.searchsorted(shift + rows + 1, pos, side="right") - 1
    return i, pos - shift[i]


class DistanceMatrix:
    """Symmetric pairwise distances over named sequences.

    The values live in a file in write_matrix_binary's layout, open as fh:
    the condensed upper triangle (row major, float64) after a header, NaN
    marking an undefined entry.  A built matrix and a phylip read write
    theirs to an unnamed temporary file, and read_matrix_binary opens the
    .bin file itself.  The values are read as they are asked for: a slice
    is one os.preadv into a new array, and an integer index array gathers
    through a read-only mapping of the file whose pages are dropped after
    each read, so neither keeps the triangle resident.  The file stays
    open while the matrix lives.  Other modules read the values with
    strips() or block_reader(), and phylo's patristic fill places pairs
    with _row_shift.
    """

    def __init__(self, ids: list[str], fh: BinaryIO, kind: MatrixKind):
        weakref.finalize(self, fh.close)
        n = len(ids)
        if len(set(ids)) != n:
            seen: set[str] = set()
            for ident in ids:
                if ident in seen:
                    raise DuplicateId(ident)
                seen.add(ident)
        self.ids = list(ids)
        self.kind = kind
        self._index = {ident: k for k, ident in enumerate(self.ids)}
        self._size = condensed_size(n)
        self._fd = fh.fileno()
        self._flat: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.ids)

    def num_undefined(self) -> int:
        return sum(int(np.isnan(block).sum()) for _, block in self._blocks())

    def _read_into(self, lo: int, out: np.ndarray) -> None:
        # values lo, lo + 1, ... into the contiguous float64 array out
        if os.preadv(self._fd, [out], _HEADER + 8 * lo) != out.nbytes:
            raise MalformedMatrix("matrix file was cut short while open")
        if sys.byteorder == "big":
            out.byteswap(inplace=True)

    def _read(self, lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo)
        self._read_into(lo, out)
        return out

    def _gather(self, pos: np.ndarray) -> np.ndarray:
        import mmap  # only a command that gathers from a file loads it

        if self._flat is None:
            self._map = mmap.mmap(self._fd, 0, access=mmap.ACCESS_READ)
            self._flat = np.frombuffer(self._map, "<f8", self._size, _HEADER)
        out = self._flat[pos].astype(np.float64, copy=False)
        self._map.madvise(mmap.MADV_DONTNEED)
        return out

    def _blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        # (lo, values lo .. lo + BLOCK_PAIRS - 1) over the whole triangle
        for lo in range(0, self._size, BLOCK_PAIRS):
            yield lo, self._read(lo, min(lo + BLOCK_PAIRS, self._size))

    def strips(self) -> Iterator[tuple[int, np.ndarray]]:
        """(a, rows): the full symmetric rows a..b-1, 0 on the diagonal, in
        strips of BLOCK_PAIRS * 8 // n rows, or n // 8 when fewer, so a
        strip stays a small part of the matrix it comes from.  Every strip
        is a view of one buffer: use it before asking for the next.  A
        strip's columns before a are one read per earlier row; its own
        rows are one read each."""
        n = self.n
        height = max(1, min(BLOCK_PAIRS * 8 // max(n, 1), n // 8))
        # column major: row r < a holds its pairs with a..b-1 side by
        # side, and they fill column r of the strip in one read
        buf = np.empty((n, min(height, n))).T
        for a in range(0, n, height):
            b = min(a + height, n)
            strip = buf[: b - a]
            for r, at in enumerate((_row_shift(n, np.arange(a)) + a).tolist()):
                self._read_into(at, strip[:, r])
            for k, i in enumerate(range(a, b)):
                lo = _row_shift(n, i) + i + 1
                strip[k, a:i] = strip[:k, i]
                strip[k, i] = 0.0
                strip[k, i + 1 :] = self._read(lo, lo + n - 1 - i)
            yield a, strip

    def block_reader(
        self, ids: list[str]
    ) -> Callable[[int, int, int, int], np.ndarray]:
        """Blocks of the full symmetric matrix over an order of its ids.

        The returned read(r0, r1, c0, c1) gives the (r1 - r0, c1 - c0)
        block of ids[r0:r1] against ids[c0:c1], 0 where an id meets itself,
        as p_block_reader's read does.  The block is a transposed view, and
        its gather takes a few integer arrays of its size: read a large
        block in row_chunks.
        """
        n = self.n
        order = np.array([self._index[i] for i in ids], dtype=np.int64)
        shift = _row_shift(n, order)
        ascending = bool(np.all(order[1:] > order[:-1]))

        def read(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
            a, b = order[c0:c1, None], order[r0:r1]
            if ascending and c1 <= r0:  # every column id before every row id
                return self._gather(shift[c0:c1, None] + b).T
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            # a cell of an id against itself reads a stand-in, then 0
            pos = _row_shift(n, lo) + hi
            out = self._gather(pos) if self._size else np.zeros(pos.shape)
            out[lo == hi] = 0.0
            return out.T

        return read


def _matrix_file(n: int) -> BinaryIO:
    # An unnamed temporary file (under TMPDIR) in write_matrix_binary's
    # layout for n ids, its values still to be written; it is gone once
    # closed.
    fh = tempfile.TemporaryFile()
    os.pwrite(fh.fileno(), _binary_header(n), 0)
    os.ftruncate(fh.fileno(), _HEADER + 8 * condensed_size(n))
    return fh


def _write_rows(fd: int, rows: Iterable[np.ndarray]) -> int:
    # Writes rows one after another into the file open as fd, from the
    # first value's place in write_matrix_binary's layout; returns how
    # many values they hold.
    at = _HEADER
    for row in rows:
        at = _pwrite_all(fd, row, at)
    return (at - _HEADER) // 8


def build_distance_matrix(
    alignment: "Alignment",
    kind: MatrixKind,
    cap: float | None = None,
    threads: int = 1,
) -> DistanceMatrix:
    """All-pairs p or K80 distances for an alignment.

    cap=None leaves undefined pairs as NaN; a float replaces them with that
    value and logs how many it replaced.  Each of n // 2 items pairs row
    i of the triangle with row n-2-i, n pairs between them (when n is
    even, the middle row stands alone).  An item is counted and
    transformed at once and its rows written into an unnamed temporary
    file (under TMPDIR) in write_matrix_binary's layout, which the matrix
    then reads; the file is gone once the matrix is.  threads deals the
    items in turn to min(threads, cores, n - 1) workers, each making its
    own kernel scratch and one item's counts; results are identical for
    any count.  Worker 0 is the calling process, and each other worker a
    forked child (one worker where os.fork does not exist), so no two
    share an interpreter lock.  A worker that fails raises OSError naming
    its error; a child left when the build fails is killed and waited for.
    """
    if kind is MatrixKind.PATRISTIC:
        raise ValueError("patristic matrices are built from a tree")
    if len(alignment.records) < 2:
        raise EmptyInput("need at least two sequences")
    planes = _pack_planes(alignment)
    n = planes.shape[2]
    dm = DistanceMatrix([r.id for r in alignment.records], _matrix_file(n), kind)
    workers = max(1, min(int(threads), os.cpu_count() or 1, n - 1))
    if not hasattr(os, "fork"):
        workers = 1
    items = range(n // 2)
    rest = (dm._fd, cap, kind is MatrixKind.K80)
    children: list[_Worker] = []
    try:
        for w in range(1, workers):
            children.append(_Worker(planes, items[w::workers], *rest))
        capped = _fill_rows(planes, items[::workers], *rest)
        capped += sum(child.result() for child in children)
    finally:
        for child in children:
            child.kill()
    if capped:
        log.warning("capping %d undefined %s distances at %g", capped, kind.value, cap)
    return dm


# ------------------------------------------------------------- serialization


def write_matrix_phylip(dm: DistanceMatrix, path: str | Path) -> None:
    """Square whitespace-separated matrix with a leading count line.

    The distinct values of each eight rows are formatted once with %.10g
    ("nan" for an undefined cell), keyed on their bits so that -0 stays
    apart from 0, and each row is joined from that table.  The table's
    sort takes a few arrays of eight rows: a whole strip's would hold
    several times the strip."""
    with open(path, "w") as fh:
        fh.write(f"{dm.n}\n")
        for a, strip in dm.strips():
            # 10 digits round a finite cell near the largest double up to inf
            np.clip(strip, -_PHYLIP_MAX, _PHYLIP_MAX, strip, where=np.isfinite(strip))
            for r0 in range(0, len(strip), 8):
                rows = strip[r0 : r0 + 8]
                keys, index = np.unique(rows.view(np.uint64), return_inverse=True)
                table = np.array(
                    ["%.10g" % v for v in keys.view(np.float64).tolist()], dtype=object
                )
                for ident, row in zip(dm.ids[a + r0 :], index.reshape(rows.shape)):
                    fh.write(f"{ident}  {' '.join(table[row].tolist())}\n")


def read_matrix_phylip(
    path: str | Path, kind: MatrixKind = MatrixKind.P_DISTANCE
) -> DistanceMatrix:
    """write_matrix_phylip's square.  Each row's cells right of the
    diagonal are written, as the row is read, into an unnamed temporary
    file (under TMPDIR) in write_matrix_binary's layout, which the matrix
    then reads; the file is gone once the matrix is."""
    with text_input(path), open(path) as lines:
        header = lines.readline().split()
        if not header:
            raise EmptyInput(str(path))
        try:
            n = int(header[0])
        except ValueError:
            raise MalformedMatrix(
                f"{path}: count line {header[0]!r} is not an integer"
            ) from None
        ids: list[str] = []
        rows = _phylip_rows(path, lines, n, ids)
        # the file is made once a row of n cells backs the count; with no
        # row, the count is 0 or an error follows
        head = list(itertools.islice(rows, 1))
        fh = _matrix_file(n if head else 0)
        try:
            _write_rows(fh.fileno(), itertools.chain(head, rows))
            if len(ids) != n:
                raise MalformedMatrix(f"{path}: expected {n} rows, found {len(ids)}")
        except BaseException:
            fh.close()
            raise
    return DistanceMatrix(ids, fh, kind)


def _phylip_rows(
    path: str | Path, lines: Iterable[str], n: int, ids: list[str]
) -> Iterator[np.ndarray]:
    # The cells right of the diagonal of each row of n cells in lines,
    # appending the row's id to ids; blank lines are skipped.
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != n + 1:
            raise MalformedMatrix(
                f"{path}: row {parts[0]!r} has {len(parts) - 1} cells, "
                f"expected {n}"
            )
        try:
            row = np.array(parts[1:], dtype=np.float64)
        except ValueError:
            raise MalformedMatrix(
                f"{path}: row {parts[0]!r} holds a non-numeric cell"
            ) from None
        ids.append(parts[0])
        yield row[len(ids) :]


def write_matrix_binary(dm: DistanceMatrix, path: str | Path) -> None:
    """Compact triangle: magic, version u8, n u64 LE, float64 LE values.

    Sequence ids are not part of the binary layout; they are written to a
    sidecar text file <path>.ids, one id per line.  The matrix's own file
    is copied byte for byte.
    """
    path = Path(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        # the file itself is already written; a copy onto it would empty it
        if not os.path.sameopenfile(fd, dm._fd):
            os.ftruncate(fd, 0)
            done, size = 0, _HEADER + 8 * dm._size
            while done < size:
                sent = os.sendfile(fd, dm._fd, done, size - done)
                if not sent:
                    raise MalformedMatrix("matrix file was cut short while open")
                done += sent
    finally:
        os.close(fd)
    _write_ids(dm.ids, path)


def write_binary_rows(
    ids: list[str], rows: Iterable[np.ndarray], path: str | Path
) -> None:
    """write_matrix_binary's file from row i's values to ids i+1.., for
    i = 0 .. n-2; one row is held at a time and rows past n-2 are not
    read."""
    path = Path(path)
    n = len(ids)
    with open(path, "wb") as fh:
        os.pwrite(fh.fileno(), _binary_header(n), 0)
        written = _write_rows(fh.fileno(), (row for _, row in zip(range(n - 1), rows)))
    if written != condensed_size(n):
        raise ValueError(f"rows fill {written} of {condensed_size(n)} condensed values")
    _write_ids(ids, path)


def _binary_header(n: int) -> bytes:
    return _BINARY_MAGIC + struct.pack("<BQ", _BINARY_VERSION, n)


def _write_ids(ids: list[str], path: Path) -> None:
    with open(path.with_name(path.name + ".ids"), "w") as fh:
        fh.write("".join(f"{ident}\n" for ident in ids))


def _binary_ids(path: Path, fh: BinaryIO) -> list[str]:
    # Checks the header, size and id sidecar of write_matrix_binary's file
    # open at its start as fh, and returns the ids.
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER)
    if head[:4] != _BINARY_MAGIC:
        raise MalformedMatrix(f"{path} is not a distance-matrix file")
    if len(head) < _HEADER:
        raise MalformedMatrix(f"{path}: header is cut short")
    version, n = struct.unpack_from("<BQ", head, 4)
    if version != _BINARY_VERSION:
        raise MalformedMatrix(f"{path}: unsupported matrix version {version}")
    if size != _HEADER + 8 * condensed_size(n):
        raise MalformedMatrix(
            f"{path}: {size - _HEADER} value bytes for n={n}, "
            f"expected {8 * condensed_size(n)}"
        )
    sidecar = path.with_name(path.name + ".ids")
    try:
        with text_input(sidecar):
            ids = sidecar.read_text().split()
    except FileNotFoundError:
        raise MalformedMatrix(f"{path}: id sidecar {sidecar} is missing") from None
    if len(ids) != n:
        raise MalformedMatrix(f"{sidecar}: {len(ids)} ids for n={n}")
    return ids


def read_matrix_binary(
    path: str | Path, kind: MatrixKind = MatrixKind.P_DISTANCE
) -> DistanceMatrix:
    """Open write_matrix_binary's triangle and its <path>.ids sidecar, once
    its header, size and sidecar check out; the values stay in the file
    and are read as they are asked for."""
    path = Path(path)
    fh = open(path, "rb")
    try:
        ids = _binary_ids(path, fh)
    except BaseException:
        fh.close()
        raise
    return DistanceMatrix(ids, fh, kind)


def read_nonzero_pairs_binary(
    path: str | Path,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The ids of write_matrix_binary's file and its pairs whose value is
    not zero (NaN included), as arrays i, j and value with i < j, in
    condensed (row-major) order.  The triangle is read in blocks of
    BLOCK_PAIRS values and never held whole."""
    dm = read_matrix_binary(path, MatrixKind.COCLUSTER)
    positions, weights = [np.empty(0, np.int64)], [np.empty(0)]
    for lo, block in dm._blocks():
        hit = np.flatnonzero(block)
        positions.append(hit + lo)
        weights.append(block[hit])
    pos = np.concatenate(positions)
    return (dm.ids, *_pair_of(dm.n, pos), np.concatenate(weights))
