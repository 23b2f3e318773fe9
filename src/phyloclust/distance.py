"""Pairwise evolutionary distances and their on-disk formats.

Two alignment-based distances are provided: the proportion of differing
sites (p) and the two-parameter transition/transversion correction (K80).
Both use pairwise deletion: a site counts for a pair only when both
sequences hold a plain A/C/G/T there.  Both derive from one set of pair
counts (compared sites, mismatches, transitions), which a single
bit-packed kernel produces for one pair or for all pairs.  Tree-derived
path-length matrices share the same container so downstream clustering
code does not care where a matrix came from.

Matrices are stored condensed (upper triangle, row major).  NaN encodes an
undefined entry: an empty site overlap, or a saturated K80 pair whose log
argument is not positive.
"""

from __future__ import annotations

import enum
import logging
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from .errors import DuplicateId, EmptyInput, LengthMismatch, MalformedMatrix

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


class MatrixKind(enum.Enum):
    P_DISTANCE = "p"
    K80 = "k80"
    PATRISTIC = "patristic"
    COCLUSTER = "cocluster"


@dataclass(frozen=True)
class PairComparison:
    """Site counts for one sequence pair under pairwise deletion."""

    compared: int
    mismatches: int
    transitions: int
    transversions: int


def encode_sequence(residues: str) -> np.ndarray:
    """Map a residue string to uint8 codes (255 for non-ACGT symbols)."""
    raw = np.frombuffer(residues.encode("ascii"), dtype=np.uint8)
    return _CODE[raw]


def encode_alignment(alignment: "Alignment") -> np.ndarray:
    """Stack an alignment into an (n, sites) uint8 code matrix."""
    return np.vstack([encode_sequence(r.residues) for r in alignment.records])


# Pair counts come from three bit-planes per sequence, 64 sites to a
# uint64 word: valid (a plain A/C/G/T), bit 0 and bit 1 of the residue
# code.  For a pair, with v = va & vb, x0 = a0 ^ b0 and x1 = a1 ^ b1:
#   compared    = popcount(v)
#   mismatches  = popcount(v & (x0 | x1))
#   transitions = mismatches - popcount(v & x0)    (x0 = 0 and x1 = 1)
# Padding bits past the last site are not valid, so they never count.


def _pack_planes(codes: np.ndarray) -> np.ndarray:
    """Pack (n, sites) residue codes into (3, words, n) uint64 bit-planes.

    The planes are valid, code bit 0 and code bit 1.  Words run along the
    middle axis, so the rows after any one sequence are a slice whose
    inner axis is long.
    """
    n, sites = codes.shape
    words = -(-sites // 64)
    bits = np.packbits(
        np.stack([codes != 255, codes & 1, codes & 2]), axis=-1, bitorder="little"
    )
    padded = np.zeros((3, n, words * 8), dtype=np.uint8)
    padded[:, :, : bits.shape[2]] = bits
    return np.ascontiguousarray(padded.view(np.uint64).transpose(0, 2, 1))


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


def _count_rows(planes: np.ndarray, rows: Iterable[int], counts: np.ndarray) -> None:
    # Counts each row i against rows i+1.. into its condensed slice of
    # counts; the slices are disjoint, so stripes may run concurrently.
    # Row 2 of counts holds popcount(v & x0) until pair_counts fixes it up.
    n = planes.shape[2]
    work, pop = _scratch(planes)
    for i in rows:
        lo = condensed_index(n, i, i + 1)
        _count_against(
            planes, i, slice(i + 1, n), work, pop, counts[:, lo : lo + n - 1 - i]
        )


def pair_counts(codes: np.ndarray, threads: int = 1) -> np.ndarray:
    """Compared, mismatched and transition site counts of every pair.

    codes is an (n, sites) matrix from encode_alignment.  Returns a
    (3, n*(n-1)/2) int32 array whose rows hold compared sites,
    mismatches and transitions in condensed pair order.  threads splits
    the rows across a thread pool of at most min(threads, cores, n - 1)
    workers; the counts do not depend on it.
    """
    n = codes.shape[0]
    planes = _pack_planes(codes)
    counts = np.empty((3, condensed_size(n)), dtype=np.int32)
    workers = max(1, min(int(threads), os.cpu_count() or 1, n - 1))
    if workers == 1:
        _count_rows(planes, range(n - 1), counts)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [
                pool.submit(_count_rows, planes, range(w, n - 1, workers), counts)
                for w in range(workers)
            ]
            for f in futs:
                f.result()
    np.subtract(counts[1], counts[2], out=counts[2])
    return counts


def p_block_reader(codes: np.ndarray) -> Callable[[int, int, int, int], np.ndarray]:
    """p-distances between two runs of an alignment's sequences, on demand.

    codes is an (n, sites) matrix from encode_alignment.  The returned
    read(r0, r1, c0, c1) gives the (r1 - r0, c1 - c0) block of sequences
    r0..r1-1 against c0..c1-1, with NaN where a pair compares no site;
    each value is bit-identical to build_distance_matrix's.  It calls the
    pair-count kernel once per sequence of the block's smaller side.
    """
    planes = _pack_planes(codes)
    work, pop = _scratch(planes)

    def read(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        if r1 - r0 > c1 - c0:
            return read(c0, c1, r0, r1).T
        counts = np.empty((2, r1 - r0, c1 - c0), dtype=np.int32)
        for i in range(r0, r1):
            _count_against(planes, i, slice(c0, c1), work, pop, counts[:, i - r0])
        compared, mism = counts
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = mism / compared
        vals[compared == 0] = np.nan
        return vals

    return read


def compare_pair(x: str, y: str) -> PairComparison:
    """Count compared, differing, transition and transversion sites.

    Raises LengthMismatch when the two strings differ in length.
    """
    if len(x) != len(y):
        raise LengthMismatch(len(x), len(y))
    codes = np.vstack([encode_sequence(x), encode_sequence(y)])
    compared, mism, tsc = pair_counts(codes)[:, 0].tolist()
    return PairComparison(compared, mism, tsc, mism - tsc)


def p_distance(x: str, y: str) -> float:
    """Proportion of differing sites among pairwise-defined sites.

    NaN when no site is defined for the pair.
    """
    pc = compare_pair(x, y)
    if pc.compared == 0:
        return math.nan
    return pc.mismatches / pc.compared


def k80_distance(x: str, y: str) -> float:
    """Two-parameter distance -0.5*ln(1-2P-Q) - 0.25*ln(1-2Q).

    P and Q are the transition and transversion proportions among
    pairwise-defined sites.  NaN when the pair has no defined sites or
    either log argument is not positive (saturation).
    """
    pc = compare_pair(x, y)
    if pc.compared == 0:
        return math.nan
    p = pc.transitions / pc.compared
    q = pc.transversions / pc.compared
    w1 = 1.0 - 2.0 * p - q
    w2 = 1.0 - 2.0 * q
    if w1 <= 0.0 or w2 <= 0.0:
        return math.nan
    return -0.5 * math.log(w1) - 0.25 * math.log(w2) + 0.0  # -0.0 -> 0.0


def condensed_size(n: int) -> int:
    return n * (n - 1) // 2


def condensed_index(n: int, i: int, j: int) -> int:
    """Position of pair (i, j), i < j, in a condensed upper triangle."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class DistanceMatrix:
    """Symmetric pairwise distances over named sequences.

    values is the condensed upper triangle (row major, float64); NaN marks
    an undefined entry.  capped, when present, flags entries that were
    undefined before a cap policy replaced them.  The condensed layout is
    private to this module: other modules read it with upper_rows() or
    square(), write it with from_upper_rows() or from_square(), or pass
    values to scipy, which shares the layout.
    """

    def __init__(
        self,
        ids: list[str],
        values: np.ndarray,
        kind: MatrixKind,
        capped: np.ndarray | None = None,
    ):
        n = len(ids)
        if len(set(ids)) != n:
            seen: set[str] = set()
            for ident in ids:
                if ident in seen:
                    raise DuplicateId(ident)
                seen.add(ident)
        if values.shape != (condensed_size(n),):
            raise ValueError(
                f"condensed length {values.shape} does not match n={n}"
            )
        self.ids = list(ids)
        self.values = values
        self.kind = kind
        self.capped = capped
        self._index = {ident: k for k, ident in enumerate(self.ids)}

    @property
    def n(self) -> int:
        return len(self.ids)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.values[condensed_index(self.n, i, j)])

    def get_by_id(self, a: str, b: str) -> float:
        return self.get(self._index[a], self._index[b])

    def index_of(self, ident: str) -> int:
        return self._index[ident]

    def num_undefined(self) -> int:
        return int(np.count_nonzero(np.isnan(self.values)))

    @classmethod
    def from_square(
        cls, ids: list[str], sq: np.ndarray, kind: MatrixKind
    ) -> "DistanceMatrix":
        """Condense the upper triangle of a square matrix whose rows follow
        ids; the diagonal and the lower triangle are not read."""
        rows = (row[i + 1 :] for i, row in enumerate(sq))
        return cls.from_upper_rows(ids, rows, kind)

    @classmethod
    def from_upper_rows(
        cls, ids: list[str], rows: Iterable[np.ndarray], kind: MatrixKind
    ) -> "DistanceMatrix":
        """Fill a triangle from row i's distances to sequences i+1.., for
        i = 0 .. n-2, as upper_rows() yields them; rows past n-2 are not
        read."""
        n = len(ids)
        values = np.empty(condensed_size(n), dtype=np.float64)
        lo = 0
        for i, row in zip(range(n - 1), rows):
            hi = lo + n - 1 - i
            values[lo:hi] = row
            lo = hi
        if lo != values.size:
            raise ValueError(f"rows fill {lo} of {values.size} condensed values")
        return cls(ids, values, kind)

    def upper_rows(self) -> Iterator[np.ndarray]:
        """Row i's distances to sequences i+1.., for i = 0 .. n-2 (views)."""
        lo = 0
        for i in range(self.n - 1):
            hi = lo + self.n - 1 - i
            yield self.values[lo:hi]
            lo = hi

    def square(self) -> np.ndarray:
        """Materialize the full symmetric matrix (zero diagonal)."""
        out = np.zeros((self.n, self.n), dtype=np.float64)
        for i, row in enumerate(self.upper_rows()):
            out[i, i + 1 :] = out[i + 1 :, i] = row
        return out

    def values_within(self, idx: Iterable[int]) -> np.ndarray:
        """Condensed values for all pairs among the given indices."""
        idx = np.sort(np.fromiter(idx, dtype=np.int64))
        a, b = (idx[k] for k in np.triu_indices(len(idx), k=1))
        return self.values[a * (2 * self.n - a - 1) // 2 + (b - a - 1)]


def build_distance_matrix(
    alignment: "Alignment",
    kind: MatrixKind,
    cap: float | None = None,
    threads: int = 1,
) -> DistanceMatrix:
    """All-pairs p or K80 distances for an alignment.

    cap=None leaves undefined pairs as NaN; a float replaces them with that
    value and flags them in the capped array.  threads is passed to
    pair_counts, which clamps it to the cores and rows; results are
    identical for any thread count.
    """
    if kind is MatrixKind.PATRISTIC:
        raise ValueError("patristic matrices are built from a tree")
    if len(alignment.records) < 2:
        raise EmptyInput("need at least two sequences")
    compared, mism, tsc = pair_counts(encode_alignment(alignment), threads)

    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is MatrixKind.P_DISTANCE:
            vals = mism / compared
            vals[compared == 0] = np.nan
        else:
            p = tsc / compared
            q = (mism - tsc) / compared
            w1 = 1.0 - 2.0 * p - q
            w2 = 1.0 - 2.0 * q
            bad = (compared == 0) | (w1 <= 0.0) | (w2 <= 0.0)
            w1[bad] = 1.0
            w2[bad] = 1.0
            vals = -0.5 * np.log(w1) - 0.25 * np.log(w2)
            vals[bad] = np.nan

    capped = None
    if cap is not None:
        undef = np.isnan(vals)
        if undef.any():
            log.warning(
                "capping %d undefined %s distances at %g",
                int(undef.sum()),
                kind.value,
                cap,
            )
        vals = np.where(undef, cap, vals)
        capped = undef
    return DistanceMatrix(
        [r.id for r in alignment.records], vals, kind, capped
    )


# ------------------------------------------------------------- serialization


def write_matrix_phylip(dm: DistanceMatrix, path: str | Path) -> None:
    """Square whitespace-separated matrix with a leading count line."""
    sq = dm.square()
    cells = " ".join(["%.10g"] * dm.n)  # "nan" for an undefined cell
    with open(path, "w") as fh:
        fh.write(f"{dm.n}\n")
        for ident, row in zip(dm.ids, sq):
            fh.write(f"{ident}  {cells % tuple(row.tolist())}\n")


def read_matrix_phylip(
    path: str | Path, kind: MatrixKind = MatrixKind.P_DISTANCE
) -> DistanceMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        if not header:
            raise EmptyInput(str(path))
        try:
            n = int(header[0])
        except ValueError:
            raise MalformedMatrix(
                f"{path}: count line {header[0]!r} is not an integer"
            ) from None
        ids = []
        rows = []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != n + 1:
                raise MalformedMatrix(
                    f"{path}: row {parts[0]!r} has {len(parts) - 1} cells, "
                    f"expected {n}"
                )
            ids.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                raise MalformedMatrix(
                    f"{path}: row {parts[0]!r} holds a non-numeric cell"
                ) from None
    if len(ids) != n:
        raise MalformedMatrix(f"{path}: expected {n} rows, found {len(ids)}")
    sq = np.asarray(rows, dtype=np.float64).reshape(n, n)
    return DistanceMatrix.from_square(ids, sq, kind)


def write_matrix_binary(dm: DistanceMatrix, path: str | Path) -> None:
    """Compact triangle: magic, version u8, n u64 LE, float64 LE values.

    Sequence ids are not part of the binary layout; they are written to a
    sidecar text file <path>.ids, one id per line.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<B", _BINARY_VERSION))
        fh.write(struct.pack("<Q", dm.n))
        # a view of values on a little-endian host, a byte-swapped copy elsewhere
        fh.write(np.ascontiguousarray(dm.values, dtype="<f8"))
    with open(path.with_name(path.name + ".ids"), "w") as fh:
        fh.write("".join(f"{ident}\n" for ident in dm.ids))


def read_matrix_binary(
    path: str | Path, kind: MatrixKind = MatrixKind.P_DISTANCE
) -> DistanceMatrix:
    """Read write_matrix_binary's triangle and its <path>.ids sidecar."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(13)
        if head[:4] != _BINARY_MAGIC:
            raise MalformedMatrix(f"{path} is not a distance-matrix file")
        if len(head) < 13:
            raise MalformedMatrix(f"{path}: header is cut short")
        version, n = struct.unpack_from("<BQ", head, 4)
        if version != _BINARY_VERSION:
            raise MalformedMatrix(f"{path}: unsupported matrix version {version}")
        if size != 13 + 8 * condensed_size(n):
            raise MalformedMatrix(
                f"{path}: {size - 13} value bytes for n={n}, "
                f"expected {8 * condensed_size(n)}"
            )
        # straight into the array; astype copies only on a big-endian host
        vals = np.fromfile(fh, "<f8", condensed_size(n)).astype(np.float64, copy=False)
    sidecar = path.with_name(path.name + ".ids")
    try:
        ids = sidecar.read_text().split()
    except FileNotFoundError:
        raise MalformedMatrix(f"{path}: id sidecar {sidecar} is missing") from None
    if len(ids) != n:
        raise MalformedMatrix(f"{sidecar}: {len(ids)} ids for n={n}")
    return DistanceMatrix(ids, vals, kind)
