"""Record types and the text formats they travel in.

Parsers take text and return validated records; load_* helpers read files.
Serialization is deterministic so identical inputs produce byte-identical
output files.  Sequences are normalized on the way in: uppercase, U -> T,
'.' -> '-'.  Newick support labels are auto-scaled: if any numeric internal
label exceeds 1 the file is read as bootstrap percentages and every value
is divided by 100, otherwise values are taken as posterior probabilities.
"""

from __future__ import annotations

import csv
import datetime
import enum
import io
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import (
    BadDate,
    DataError,
    DuplicateId,
    DuplicateTipLabel,
    EmptyInput,
    IllegalCharacter,
    MissingColumn,
    NegativeBranchLength,
    RaggedAlignment,
    TrailingGarbage,
    UnassignedId,
    UnbalancedParentheses,
    UnknownStage,
)
from .phylo import Node, PhyloTree

log = logging.getLogger(__name__)

# Anything but the IUPAC nucleotide codes plus gap, after normalization.
_ILLEGAL = re.compile("[^ACGTRYSWKMBDHVN-]")

_NORMALIZE = str.maketrans("acgturyswkmbdhvn.", "ACGTURYSWKMBDHVN-")


@dataclass(frozen=True)
class SequenceRecord:
    """One aligned sequence; residues are normalized uppercase."""

    id: str
    residues: str


class Alignment:
    """Equal-length sequence records with unique ids."""

    def __init__(self, records: list[SequenceRecord]):
        if not records:
            raise EmptyInput("alignment has no records")
        sites = len(records[0].residues)
        seen: set[str] = set()
        for rec in records:
            if rec.id in seen:
                raise DuplicateId(rec.id)
            seen.add(rec.id)
            if len(rec.residues) != sites:
                raise RaggedAlignment(sites, len(rec.residues), rec.id)
        self.records = list(records)
        self._by_id = {rec.id: rec for rec in self.records}

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def sites(self) -> int:
        return len(self.records[0].residues)

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    def get(self, ident: str) -> SequenceRecord:
        try:
            return self._by_id[ident]
        except KeyError:
            raise UnassignedId(ident) from None

    def __contains__(self, ident: str) -> bool:
        return ident in self._by_id

    def __len__(self) -> int:
        return len(self.records)

    def subset(self, ids: Iterable[str]) -> "Alignment":
        return Alignment([self.get(i) for i in ids])


class Stage(enum.Enum):
    PHI = "PHI"
    CHRONIC_UNTREATED = "CHRONIC_UNTREATED"
    CHRONIC_TREATED = "CHRONIC_TREATED"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class CaseMetadata:
    id: str
    collection_date: datetime.date
    stage: Stage
    risk_group: str


class Partition:
    """Assignment of every id to one cluster label.

    Labels are opaque tokens compared only for equality.  An id whose
    label nobody else shares is a singleton.
    """

    def __init__(self, assignment: Mapping[str, str]):
        self.assignment = dict(assignment)

    # ------------------------------------------------------------- queries

    def ids(self) -> list[str]:
        return sorted(self.assignment)

    def label_of(self, ident: str) -> str:
        try:
            return self.assignment[ident]
        except KeyError:
            raise UnassignedId(ident) from None

    def clusters(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for ident in sorted(self.assignment):
            out.setdefault(self.assignment[ident], []).append(ident)
        return out

    def sizes(self) -> list[int]:
        return [len(v) for v in self.clusters().values()]

    def num_clusters(self) -> int:
        return len(set(self.assignment.values()))

    def multi_member_ids(self) -> set[str]:
        by_label = self.clusters()
        out: set[str] = set()
        for members in by_label.values():
            if len(members) > 1:
                out.update(members)
        return out

    def same_grouping(self, other: "Partition") -> bool:
        """Equality up to relabeling."""
        if set(self.assignment) != set(other.assignment):
            return False
        mine = {frozenset(v) for v in self.clusters().values()}
        theirs = {frozenset(v) for v in other.clusters().values()}
        return mine == theirs

    def restrict(self, ids: Iterable[str]) -> "Partition":
        return Partition({i: self.label_of(i) for i in ids})

    # --------------------------------------------------------- construction

    @classmethod
    def from_clusters(cls, groups: Iterable[Iterable[str]]) -> "Partition":
        assignment: dict[str, str] = {}
        ordered = sorted(
            (sorted(g) for g in groups), key=lambda g: g[0] if g else ""
        )
        for k, members in enumerate(ordered, start=1):
            for ident in members:
                if ident in assignment:
                    raise DuplicateId(ident)
                assignment[ident] = str(k)
        return cls(assignment)

    @classmethod
    def from_labels(cls, ids: Iterable[str], labels: Iterable[str]) -> "Partition":
        assignment: dict[str, str] = {}
        for ident, lab in zip(ids, labels, strict=True):
            if ident in assignment:
                raise DuplicateId(ident)
            assignment[ident] = str(lab)
        return cls(assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.assignment == other.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Partition of {len(self)} ids in {self.num_clusters()} clusters>"


# -------------------------------------------------------------------- FASTA


def parse_fasta(text: str) -> Alignment:
    """Parse FASTA text; the id is the first whitespace token of a header."""
    records: list[SequenceRecord] = []
    ident: str | None = None
    chunks: list[str] = []

    def flush():
        if ident is None:
            return
        residues = _normalize_residues("".join(chunks), ident)
        records.append(SequenceRecord(ident, residues))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise EmptyInput("header with no id")
            ident = header.split()[0]
            chunks = []
        else:
            if ident is None:
                raise DataError("sequence data before first FASTA header")
            chunks.append(line)
    flush()
    if not records:
        raise EmptyInput("no FASTA records")
    return Alignment(records)


def _normalize_residues(raw: str, ident: str) -> str:
    out = raw.translate(_NORMALIZE).replace("U", "T")
    bad = _ILLEGAL.search(out)
    if bad is not None:
        raise IllegalCharacter(bad.group(), ident, bad.start() + 1)
    return out


def fasta_string(alignment: Alignment, width: int = 70) -> str:
    parts: list[str] = []
    for rec in alignment.records:
        parts.append(f">{rec.id}\n")
        for k in range(0, len(rec.residues), width):
            parts.append(rec.residues[k : k + width] + "\n")
    return "".join(parts)


def load_fasta(path: str | Path) -> Alignment:
    return parse_fasta(Path(path).read_text())


def write_fasta(alignment: Alignment, path: str | Path) -> None:
    Path(path).write_text(fasta_string(alignment))


# ------------------------------------------------------------------- Newick


_RESERVED = "():,;"


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree; multifurcations are preserved.

    Numeric internal labels become support values (see module docstring
    for the percent/posterior convention).  A missing branch length is
    read as zero and counted on the tree's missing_lengths attribute.
    """
    s = text.strip()
    if not s:
        raise EmptyInput("empty Newick text")
    root = Node()
    node = root
    depth = 0
    just_closed = False
    i = 0
    n = len(s)
    end = -1
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c == "(":
            if node.children or node.label is not None or just_closed:
                raise UnbalancedParentheses(f"unexpected '(' at offset {i}")
            child = Node()
            node.add(child)
            node = child
            depth += 1
            i += 1
        elif c == ",":
            if node.parent is None:
                raise UnbalancedParentheses(f"',' outside parentheses at {i}")
            sib = Node()
            node.parent.add(sib)
            node = sib
            just_closed = False
            i += 1
        elif c == ")":
            if node.parent is None or depth == 0:
                raise UnbalancedParentheses(f"unmatched ')' at offset {i}")
            node = node.parent
            depth -= 1
            just_closed = True
            i += 1
        elif c == ":":
            k = i + 1
            while k < n and s[k].isspace():
                k += 1
            j = _scan_token(s, k)
            try:
                length = float(s[k:j])
            except ValueError:
                raise UnbalancedParentheses(
                    f"bad branch length {s[k:j]!r}"
                ) from None
            if length < 0:
                raise NegativeBranchLength(length, node.label or "")
            node.length = length
            i = j
        elif c == ";":
            if depth != 0:
                raise UnbalancedParentheses("unclosed '(' at end of tree")
            end = i
            break
        else:
            j = _scan_token(s, i)
            token = s[i:j]
            if node.label is not None or (node.children and not just_closed):
                raise UnbalancedParentheses(f"unexpected label {token!r}")
            node.label = token
            i = j
    if end < 0:
        raise UnbalancedParentheses("tree does not end with ';'")
    rest = s[end + 1 :].strip()
    if rest:
        raise TrailingGarbage(rest)

    tree = PhyloTree(root)
    _check_tip_labels(tree)
    _assign_supports(tree)
    # an unlengthed root is the norm; any other missing length reads as 0
    for nd in tree.preorder():
        if nd.parent is not None and nd.length is None:
            nd.length = 0.0
            tree.missing_lengths += 1
    if tree.missing_lengths:
        log.warning(
            "%d branch lengths missing, read as 0", tree.missing_lengths
        )
    return tree


def _scan_token(s: str, i: int) -> int:
    j = i
    while j < len(s) and s[j] not in _RESERVED and not s[j].isspace():
        j += 1
    if j == i:
        raise UnbalancedParentheses(f"expected a token at offset {i}")
    return j


def _check_tip_labels(tree: PhyloTree) -> None:
    seen: set[str] = set()
    for node in tree.preorder():
        if node.is_tip:
            if not node.label:
                raise UnbalancedParentheses("tip without a label")
            if node.label in seen:
                raise DuplicateTipLabel(node.label)
            seen.add(node.label)


def _assign_supports(tree: PhyloTree) -> None:
    numeric: list[tuple[Node, float]] = []
    for node in tree.preorder():
        if node.is_tip or node.label is None:
            continue
        try:
            val = float(node.label)
        except ValueError:
            continue
        if 0.0 <= val <= 100.0:
            numeric.append((node, val))
        else:
            log.warning(
                "internal label %r outside [0, 100], kept as a name",
                node.label,
            )
    if not numeric:
        return
    percent = any(v > 1.0 for _, v in numeric)
    for node, val in numeric:
        node.support = val / 100.0 if percent else val
        node.label = None


def newick_string(tree: PhyloTree) -> str:
    reps: dict[int, str] = {}
    for node in tree.postorder():
        if node.is_tip:
            body = node.label or ""
        else:
            inner = ",".join(reps.pop(id(c)) for c in node.children)
            tag = ""
            if node.support is not None:
                tag = _fmt_float(node.support)
            elif node.label:
                tag = node.label
            body = f"({inner}){tag}"
        if node.parent is not None and node.length is not None:
            body += f":{_fmt_float(node.length)}"
        reps[id(node)] = body
    return reps[id(tree.root)] + ";\n"


def _fmt_float(v: float) -> str:
    return f"{v:.10g}"


def load_newick(path: str | Path) -> PhyloTree:
    return parse_newick(Path(path).read_text())


def write_newick(tree: PhyloTree, path: str | Path) -> None:
    Path(path).write_text(newick_string(tree))


def parse_newick_list(text: str) -> list[PhyloTree]:
    """Parse a file of one tree per ';' (whitespace between trees ignored)."""
    out = []
    buf = []
    for ch in text:
        buf.append(ch)
        if ch == ";":
            out.append(parse_newick("".join(buf)))
            buf = []
    if "".join(buf).strip():
        raise TrailingGarbage("".join(buf).strip())
    if not out:
        raise EmptyInput("no trees in input")
    return out


def load_newick_list(path: str | Path) -> list[PhyloTree]:
    return parse_newick_list(Path(path).read_text())


# ----------------------------------------------------------------- metadata

_META_COLUMNS = ("id", "collection_date", "stage", "risk_group")


def parse_metadata(text: str) -> list[CaseMetadata]:
    """Parse a delimited table with id, collection_date, stage, risk_group.

    The delimiter (comma or tab) is detected from the header line; column
    order is free and extra columns are ignored.  Stage tokens are
    case-insensitive.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EmptyInput("empty metadata table")
    delim = "\t" if "\t" in lines[0] else ","
    reader = csv.reader(io.StringIO("\n".join(lines)), delimiter=delim)
    header = [h.strip().lower() for h in next(reader)]
    col: dict[str, int] = {}
    for name in _META_COLUMNS:
        if name not in header:
            raise MissingColumn(name)
        col[name] = header.index(name)

    out: list[CaseMetadata] = []
    seen: set[str] = set()
    for rownum, row in enumerate(reader, start=1):
        if not row:
            continue
        ident = row[col["id"]].strip()
        if ident in seen:
            raise DuplicateId(ident)
        seen.add(ident)
        raw_date = row[col["collection_date"]].strip()
        try:
            when = datetime.date.fromisoformat(raw_date)
        except ValueError:
            raise BadDate(raw_date, rownum) from None
        raw_stage = row[col["stage"]].strip().upper()
        try:
            stage = Stage(raw_stage)
        except ValueError:
            raise UnknownStage(row[col["stage"]].strip(), rownum) from None
        out.append(
            CaseMetadata(ident, when, stage, row[col["risk_group"]].strip())
        )
    if not out:
        raise EmptyInput("metadata table has no rows")
    return out


def metadata_string(rows: list[CaseMetadata]) -> str:
    parts = ["id,collection_date,stage,risk_group\n"]
    for r in rows:
        parts.append(
            f"{r.id},{r.collection_date.isoformat()},{r.stage.value},{r.risk_group}\n"
        )
    return "".join(parts)


def load_metadata(path: str | Path) -> list[CaseMetadata]:
    return parse_metadata(Path(path).read_text())


def write_metadata(rows: list[CaseMetadata], path: str | Path) -> None:
    Path(path).write_text(metadata_string(rows))


# ---------------------------------------------------------------- partition


def partition_string(p: Partition) -> str:
    parts = ["id,label\n"]
    for ident in p.ids():
        parts.append(f"{ident},{p.assignment[ident]}\n")
    return "".join(parts)


def write_partition(p: Partition, path: str | Path) -> None:
    """Two-column id,label table sorted by id; header always present."""
    Path(path).write_text(partition_string(p))


def parse_partition(text: str) -> Partition:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EmptyInput("empty partition table")
    header = [h.strip().lower() for h in lines[0].split(",")]
    if header[:2] != ["id", "label"]:
        raise MissingColumn("id,label header")
    assignment: dict[str, str] = {}
    for ln in lines[1:]:
        ident, _, label = ln.partition(",")
        ident = ident.strip()
        if ident in assignment:
            raise DuplicateId(ident)
        assignment[ident] = label.strip()
    return Partition(assignment)


def load_partition(path: str | Path) -> Partition:
    return parse_partition(Path(path).read_text())
