"""Record types and the text formats they travel in.

Parsers take text and return validated records; load_* helpers read files,
and report a file that is not valid text as a DataError naming it.
Serialization is deterministic so identical inputs produce byte-identical
output files.  Sequences are normalized on the way in: uppercase, U -> T,
'.' -> '-'.

Newick is read in this subset: labels are unquoted runs of anything but
whitespace and ( ) : , ; and brackets are label characters, not comments.
A numeric internal label in [0, 100] is a support value, auto-scaled per
tree: if any exceeds 1 the tree is read as bootstrap percentages and every
value is divided by 100, otherwise values are taken as posterior
probabilities.  A missing branch length reads as 0, and one warning gives
their count.  Each tree is read in one pass over its tokens, so of several
faults in one input the first met in reading order is reported; a tip's
missing label is met at the ',' or ')' that ends the tip.
"""

from __future__ import annotations

import csv
import datetime
import enum
import io
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import (
    BadDate,
    DataError,
    DuplicateId,
    DuplicateTipLabel,
    EmptyInput,
    IllegalCharacter,
    MalformedRow,
    MissingColumn,
    NegativeBranchLength,
    RaggedAlignment,
    TrailingGarbage,
    UnassignedId,
    UnbalancedParentheses,
    UnknownStage,
    text_input,
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
    return _parse_fasta_lines(text.splitlines())


def _parse_fasta_lines(lines: Iterable[str]) -> Alignment:
    records: list[SequenceRecord] = []
    ident: str | None = None
    chunks: list[str] = []

    def flush():
        if ident is None:
            return
        residues = _normalize_residues("".join(chunks), ident)
        records.append(SequenceRecord(ident, residues))

    for line in lines:
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


def _read_text(path: str | Path) -> str:
    with text_input(path):
        return Path(path).read_text()


def load_fasta(path: str | Path) -> Alignment:
    """parse_fasta of the file at path, read a line at a time."""
    with text_input(path), open(path) as fh:
        # str.splitlines breaks lines at more characters than a file does
        return _parse_fasta_lines(line for chunk in fh for line in chunk.splitlines())


def write_fasta(alignment: Alignment, path: str | Path) -> None:
    Path(path).write_text(fasta_string(alignment))


# ------------------------------------------------------------------- Newick


# a reserved character, or a run of anything but those and whitespace
_TOKEN = re.compile(r"[():,]|[^():,;\s]+")


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree; multifurcations are preserved.

    Numeric internal labels become support values (see module docstring
    for the percent/posterior convention).  A missing branch length is
    read as zero, and one warning gives their count.
    """
    if not text.strip():
        raise EmptyInput("empty Newick text")
    body, semi, rest = text.partition(";")
    tree, missing = _read_tree(text, 0, len(body))
    if not semi:
        raise UnbalancedParentheses("tree does not end with ';'")
    if rest.strip():
        raise TrailingGarbage(rest.strip())
    if missing:
        log.warning("%d branch lengths missing, read as 0", missing)
    return tree


def _read_tree(text: str, pos: int, endpos: int) -> tuple[PhyloTree, int]:
    # The tree in text[pos:endpos], the text before its ';', and its count
    # of missing lengths, from one pass over its tokens.  A label on a node
    # with children (read after its ')') is internal; one on a node without
    # them is a tip's, since no '(' may follow a label.  An unlabelled tip
    # shows only where its text ends: at the next ',' or ')', or at endpos.
    root = node = Node()
    tips: set[str] = set()
    supports: list[tuple[Node, float]] = []
    missing = 0
    tokens = _TOKEN.finditer(text, pos, endpos)
    for m in tokens:
        tok = m.group()
        if tok == ":":
            value = next(tokens, None)
            value = "" if value is None else value.group()
            try:
                length = float(value)
            except ValueError:
                length = math.nan
            if not math.isfinite(length):
                raise UnbalancedParentheses(
                    f"bad branch length {value!r} at offset {m.start()}"
                )
            if length < 0:
                raise NegativeBranchLength(length, node.label or "")
            node.length = length
        elif tok == "," or tok == ")":
            if node.parent is None:
                raise UnbalancedParentheses(
                    f"unmatched {tok!r} at offset {m.start()}"
                )
            if node.label is None and not node.children:
                raise UnbalancedParentheses(
                    f"tip without a label at offset {m.start()}"
                )
            if node.length is None:
                node.length = 0.0
                missing += 1
            node = node.parent.add(Node()) if tok == "," else node.parent
        elif tok == "(":
            if node.children or node.label is not None:
                raise UnbalancedParentheses(
                    f"unexpected '(' at offset {m.start()}"
                )
            node = node.add(Node())
        elif node.label is not None:
            raise UnbalancedParentheses(
                f"unexpected label {tok!r} at offset {m.start()}"
            )
        elif not node.children:
            if tok in tips:
                raise DuplicateTipLabel(tok)
            tips.add(tok)
            node.label = tok
        else:
            node.label = tok
            try:
                val = float(tok)
            except ValueError:
                continue
            if 0.0 <= val <= 100.0:
                supports.append((node, val))
            else:
                log.warning(
                    "internal label %r outside [0, 100], kept as a name", tok
                )
    if node is not root:
        raise UnbalancedParentheses("unclosed '(' at end of tree")
    if root.label is None and not root.children:
        raise UnbalancedParentheses("tip without a label")
    percent = any(val > 1.0 for _, val in supports)
    for nd, val in supports:
        nd.support = val / 100.0 if percent else val
        nd.label = None
    return PhyloTree(root), missing


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
    return parse_newick(_read_text(path))


def write_newick(tree: PhyloTree, path: str | Path) -> None:
    Path(path).write_text(newick_string(tree))


def parse_newick_list(text: str) -> list[PhyloTree]:
    """Parse a file of one tree per ';' (whitespace between trees ignored)."""
    *bodies, rest = text.split(";")
    trees: list[PhyloTree] = []
    missing = pos = 0
    for body in bodies:
        tree, count = _read_tree(text, pos, pos + len(body))
        trees.append(tree)
        missing += count
        pos += len(body) + 1
    if rest.strip():
        raise TrailingGarbage(rest.strip())
    if not trees:
        raise EmptyInput("no trees in input")
    if missing:
        log.warning("%d branch lengths missing, read as 0", missing)
    return trees


def load_newick_list(path: str | Path) -> list[PhyloTree]:
    return parse_newick_list(_read_text(path))


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
    width = max(col.values()) + 1

    out: list[CaseMetadata] = []
    seen: set[str] = set()
    for rownum, row in enumerate(reader, start=1):
        if len(row) < width:
            raise MalformedRow(
                rownum, f"{len(row)} cells; the required columns need {width}"
            )
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
    return parse_metadata(_read_text(path))


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
    for rownum, ln in enumerate(lines[1:], start=1):
        ident, comma, label = ln.partition(",")
        ident, label = ident.strip(), label.strip()
        if not comma:
            raise MalformedRow(rownum, f"no ',' between id and label in {ln!r}")
        if not ident:
            raise MalformedRow(rownum, "empty id")
        if not label:
            raise MalformedRow(rownum, f"empty label for {ident!r}")
        if ident in assignment:
            raise DuplicateId(ident)
        assignment[ident] = label
    return Partition(assignment)


def load_partition(path: str | Path) -> Partition:
    return parse_partition(_read_text(path))
