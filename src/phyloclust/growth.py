"""Cluster growth lower bounds from recent early-infection cases.

A case sequenced close to infection (stage PHI) and collected inside the
reliable window counts as growth the cluster accrued during that window.
Chronic cases collected before the window opened bound the cluster's
size at the start.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from .errors import EmptyList, MissingMetadata
from .io_formats import CaseMetadata, Partition, Stage


@dataclass(frozen=True)
class GrowthWindow:
    """Study window with the date PHI ascertainment became reliable."""

    window_start: datetime.date = datetime.date(2012, 1, 1)
    phi_reliable_start: datetime.date = datetime.date(2012, 7, 1)
    window_end: datetime.date = datetime.date(2016, 2, 1)

    def __post_init__(self):
        if not self.window_start < self.phi_reliable_start < self.window_end:
            raise ValueError("window dates must be strictly increasing")

    def is_recent_phi(self, m: CaseMetadata) -> bool:
        return (
            m.stage is Stage.PHI
            and self.phi_reliable_start <= m.collection_date <= self.window_end
        )

    def is_chronic_before(self, m: CaseMetadata) -> bool:
        chronic = (Stage.CHRONIC_UNTREATED, Stage.CHRONIC_TREATED)
        return m.stage in chronic and m.collection_date < self.phi_reliable_start


@dataclass(frozen=True)
class ClusterGrowthRow:
    """One stacked bar: pre-window floor, recent PHIs, everything else."""

    cluster_label: str
    total_size: int
    min_size_before_2012: int
    recent_phi_count: int
    other_count: int
    first_recent_phi_date: datetime.date | None
    last_recent_phi_date: datetime.date | None


def _meta_index(meta: list[CaseMetadata], p: Partition) -> dict[str, CaseMetadata]:
    by_id = {m.id: m for m in meta}
    for ident in p.assignment:
        if ident not in by_id:
            raise MissingMetadata(ident)
    return by_id


def growth_report(
    p: Partition,
    meta: list[CaseMetadata],
    w: GrowthWindow | None = None,
    top_k: int = 30,
) -> list[ClusterGrowthRow]:
    """Growth rows for the top_k largest clusters, largest first.

    recent_phi_count is a lower bound on cases the cluster accrued in
    [phi_reliable_start, window_end]; min_size_before_2012 counts
    chronic members collected before that window opened.  Raises
    ValueError when top_k is below 1.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    w = w or GrowthWindow()
    by_id = _meta_index(meta, p)
    clusters = p.clusters()
    labels = sorted(clusters, key=lambda lab: (-len(clusters[lab]), lab))
    rows = []
    for lab in labels[:top_k]:
        members = clusters[lab]
        phi_dates = sorted(
            by_id[i].collection_date for i in members if w.is_recent_phi(by_id[i])
        )
        before = sum(1 for i in members if w.is_chronic_before(by_id[i]))
        rows.append(
            ClusterGrowthRow(
                cluster_label=lab,
                total_size=len(members),
                min_size_before_2012=before,
                recent_phi_count=len(phi_dates),
                other_count=len(members) - before - len(phi_dates),
                first_recent_phi_date=phi_dates[0] if phi_dates else None,
                last_recent_phi_date=phi_dates[-1] if phi_dates else None,
            )
        )
    return rows


def phi_breakdown(
    p: Partition,
    meta: list[CaseMetadata],
    w: GrowthWindow | None = None,
) -> dict[str, int]:
    """Classify each recent PHI by the size of its cluster.

    Categories: singletons, pairs, clusters of five or more, and the
    remaining sizes (3 and 4) as other.
    """
    w = w or GrowthWindow()
    by_id = _meta_index(meta, p)
    size_of = {
        ident: len(members)
        for members in p.clusters().values()
        for ident in members
    }
    counts = {
        "singleton_count": 0,
        "pair_count": 0,
        "ge5_count": 0,
        "other_count": 0,
        "total_recent_phi": 0,
    }
    for ident in p.assignment:
        if not w.is_recent_phi(by_id[ident]):
            continue
        counts["total_recent_phi"] += 1
        size = size_of[ident]
        if size == 1:
            counts["singleton_count"] += 1
        elif size == 2:
            counts["pair_count"] += 1
        elif size >= 5:
            counts["ge5_count"] += 1
        else:
            counts["other_count"] += 1
    return counts


def growth_report_tsv(rows: list[ClusterGrowthRow]) -> str:
    header = (
        "cluster_label\ttotal_size\tmin_size_before_2012\trecent_phi_count"
        "\tother_count\tfirst_recent_phi_date\tlast_recent_phi_date"
    )
    lines = [header]
    for r in rows:
        lines.append(
            "\t".join(
                (
                    r.cluster_label,
                    str(r.total_size),
                    str(r.min_size_before_2012),
                    str(r.recent_phi_count),
                    str(r.other_count),
                    r.first_recent_phi_date.isoformat()
                    if r.first_recent_phi_date
                    else "",
                    r.last_recent_phi_date.isoformat()
                    if r.last_recent_phi_date
                    else "",
                )
            )
        )
    return "\n".join(lines) + "\n"


_BAR_HEIGHT = 16
_BAR_GAP = 6
_LEFT_PAD = 60
_TOP_PAD = 10
_PX_PER_CASE = 12.0
_LABEL_PAD = 6
_SEGMENT_FILLS = ("#7f1d1d", "#dc2626", "#d4d4d4")


def emit_growth_svg(rows: list[ClusterGrowthRow]) -> str:
    """Render rows as horizontal stacked bars, one per cluster.

    Segment widths are proportional to counts (fixed pixels per case),
    drawn in row order: pre-window floor, recent PHIs, other.  A date
    range annotates bars holding recent PHIs.  Output is deterministic.
    """
    if not rows:
        raise EmptyList("nothing to draw")
    max_total = max(r.total_size for r in rows)
    width = _LEFT_PAD + int(max_total * _PX_PER_CASE) + 180
    height = _TOP_PAD * 2 + len(rows) * (_BAR_HEIGHT + _BAR_GAP)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="10">'
    ]
    for k, r in enumerate(rows):
        y = _TOP_PAD + k * (_BAR_HEIGHT + _BAR_GAP)
        out.append(
            f'<text x="{_LEFT_PAD - _LABEL_PAD}" y="{y + _BAR_HEIGHT - 4}" '
            f'text-anchor="end">{r.cluster_label}</text>'
        )
        x = float(_LEFT_PAD)
        segments = (r.min_size_before_2012, r.recent_phi_count, r.other_count)
        for count, fill in zip(segments, _SEGMENT_FILLS):
            if count == 0:
                continue
            seg = count * _PX_PER_CASE
            out.append(
                f'<rect x="{x:.2f}" y="{y}" width="{seg:.2f}" '
                f'height="{_BAR_HEIGHT}" fill="{fill}"/>'
            )
            x += seg
        if r.recent_phi_count >= 1:
            assert r.first_recent_phi_date and r.last_recent_phi_date
            if r.recent_phi_count == 1:
                label = r.first_recent_phi_date.isoformat()
            else:
                label = (
                    f"{r.first_recent_phi_date.isoformat()} to "
                    f"{r.last_recent_phi_date.isoformat()}"
                )
            out.append(
                f'<text x="{x + _LABEL_PAD:.2f}" '
                f'y="{y + _BAR_HEIGHT - 4}">{label}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
