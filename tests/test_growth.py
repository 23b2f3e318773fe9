"""Growth accounting over study windows and the SVG report."""

import datetime
import re

import numpy as np
import pytest

from phyloclust import CaseMetadata, Partition, Stage
from phyloclust.errors import EmptyList, MissingMetadata
from phyloclust.growth import (
    ClusterGrowthRow,
    GrowthWindow,
    emit_growth_svg,
    growth_report,
    growth_report_tsv,
    phi_breakdown,
)

D = datetime.date


def meta_row(ident, date, stage=Stage.PHI):
    return CaseMetadata(ident, date, stage, "MSM")


def cohort_with_big_cluster():
    """One 20-member cluster: 8 recent PHIs, 5 chronic pre-window, 7 other."""
    ids, meta = [], []
    for k in range(8):
        ident = f"phi{k}"
        ids.append(ident)
        meta.append(meta_row(ident, D(2014, 3, 1 + k)))
    for k in range(5):
        ident = f"old{k}"
        ids.append(ident)
        meta.append(meta_row(ident, D(2010, 6, 1 + k), Stage.CHRONIC_UNTREATED))
    for k in range(7):
        ident = f"mid{k}"
        ids.append(ident)
        # chronic inside the window: neither recent PHI nor pre-window floor
        meta.append(meta_row(ident, D(2013, 1, 1 + k), Stage.CHRONIC_TREATED))
    part = Partition.from_labels(ids + ["lone"], ["big"] * 20 + ["solo"])
    meta.append(meta_row("lone", D(2015, 5, 5)))
    return part, meta


def test_twenty_member_cluster_with_eight_recent_phis():
    part, meta = cohort_with_big_cluster()
    rows = growth_report(part, meta)
    big = rows[0]
    assert big.total_size == 20
    assert big.recent_phi_count == 8
    assert big.min_size_before_2012 == 5
    assert big.other_count == 7
    assert big.first_recent_phi_date == D(2014, 3, 1)
    assert big.last_recent_phi_date == D(2014, 3, 8)


def test_chronic_only_cluster_has_no_dates():
    ids = ["c1", "c2", "c3"]
    meta = [meta_row(i, D(2009, 1, 1), Stage.CHRONIC_UNTREATED) for i in ids]
    rows = growth_report(Partition.from_labels(ids, ["1"] * 3), meta)
    assert rows[0].recent_phi_count == 0
    assert rows[0].first_recent_phi_date is None
    assert rows[0].last_recent_phi_date is None
    assert rows[0].min_size_before_2012 == 3


def test_phi_before_reliable_start_is_other():
    ids = ["a", "b"]
    meta = [
        meta_row("a", D(2012, 3, 1)),  # PHI but before reliability cutoff
        meta_row("b", D(2012, 8, 1)),
    ]
    rows = growth_report(Partition.from_labels(ids, ["1", "1"]), meta)
    assert rows[0].recent_phi_count == 1
    assert rows[0].other_count == 1


def test_window_end_inclusive():
    w = GrowthWindow()
    at_end = meta_row("x", w.window_end)
    past = meta_row("y", w.window_end + datetime.timedelta(days=1))
    assert w.is_recent_phi(at_end)
    assert not w.is_recent_phi(past)


def test_window_validation():
    with pytest.raises(ValueError):
        GrowthWindow(D(2013, 1, 1), D(2012, 7, 1), D(2016, 2, 1))


def test_missing_metadata_rejected():
    part = Partition.from_labels(["a", "b"], ["1", "1"])
    with pytest.raises(MissingMetadata) as exc:
        growth_report(part, [meta_row("a", D(2014, 1, 1))])
    assert exc.value.ident == "b"
    assert str(exc.value) == "no metadata row for id 'b'"


def _random_cohort(rng, n):
    ids = [f"s{i}" for i in range(n)]
    labels = [str(int(v)) for v in rng.integers(0, max(1, n // 3), n)]
    stages = list(Stage)
    start = D(2008, 1, 1)
    meta = []
    for i in ids:
        offset = int(rng.integers(0, 3600))
        stage = stages[int(rng.integers(0, len(stages)))]
        meta.append(meta_row(i, start + datetime.timedelta(days=offset), stage))
    return Partition.from_labels(ids, labels), meta


def test_report_matches_filter_recount():
    rng = np.random.default_rng(5)
    w = GrowthWindow()
    for _ in range(15):
        part, meta = _random_cohort(rng, int(rng.integers(5, 60)))
        by_id = {m.id: m for m in meta}
        rows = growth_report(part, meta, w, top_k=10_000)
        assert len(rows) == part.num_clusters()
        clusters = part.clusters()
        for r in rows:
            members = clusters[r.cluster_label]
            phis = [
                by_id[i]
                for i in members
                if by_id[i].stage is Stage.PHI
                and w.phi_reliable_start <= by_id[i].collection_date <= w.window_end
            ]
            before = [
                i
                for i in members
                if by_id[i].stage
                in (Stage.CHRONIC_UNTREATED, Stage.CHRONIC_TREATED)
                and by_id[i].collection_date < w.phi_reliable_start
            ]
            assert r.total_size == len(members)
            assert r.recent_phi_count == len(phis)
            assert r.min_size_before_2012 == len(before)
            assert r.other_count == len(members) - len(phis) - len(before)
            # bar components always add back up
            assert (
                r.min_size_before_2012 + r.recent_phi_count + r.other_count
                == r.total_size
            )


def test_report_totals_match_cohort_counts():
    rng = np.random.default_rng(7)
    w = GrowthWindow()
    part, meta = _random_cohort(rng, 80)
    rows = growth_report(part, meta, w, top_k=10_000)
    assert sum(r.recent_phi_count for r in rows) == sum(
        1 for m in meta if w.is_recent_phi(m)
    )
    assert sum(r.total_size for r in rows) == 80


def test_rows_ordered_largest_first():
    part, meta = cohort_with_big_cluster()
    rows = growth_report(part, meta)
    sizes = [r.total_size for r in rows]
    assert sizes == sorted(sizes, reverse=True)


def test_top_k_truncates():
    part, meta = cohort_with_big_cluster()
    rows = growth_report(part, meta, top_k=1)
    assert len(rows) == 1 and rows[0].total_size == 20


@pytest.mark.parametrize("top_k", [0, -1])
def test_top_k_below_one_is_rejected(top_k):
    part, meta = cohort_with_big_cluster()
    with pytest.raises(ValueError, match="top_k"):
        growth_report(part, meta, top_k=top_k)


def test_growth_monotone_in_window():
    rng = np.random.default_rng(11)
    part, meta = _random_cohort(rng, 50)
    narrow = GrowthWindow(D(2012, 1, 1), D(2013, 1, 1), D(2014, 1, 1))
    wide = GrowthWindow(D(2012, 1, 1), D(2012, 7, 1), D(2016, 2, 1))
    rows_n = {r.cluster_label: r for r in growth_report(part, meta, narrow, 10_000)}
    rows_w = {r.cluster_label: r for r in growth_report(part, meta, wide, 10_000)}
    for lab, rn in rows_n.items():
        assert rows_w[lab].recent_phi_count >= rn.recent_phi_count


def test_breakdown_all_singletons():
    ids = [f"s{i}" for i in range(4)]
    meta = [meta_row(i, D(2014, 1, 1)) for i in ids]
    part = Partition.from_labels(ids, [str(i) for i in range(4)])
    counts = phi_breakdown(part, meta)
    assert counts["singleton_count"] == counts["total_recent_phi"] == 4


def test_breakdown_cluster_of_five():
    ids = [f"s{i}" for i in range(5)]
    meta = [meta_row(i, D(2014, 1, 1)) for i in ids[:3]]
    meta += [meta_row(i, D(2009, 1, 1), Stage.CHRONIC_TREATED) for i in ids[3:]]
    part = Partition.from_labels(ids, ["1"] * 5)
    counts = phi_breakdown(part, meta)
    assert counts["ge5_count"] == 3
    assert counts["total_recent_phi"] == 3


def test_breakdown_matches_brute_force():
    rng = np.random.default_rng(13)
    w = GrowthWindow()
    for _ in range(10):
        part, meta = _random_cohort(rng, int(rng.integers(4, 50)))
        counts = phi_breakdown(part, meta, w)
        by_id = {m.id: m for m in meta}
        sizes = {i: len(c) for c in part.clusters().values() for i in c}
        expect = {"singleton_count": 0, "pair_count": 0, "ge5_count": 0,
                  "other_count": 0, "total_recent_phi": 0}
        for i in part.ids():
            if not w.is_recent_phi(by_id[i]):
                continue
            expect["total_recent_phi"] += 1
            s = sizes[i]
            key = ("singleton_count" if s == 1 else "pair_count" if s == 2
                   else "ge5_count" if s >= 5 else "other_count")
            expect[key] += 1
        assert counts == expect


def test_tsv_shape():
    part, meta = cohort_with_big_cluster()
    text = growth_report_tsv(growth_report(part, meta))
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[0] == "cluster_label"
    assert lines[1].split("\t")[1] == "20"
    assert len(lines) == 3


def test_svg_single_segment():
    row = ClusterGrowthRow("solo", 4, 0, 0, 4, None, None)
    svg = emit_growth_svg([row])
    assert svg.count("<rect") == 1


def test_svg_deterministic():
    part, meta = cohort_with_big_cluster()
    rows = growth_report(part, meta)
    assert emit_growth_svg(rows) == emit_growth_svg(list(rows))


def test_svg_widths_proportional():
    part, meta = cohort_with_big_cluster()
    rows = growth_report(part, meta)
    svg = emit_growth_svg(rows)
    widths = [float(w) for w in re.findall(r'width="([0-9.]+)" height="16"', svg)]
    counts = []
    for r in rows:
        counts += [c for c in (r.min_size_before_2012, r.recent_phi_count,
                               r.other_count) if c]
    assert len(widths) == len(counts)
    for w_px, count in zip(widths, counts):
        assert abs(w_px - count * 12.0) <= 0.5


def test_svg_date_annotations():
    part, meta = cohort_with_big_cluster()
    svg = emit_growth_svg(growth_report(part, meta))
    assert "2014-03-01 to 2014-03-08" in svg
    single = ClusterGrowthRow("one", 2, 0, 1, 1, D(2015, 2, 3), D(2015, 2, 3))
    assert ">2015-02-03<" in emit_growth_svg([single])


def test_svg_empty_rejected():
    with pytest.raises(EmptyList):
        emit_growth_svg([])
