"""Detection metrics: ``evaluate`` scores a detection run against ground
truth with the AP/AR summary over an IoU threshold sweep; ``iou`` and
``validate_thresholds`` are the box overlap and sweep check it uses.

The summary follows the COCO protocol in outline: AP is the mean of
101-point interpolated precision over thresholds 0.50..0.95, and AR is
the mean final recall with detections capped per image.  In the small
and medium strata, ground truth outside the stratum becomes an ignore
region: a detection absorbed by one is ignored, and so is an unmatched
detection whose own area falls outside the stratum.  Strata with no
eligible ground truth report the sentinel -1.  Cells, one (category,
image) pair each, are visited in (category id, image id) order, as COCO
does, so the order a file lists them in never moves a score.  What
``evaluate`` needs from the ground truth under a threshold sweep is one
table, built once per dataset and sweep, on its first ``evaluate``, from
that dataset's own records; it serves every cap.  ``Dataset.subset``
returns one fold per image set, so each fold's tables are built once
too.  ``_score`` sorts, caps, matches and accumulates a run once into a
``_Scored`` record; ``evaluate`` takes its summary from the record's
precision samples and recalls, and breakdowns such as ``_image_counts``
read the same record.  Greedy matching runs for every cell at once: a
detection that shares no GT with another settles by comparing its best
IoUs with each threshold, and contested ones, which do, take one keyed
step each per cell in score order.  Scoring departs from pycocotools:

- an ignore region absorbs at most one detection (COCO's crowd regions
  absorb any number);
- absorption uses plain IoU, not intersection over the detection's area;
- IoU ties go to the lower annotation id (COCO's go to the later GT);
- a GT of area exactly 1024 is small only (COCO's closed ranges make it
  small and medium);
- ``parse_coco`` refuses a stored ``area`` more than 0.5 from w * h;
- an ``ignore`` key makes an ignore region (COCO reads ``iscrowd`` alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .coco import (
    BBox,
    Dataset,
    DatasetError,
    Detection,
    Detections,
    MEDIUM_MAX_AREA,
    SMALL_MAX_AREA,
)
from .report import METRIC_NAMES, UNDEFINED, MetricReport  # re-exported; defined numpy-free
from .report import _mean

__all__ = [
    "DEFAULT_IOU_THRESHOLDS",
    "DEFAULT_MAX_DETS",
    "UNDEFINED",
    "METRIC_NAMES",
    "MetricReport",
    "iou",
    "evaluate",
    "validate_thresholds",
]

DEFAULT_IOU_THRESHOLDS: tuple[float, ...] = tuple(np.linspace(0.5, 0.95, 10).tolist())
DEFAULT_MAX_DETS = 100

_RECALL_SAMPLES = np.linspace(0.0, 1.0, 101)


def _box_columns(boxes: Iterable[BBox]) -> np.ndarray:
    """(N, 4) float rows of x, y, w, h."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _pair_iou(dt: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """IoU of each row of ``dt`` with the same row of ``gt``, both (N, 4) xywh.

    Intersection extents at or below 0 give 0, and so does an empty union.
    """
    iw = np.minimum(dt[:, 0] + dt[:, 2], gt[:, 0] + gt[:, 2]) - np.maximum(dt[:, 0], gt[:, 0])
    ih = np.minimum(dt[:, 1] + dt[:, 3], gt[:, 1] + gt[:, 3]) - np.maximum(dt[:, 1], gt[:, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = dt[:, 2] * dt[:, 3] + gt[:, 2] * gt[:, 3] - inter
    return np.divide(inter, union, out=np.zeros(len(inter)), where=union > 0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    return float(_pair_iou(_box_columns([a]), _box_columns([b]))[0])


def validate_thresholds(thresholds: Sequence[float] | None) -> tuple[float, ...]:
    if thresholds is None:
        return DEFAULT_IOU_THRESHOLDS
    raw = tuple(thresholds)
    for t in raw:
        if not isinstance(t, Real) or isinstance(t, bool):
            raise ValueError(f"IoU threshold must be a number, got {t!r}")
    out = tuple(map(float, raw))
    if not out:
        raise ValueError("empty threshold list")
    for t in out:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"IoU threshold {t} outside (0, 1]")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {out}")
    return out


# --------------------------------------------------------------------------
# corpus-level accumulation


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Flags the first element of each run of equal values in ``keys``."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


def _rank_in_run(keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal values in ``keys``."""
    idx = np.arange(len(keys))
    return idx - np.maximum.accumulate(np.where(_run_starts(keys), idx, 0))


def _match_cells(
    dt_box: np.ndarray,
    dt_cell: np.ndarray,
    gt_box: np.ndarray,
    gt_cell: np.ndarray,
    gt_masks: np.ndarray,
    thr: np.ndarray,
) -> np.ndarray:
    """The greedy matching rule, for every cell, stratum and threshold at once.

    Detections (D, 4) may come in any order that lists each cell's own by
    score descending, ties in input order; GTs (G, 4) come by (cell, id).
    Rows 0..S-1 of ``gt_masks`` (2S, G) mark each stratum's real GT, rows
    S..2S-1 its ignore regions, and ``thr`` (S * T, 1) holds each (stratum,
    threshold) row's threshold, the same ascending T in every stratum.
    Each detection takes the untaken real GT of its cell with the highest
    IoU at or above the threshold; failing that, an untaken ignore region,
    so each region absorbs at most one detection.  IoU ties go to the lower
    annotation id.  Two detections can only affect each other through a GT
    that both pair with at or above the lowest threshold, and cells share
    no GT.  Nothing an uncontested detection reaches is ever taken, so its
    best real and best ignore IoU per stratum, compared with each
    threshold, settle it.  Contested ones, which share such a GT, then
    settle in keyed steps over their own pairs: step r settles the r-th
    contested detection of every cell, ranked by a stable argsort on cell.
    Returns an int8 outcome per (stratum * T + threshold index, detection):
    0 unmatched, 1 matched a real GT, 2 absorbed by an ignore region.
    """
    n_rows, n_strata = len(thr), len(gt_masks) // 2
    outcome = np.zeros((n_rows, len(dt_box)), dtype=np.int8)
    first_gt = np.searchsorted(gt_cell, dt_cell, side="left")
    n_gt = np.searchsorted(gt_cell, dt_cell, side="right") - first_gt
    # one row per same-cell pair, by detection; a detection's k-th pair is
    # its cell's k-th GT
    pair_dt = np.repeat(np.arange(len(dt_box)), n_gt)
    pair_gt = np.arange(len(pair_dt)) + np.repeat(first_gt - (np.cumsum(n_gt) - n_gt), n_gt)
    pair_iou = _pair_iou(dt_box[pair_dt], gt_box[pair_gt])
    # only pairs at or above the lowest threshold can match at all
    keep = pair_iou >= thr[0, 0]
    pair_dt, pair_gt, pair_iou = pair_dt[keep], pair_gt[keep], pair_iou[keep]
    if not len(pair_dt):
        return outcome

    # every detection with a pair in reach, settled by comparison: per
    # stratum, its best real IoU, then its best ignore IoU (0, below every
    # threshold, when it has none) against each threshold
    starts = np.flatnonzero(_run_starts(pair_dt))
    best = np.maximum.reduceat(np.where(gt_masks[:, pair_gt], pair_iou, 0.0), starts, axis=1)
    hit = (best[:, None, :] >= thr[: n_rows // n_strata]).reshape(2, n_rows, -1)
    outcome[:, pair_dt[starts]] = np.where(hit[0], 1, 2 * hit[1])

    # a contested detection shares a GT with another; the keyed steps
    # overwrite its outcome, and its step is its rank among its cell's
    # contested detections
    shared = np.bincount(pair_gt)[pair_gt] > 1
    if not shared.any():
        return outcome
    contested = np.zeros(len(dt_box), dtype=bool)
    contested[pair_dt[shared]] = True
    con = np.flatnonzero(contested)
    con = con[np.argsort(dt_cell[con], kind="stable")]
    dt_step = np.zeros(len(dt_box), dtype=np.intp)
    dt_step[con] = _rank_in_run(dt_cell[con])
    sel = contested[pair_dt]
    pair_dt, pair_gt, pair_iou = pair_dt[sel], pair_gt[sel], pair_iou[sel]
    step = dt_step[pair_dt]
    # by step and detection, then IoU descending; ties keep GT id order
    order = np.lexsort((-pair_iou, pair_dt, step))
    pair_dt, pair_gt, pair_iou, step = (a[order] for a in (pair_dt, pair_gt, pair_iou, step))
    bounds = np.searchsorted(step, np.arange(step[-1] + 2))
    # every step begins a detection's pairs: its detections are those from
    # ``seg_bounds[k]`` on, each starting at ``dt_starts``
    dt_starts = np.flatnonzero(_run_starts(pair_dt))
    seg_bounds = np.searchsorted(dt_starts, bounds)

    # A pair in reach keys its position, plus P for an ignore region; out
    # of reach or taken, 2P.  A detection's least key is then its first
    # free real GT, else its first free ignore region, and the key alone
    # gives the outcome code.
    n_pairs = len(pair_gt)
    ignored = np.repeat(gt_masks[n_strata:, pair_gt], n_rows // n_strata, axis=0)
    pair_key = np.where(pair_iou >= thr, np.arange(n_pairs) + n_pairs * ignored, 2 * n_pairs)
    taken = np.zeros((n_rows, len(gt_box)), dtype=bool)
    for lo, hi, s_lo, s_hi in zip(bounds[:-1], bounds[1:], seg_bounds[:-1], seg_bounds[1:]):
        free_key = np.where(taken[:, pair_gt[lo:hi]], 2 * n_pairs, pair_key[:, lo:hi])
        pick = np.minimum.reduceat(free_key, dt_starts[s_lo:s_hi] - lo, axis=1)
        free = pick < 2 * n_pairs
        outcome[:, pair_dt[dt_starts[s_lo:s_hi]]] = np.where(free, 1 + (pick >= n_pairs), 0)
        rows, segs = np.nonzero(free)
        taken[rows, pair_gt[pick[rows, segs] % n_pairs]] = True
    return outcome


def _accumulate(
    tps: np.ndarray, fps: np.ndarray, n_eligible: np.ndarray, need: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge one category's detections into 101-point precision samples and recall.

    Each row of ``tps`` and ``fps`` (R, D) flags every capped detection of
    the category in score-descending order, for one (stratum, threshold);
    both are False where it is ignored.  ``n_eligible`` (R,) holds each
    row's positive eligible GT count.  ``need`` (R, 101) holds, for row r
    and each recall sample, r * (max(n_eligible) + 1) plus the TP count k
    at which the row's recall first reaches the sample: a flat index into
    an (R, max(n_eligible) + 1) table whose entry k is the precision
    envelope at the row's k-th TP, the greatest precision there or later.
    Precision rises only at a TP, falls at an FP and holds at an ignored
    detection, so the table needs it at TPs only; one reversed running
    maximum then fills entry 0 with the row's maximum precision, and
    entries past its final TP count stay 0, which answers the samples past
    its final recall.  Returns (precision_samples (R, 101), final_recall (R,)).
    """
    tp_sum, fp_sum = np.cumsum(tps, axis=1), np.cumsum(fps, axis=1)
    rows, cols = np.nonzero(tps)
    k = tp_sum[rows, cols]
    table = np.zeros((len(tps), n_eligible.max() + 1))
    table[rows, k] = k / (k + fp_sum[rows, cols] + np.spacing(1))
    table = np.maximum.accumulate(table[:, ::-1], axis=1)[:, ::-1]
    return table.ravel()[need], np.bincount(rows, minlength=len(tps)) / n_eligible


# (S, 1) each: the size strata's area intervals (lo, hi] in report order,
# all sizes, small and medium, by ``classify_size``'s boundaries
_AREA_LO, _AREA_HI = np.array(
    [(-np.inf, np.inf), (-np.inf, SMALL_MAX_AREA), (SMALL_MAX_AREA, MEDIUM_MAX_AREA)]
).T[:, :, None]


def _outside(box: np.ndarray) -> np.ndarray:
    """(S, N): which boxes fall outside each stratum's area interval."""
    area = box[:, 2] * box[:, 3]
    return (area <= _AREA_LO) | (area > _AREA_HI)


@dataclass(frozen=True)
class _Tables:
    """A dataset's ground truth as ``evaluate`` reads it under one sweep.

    A cell, one (category, image) pair, is numbered category position *
    image count + image position, positions in the dataset's own id order;
    GT rows come by (cell, id).  Every dataset, a fold too, builds its rows
    from its own records: a fold's ids are a subsequence of its parent's,
    so cells keep their order.  Rows of ``thr`` and each category's
    ``rows`` are numbered stratum * T + threshold index, as
    ``_match_cells`` numbers them.  Nothing here depends on ``max_dets``,
    so one table serves every cap.  ``gt_masks`` stacks each stratum's real
    GT over its ignore regions, so matching reads both in one gather; only
    the matching reads the ignore half, as its outcome codes already say
    which detections a region absorbed.  A category's strata in
    ``per_category`` are those where it holds eligible GT, the only strata
    whose means it enters.
    """

    img_ids: np.ndarray  # (I,) sorted
    cat_ids: np.ndarray  # (C,) sorted
    gt_cell: np.ndarray  # (G,)
    gt_box: np.ndarray  # (G, 4)
    gt_masks: np.ndarray  # (2S, G) each stratum's real GT, then its ignore regions
    thr: np.ndarray  # (S * T, 1) each row's threshold
    near: np.ndarray  # (2,) the AP50 and AP75 threshold positions, 0 when absent
    has_near: tuple[bool, bool]
    # per category with eligible GT: its position, its defined strata, their
    # rows, each row's eligible count and ``need`` as ``_accumulate`` reads it
    per_category: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


def _tables(gt: Dataset, thresholds: tuple[float, ...]) -> _Tables:
    """The tables of ``gt`` under one validated sweep, built on first use.

    A stratum's eligible GT, those outside its ignore regions, are counted
    per category by one ``bincount`` of stratum * C + category position.
    The tables are kept in ``gt._columns`` for the dataset's lifetime, so
    memory grows with the distinct sweeps a caller scores each dataset with.
    """
    tables = gt._columns.get(thresholds)
    if tables is not None:
        return tables
    img_ids = np.sort(np.array([img.id for img in gt.images], dtype=np.int64))
    cat_ids = np.sort(np.array([cat.id for cat in gt.categories], dtype=np.int64))
    anns = gt.annotations
    ids = np.array(
        [(a.image_id, a.category_id, a.id) for a in anns], dtype=np.int64
    ).reshape(-1, 3)
    img_pos = np.searchsorted(img_ids, ids[:, 0])
    gt_cell = np.searchsorted(cat_ids, ids[:, 1]) * len(img_ids) + img_pos
    order = np.lexsort((ids[:, 2], gt_cell))
    gt_box = _box_columns(anns[i].bbox for i in order.tolist())
    flagged = np.array([anns[i].ignore for i in order.tolist()], dtype=bool)
    real = ~(flagged | _outside(gt_box))
    gt_cell, gt_masks = gt_cell[order], np.vstack((real, ~real))
    n_strata, n_cat, n_thr = len(real), len(cat_ids), len(thresholds)
    key = np.arange(n_strata)[:, None] * n_cat + gt_cell // len(img_ids)
    n_eligible = np.bincount(key[real], minlength=n_strata * n_cat).reshape(n_strata, n_cat)
    per_category = []
    for ci in np.flatnonzero(n_eligible.any(axis=0)).tolist():
        strata = np.flatnonzero(n_eligible[:, ci])
        n = n_eligible[strata, ci]
        rows = (strata[:, None] * n_thr + np.arange(n_thr)).ravel()
        # recall k / n rises with the TP count k, so each recall sample is
        # first reached at the least k with k / n at or above it; row r's TP
        # counts start at r * (max n + 1) in ``_accumulate``'s table
        need = [np.searchsorted(np.arange(k + 1) / k, _RECALL_SAMPLES) for k in n.tolist()]
        start = np.arange(len(rows))[:, None] * (n.max() + 1)
        need = np.repeat(np.stack(need), n_thr, axis=0) + start
        per_category.append((ci, strata, rows, np.repeat(n, n_thr), need))
    # AP50/AP75 read the first threshold within 1e-9 of 0.50/0.75
    near = np.abs(np.subtract.outer([0.50, 0.75], thresholds)) < 1e-9
    tables = _Tables(
        img_ids,
        cat_ids,
        gt_cell,
        gt_box,
        gt_masks,
        np.tile(np.asarray(thresholds, dtype=np.float64), n_strata)[:, None],
        near.argmax(axis=1),
        tuple(near.any(axis=1).tolist()),
        tuple(per_category),
    )
    gt._columns[thresholds] = tables
    return tables


def _find(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each id's position in ``sorted_ids``, and whether it is there."""
    pos = np.searchsorted(sorted_ids, ids)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == ids[found]
    return pos, found


class _Scored(NamedTuple):
    """A run scored against a ``_Tables``: what ``evaluate`` summarises and
    every breakdown reads.  Columns are the kept detections in accumulation
    order, rows stratum * T + threshold index; ``per_category`` holds, per
    ``_Tables.per_category`` entry, the precision samples (strata, T, 101)
    and final recalls (strata, T) of its defined strata.  No array is a copy.
    """

    order: np.ndarray  # (D,) each kept detection's position in the run
    cell: np.ndarray  # (D,) its cell
    outcome: np.ndarray  # (S * T, D) ``_match_cells``' codes
    fps: np.ndarray  # (S * T, D) unmatched and inside the stratum's area interval
    per_category: tuple[tuple[np.ndarray, np.ndarray], ...]


def _score(tab: _Tables, dets: Detections, max_dets: int) -> _Scored:
    """Check a run's ids, then sort, cap, match and accumulate it.

    Detections are sorted once, by (category, score descending, cell,
    input index): the order accumulation reads, in which each cell's own
    come in score order, as matching needs.  Every cell is matched in one
    call for all strata.
    """
    n_img = len(tab.img_ids)
    dt_img, img_ok = _find(tab.img_ids, dets.image_ids)
    dt_cat, cat_ok = _find(tab.cat_ids, dets.category_ids)
    bad = ~(img_ok & cat_ok)
    if bad.any():
        i = int(np.argmax(bad))
        if not img_ok[i]:
            raise DatasetError(f"detection #{i} references missing image {dets.image_ids[i]}")
        raise DatasetError(f"detection #{i} references missing category {dets.category_ids[i]}")

    # the cap keeps each cell's first ``max_dets`` in this order; no cell
    # holds more than the run
    dt_cell = dt_cat * n_img + dt_img
    order = np.lexsort((dt_cell, -dets.scores, dt_cat))
    if len(order) > max_dets:
        by_cell = np.argsort(dt_cell[order], kind="stable")
        order = order[np.sort(by_cell[_rank_in_run(dt_cell[order][by_cell]) < max_dets])]
    dt_cell, dt_cat, dt_box = dt_cell[order], dt_cat[order], dets.boxes[order]

    n_thr = len(tab.thr) * 2 // len(tab.gt_masks)
    outcome = _match_cells(dt_box, dt_cell, tab.gt_box, tab.gt_cell, tab.gt_masks, tab.thr)
    tps = outcome == 1
    fps = (outcome == 0) & np.repeat(~_outside(dt_box), n_thr, axis=0)

    # each category's detection column range
    dt_bounds = np.searchsorted(dt_cat, np.arange(len(tab.cat_ids) + 1))
    per_category = []
    for ci, strata, rows, n, need in tab.per_category:
        # every defined stratum x threshold of the category in one batch
        cat = slice(dt_bounds[ci], dt_bounds[ci + 1])
        p, r = _accumulate(tps[rows, cat], fps[rows, cat], n, need)
        per_category.append((p.reshape(len(strata), n_thr, -1), r.reshape(len(strata), n_thr)))
    return _Scored(order, dt_cell, outcome, fps, tuple(per_category))


def _image_counts(tab: _Tables, scored: _Scored) -> tuple[np.ndarray, ...]:
    """TP, FP, absorbed and missed-GT counts, each (S * T, I), per row of
    ``scored`` and image position in ``tab.img_ids``.  FP reads
    ``scored.fps``, so an unmatched detection outside the stratum's area
    interval counts nowhere; missed is the image's eligible GT less its TPs.
    """
    n_img, n_rows, n_strata = len(tab.img_ids), len(tab.thr), len(tab.gt_masks) // 2
    key = np.arange(n_rows)[:, None] * n_img + scored.cell % n_img
    tp, fp, absorbed = (
        np.bincount(key[flags], minlength=n_rows * n_img).reshape(n_rows, n_img)
        for flags in (scored.outcome == 1, scored.fps, scored.outcome == 2)
    )
    gt_key = np.arange(n_strata)[:, None] * n_img + tab.gt_cell % n_img
    eligible = np.bincount(gt_key[tab.gt_masks[:n_strata]], minlength=n_strata * n_img)
    missed = np.repeat(eligible.reshape(n_strata, n_img), n_rows // n_strata, axis=0) - tp
    return tp, fp, absorbed, missed


def evaluate(
    gt: Dataset,
    dets: Detections | Sequence[Detection],
    thresholds: Sequence[float] | None = None,
    max_dets: int = DEFAULT_MAX_DETS,
) -> MetricReport:
    """Score a detection run against ground truth.

    AP metrics average 101-point interpolated precision over the
    threshold sweep (AP50/AP75 pick the single threshold and are -1 when
    the sweep does not include it); AR metrics average final recall.
    ``max_dets`` caps detections per image and category, highest scores
    kept.  ``dets`` is read as columns; a plain sequence of records is
    turned into them first.
    """
    thresholds = validate_thresholds(thresholds)
    if not isinstance(max_dets, Integral) or isinstance(max_dets, bool) or max_dets < 1:
        raise ValueError(f"max_dets must be a positive integer, got {max_dets!r}")
    if not isinstance(dets, Detections):
        dets = Detections.from_records(dets)
    tab = _tables(gt, thresholds)
    # per stratum, an (AP, AR, AP50, AP75) row per category with eligible
    # GT there: the sums and divisions ``np.mean`` does
    per_stratum = [[] for _ in range(len(tab.gt_masks) // 2)]
    for (_, strata, *_), (p, r) in zip(tab.per_category, _score(tab, dets, max_dets).per_category):
        ap, ar = np.add.reduce(p, axis=(1, 2)) / p[0].size, np.add.reduce(r, axis=1) / r.shape[1]
        near = np.add.reduce(p[:, tab.near], axis=2) / p.shape[2]  # threshold 0 when absent
        for s, row in zip(strata.tolist(), np.column_stack((ap, ar, near)).tolist()):
            per_stratum[s].append(row)
    # each stratum averages its rows in numpy's order; one with none is undefined
    (ap, ar, ap50, ap75), (aps, ars, _, _), (apm, arm, _, _) = (
        [_mean(col) for col in zip(*rows)] if rows else [UNDEFINED] * 4
        for rows in per_stratum
    )
    return MetricReport(
        ap=ap,
        ap50=ap50 if tab.has_near[0] else UNDEFINED,
        ap75=ap75 if tab.has_near[1] else UNDEFINED,
        aps=aps,
        apm=apm,
        ar=ar,
        ars=ars,
        arm=arm,
    )
