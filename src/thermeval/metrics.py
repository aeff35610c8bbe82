"""Detection metrics: IoU, greedy matching with ignore absorption, PR
statistics, and the AP/AR summary over an IoU threshold sweep.

The summary follows the COCO protocol in outline: AP is the mean of
101-point interpolated precision over thresholds 0.50..0.95, and AR is
the mean final recall with detections capped per image.  In the small
and medium strata, ground truth outside the stratum becomes an ignore
region: a detection absorbed by one is ignored, and so is an unmatched
detection whose own area falls outside the stratum.  Strata with no
eligible ground truth report the sentinel -1.  The matching departs
from pycocotools in three ways:

- an ignore region absorbs at most one detection (COCO's crowd regions
  absorb any number);
- absorption uses plain IoU, not intersection over the detection's area;
- IoU ties go to the lower annotation id (COCO's go to the later GT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coco import (
    AnnotationRecord,
    BBox,
    Dataset,
    DatasetError,
    Detection,
    SizeClass,
    classify_size,
)

__all__ = [
    "DEFAULT_IOU_THRESHOLDS",
    "DEFAULT_MAX_DETS",
    "UNDEFINED",
    "METRIC_NAMES",
    "MatchResult",
    "MetricReport",
    "iou",
    "match_detections",
    "precision",
    "recall",
    "f1_score",
    "average_precision",
    "evaluate",
    "validate_thresholds",
]

DEFAULT_IOU_THRESHOLDS: tuple[float, ...] = tuple(np.linspace(0.5, 0.95, 10).tolist())
DEFAULT_MAX_DETS = 100

# reported when a size stratum holds no eligible ground truth
UNDEFINED = -1.0

METRIC_NAMES = ("ap", "ap50", "ap75", "aps", "apm", "ar", "ars", "arm")

_RECALL_SAMPLES = np.linspace(0.0, 1.0, 101)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 when the union is empty."""
    ix1 = max(a.x, b.x)
    iy1 = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0:
        return 0.0
    return inter / union


def validate_thresholds(thresholds: Sequence[float] | None) -> tuple[float, ...]:
    if thresholds is None:
        return DEFAULT_IOU_THRESHOLDS
    out = tuple(float(t) for t in thresholds)
    if not out:
        raise ValueError("empty threshold list")
    for t in out:
        if not (0.0 < t <= 1.0):
            raise ValueError(f"IoU threshold {t} outside (0, 1]")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"thresholds must be strictly increasing, got {out}")
    return out


@dataclass(frozen=True)
class MatchResult:
    """Greedy assignment of one image's detections to its ground truth.

    Indexes follow the input orders.  ``det_matched_gt`` holds the matched
    annotation id per detection, or None; ``det_absorbed`` marks
    detections swallowed by an ignore region (dropped from FP counting).
    """

    det_matched_gt: tuple[int | None, ...]
    det_absorbed: tuple[bool, ...]
    gt_matched: tuple[bool, ...]
    tp: int
    fp: int
    fn: int


def match_detections(
    gts: Sequence[AnnotationRecord],
    dets: Sequence[Detection],
    iou_thr: float,
    gt_ignore: Sequence[bool] | None = None,
) -> MatchResult:
    """Match score-descending detections against one image's ground truth.

    Each detection takes the highest-IoU unmatched non-ignore GT with IoU
    at or above the threshold (IoU ties go to the lower annotation id).
    Failing that it may be absorbed by an unmatched ignore region, which
    removes it from FP counting.  Remaining detections are FPs; unmatched
    eligible GTs are FNs.
    """
    if not (0.0 < iou_thr <= 1.0):
        raise ValueError(f"IoU threshold {iou_thr} outside (0, 1]")
    if gt_ignore is None:
        gt_ignore = [g.ignore for g in gts]
    elif len(gt_ignore) != len(gts):
        raise ValueError("gt_ignore length does not match gts")

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    iou_mat = _iou_matrix([dets[di] for di in order], gts)
    ignore = np.array([gt_ignore], dtype=bool)
    hits = _greedy(iou_mat, [g.id for g in gts], ignore, (iou_thr,))[0, 0].tolist()
    matched = [False] * len(gts)
    det_matched_gt: list[int | None] = [None] * len(dets)
    det_absorbed = [False] * len(dets)
    for di, gi in zip(order, hits):
        if gi >= 0:
            matched[gi] = True
            det_matched_gt[di] = gts[gi].id
            det_absorbed[di] = bool(gt_ignore[gi])

    tp = sum(1 for gi in hits if gi >= 0 and not gt_ignore[gi])
    fp = hits.count(-1)
    eligible = sum(1 for flag in gt_ignore if not flag)
    return MatchResult(
        det_matched_gt=tuple(det_matched_gt),
        det_absorbed=tuple(det_absorbed),
        gt_matched=tuple(matched),
        tp=tp,
        fp=fp,
        fn=eligible - tp,
    )


def precision(tp: int, fp: int, total_gt: int | None = None) -> float | None:
    """TP / (TP + FP); see the empty-denominator conventions below.

    With no predictions at all the value is 1.0 when the ground truth is
    known to be empty (perfect silence), otherwise undefined (None).
    """
    if tp < 0 or fp < 0:
        raise ValueError("negative counts")
    if tp + fp == 0:
        if total_gt == 0:
            return 1.0
        return None
    return tp / (tp + fp)


def recall(tp: int, fn: int) -> float | None:
    if tp < 0 or fn < 0:
        raise ValueError("negative counts")
    if tp + fn == 0:
        return None
    return tp / (tp + fn)


def f1_score(p: float | None, r: float | None) -> float | None:
    if p is None or r is None:
        return None
    if p + r == 0:
        return None
    return 2.0 * p * r / (p + r)


# --------------------------------------------------------------------------
# corpus-level accumulation


def _iou_matrix(dets: Sequence[Detection], gts: Sequence[AnnotationRecord]) -> np.ndarray:
    mat = np.zeros((len(dets), len(gts)))
    for di, d in enumerate(dets):
        for gi, g in enumerate(gts):
            mat[di, gi] = iou(d.bbox, g.bbox)
    return mat


def _greedy(
    iou_mat: np.ndarray,
    gt_ids: Sequence[int],
    gt_ignore: np.ndarray,
    thresholds: Sequence[float],
) -> np.ndarray:
    """The greedy matching rule, at every stratum and threshold.

    Rows of ``iou_mat`` are score-sorted detections, columns GTs; each row
    of ``gt_ignore`` (S, >= G) marks one stratum's ignore regions.  Each
    detection takes the unmatched real GT with the highest IoU at or above
    the threshold; failing that, an unmatched ignore region, so each region
    absorbs at most one detection.  Columns are scanned in id order and the
    first maximum kept, which sends IoU ties to the lower annotation id.
    Returns the matched GT index per (stratum, threshold, detection), or -1.
    """
    cols = sorted(range(len(gt_ids)), key=gt_ids.__getitem__)
    # per detection, the (GT index, IoU) pairs that can match at all
    cands = [
        [(gi, row[gi]) for gi in cols if row[gi] >= thresholds[0]]
        for row in iou_mat.tolist()
    ]
    out = np.full((len(gt_ignore), len(thresholds), len(cands)), -1, dtype=np.intp)
    for si, ignore in enumerate(gt_ignore.tolist()):
        for ti, thr in enumerate(thresholds):
            taken = [False] * len(cols)
            for di, row in enumerate(cands):
                real = region = -1
                real_v = region_v = 0.0
                for gi, v in row:
                    if v < thr or taken[gi]:
                        continue
                    if ignore[gi]:
                        if v > region_v:
                            region, region_v = gi, v
                    elif v > real_v:
                        real, real_v = gi, v
                best = real if real >= 0 else region  # regions are a fallback
                if best >= 0:
                    taken[best] = True
                    out[si, ti, di] = best
    return out


def _accumulate(
    scores: np.ndarray, tps: np.ndarray, fps: np.ndarray, n_eligible: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge a stratum's detections into 101-point precision samples and recall.

    ``scores`` (D,) hold every capped detection of one category; its TP and
    FP flags (T, D) are both False where it is ignored.  ``n_eligible`` must
    be positive.  Returns (precision_samples (T, 101), final_recall (T,)).
    """
    n_thr = tps.shape[0]
    order = np.argsort(-scores, kind="mergesort")
    tp_sum = np.cumsum(tps[:, order], axis=1).astype(np.float64)
    fp_sum = np.cumsum(fps[:, order], axis=1).astype(np.float64)
    rc = tp_sum / n_eligible
    pr = tp_sum / (tp_sum + fp_sum + np.spacing(1))
    final_recall = rc[:, -1] if order.size else np.zeros(n_thr)
    # precision envelope: non-increasing from the right; a trailing 0 column
    # answers the recall samples past the final recall
    envelope = np.zeros((n_thr, order.size + 1))
    envelope[:, :-1] = np.maximum.accumulate(pr[:, ::-1], axis=1)[:, ::-1]
    inds = np.array([np.searchsorted(r, _RECALL_SAMPLES, side="left") for r in rc])
    prec_samples = envelope[np.arange(n_thr)[:, None], inds]
    return prec_samples, final_recall


_STRATA: tuple[tuple[str, SizeClass | None], ...] = (
    ("all", None),
    ("small", SizeClass.SMALL),
    ("medium", SizeClass.MEDIUM),
)


def _corpus_tables(
    gt: Dataset,
    dets: Sequence[Detection],
    thresholds: Sequence[float],
    max_dets: int,
    strata: tuple[tuple[str, SizeClass | None], ...] = _STRATA,
) -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Per stratum: per-category precision samples and recall arrays.

    Each (image, category) cell is matched once for all strata.  Categories
    without eligible ground truth in a stratum are skipped, so each list
    holds only defined entries.
    """
    for d in dets:
        if not gt.has_image(d.image_id):
            raise DatasetError(f"detection references missing image {d.image_id}")
        if not gt.has_category(d.category_id):
            raise DatasetError(f"detection references missing category {d.category_id}")

    dets_by_img_cat: dict[tuple[int, int], list[Detection]] = {}
    for d in dets:
        dets_by_img_cat.setdefault((d.image_id, d.category_id), []).append(d)

    tables: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {
        name: ([], []) for name, _ in strata
    }
    classes = [size_class for _, size_class in strata]
    rows = np.arange(len(strata))[:, None, None]
    for cat in gt.categories:
        scores, tps, fps = [], [], []
        n_eligible = np.zeros(len(strata), dtype=np.int64)
        for img in gt.images:
            gts = list(gt.annotations_for(img.id, cat.id))
            cand = dets_by_img_cat.get((img.id, cat.id), [])
            order = sorted(range(len(cand)), key=lambda i: (-cand[i].score, i))
            image_dets = [cand[i] for i in order[:max_dets]]
            if not gts and not image_dets:
                continue
            # (S, G + 1): the trailing False lets hit index -1 read "not absorbed"
            ignore = np.array(
                [[g.ignore or (sc is not None and g.size_class is not sc) for g in gts] + [False]
                 for sc in classes],
                dtype=bool,
            )
            dt_sizes = [classify_size(d.bbox.area) for d in image_dets]
            dt_out = np.array(
                [[sc is not None and s is not sc for s in dt_sizes] for sc in classes],
                dtype=bool,
            ).reshape(len(strata), 1, len(image_dets))
            hits = _greedy(_iou_matrix(image_dets, gts), [g.id for g in gts], ignore, thresholds)
            matched = hits >= 0
            ignored = ignore[rows, hits] | (~matched & dt_out)
            scores.append(np.array([d.score for d in image_dets], dtype=np.float64))
            tps.append(matched & ~ignored)
            fps.append(~matched & ~ignored)
            n_eligible += len(gts) - ignore[:, :-1].sum(axis=1)

        if not n_eligible.any():
            continue
        all_scores = np.concatenate(scores)
        all_tps = np.concatenate(tps, axis=2)
        all_fps = np.concatenate(fps, axis=2)
        for si, (name, _) in enumerate(strata):
            if n_eligible[si]:
                prec, rec = _accumulate(all_scores, all_tps[si], all_fps[si], int(n_eligible[si]))
                tables[name][0].append(prec)
                tables[name][1].append(rec)
    return tables


@dataclass(frozen=True)
class MetricReport:
    """The eight-value summary; -1 marks an undefined size stratum."""

    ap: float
    ap50: float
    ap75: float
    aps: float
    apm: float
    ar: float
    ars: float
    arm: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}

    @classmethod
    def from_dict(cls, d: dict[str, float]) -> "MetricReport":
        return cls(**{name: float(d[name]) for name in METRIC_NAMES})


def _mean_ap(prec_list: list[np.ndarray], thr_index: int | None = None) -> float:
    if not prec_list:
        return UNDEFINED
    if thr_index is None:
        return float(np.mean([p.mean() for p in prec_list]))
    return float(np.mean([p[thr_index].mean() for p in prec_list]))


def _mean_ar(rec_list: list[np.ndarray]) -> float:
    if not rec_list:
        return UNDEFINED
    return float(np.mean([r.mean() for r in rec_list]))


def _threshold_index(thresholds: Sequence[float], value: float) -> int | None:
    for i, t in enumerate(thresholds):
        if abs(t - value) < 1e-9:
            return i
    return None


def evaluate(
    gt: Dataset,
    dets: Sequence[Detection],
    thresholds: Sequence[float] | None = None,
    max_dets: int = DEFAULT_MAX_DETS,
) -> MetricReport:
    """Score a detection run against ground truth.

    AP metrics average 101-point interpolated precision over the
    threshold sweep (AP50/AP75 pick the single threshold and are -1 when
    the sweep does not include it); AR metrics average final recall.
    ``max_dets`` caps detections per image and category, highest scores
    kept.
    """
    thresholds = validate_thresholds(thresholds)
    if max_dets < 1:
        raise ValueError(f"max_dets must be positive, got {max_dets}")
    tables = _corpus_tables(gt, dets, thresholds, max_dets)

    i50 = _threshold_index(thresholds, 0.50)
    i75 = _threshold_index(thresholds, 0.75)
    prec_all, rec_all = tables["all"]
    prec_s, rec_s = tables["small"]
    prec_m, rec_m = tables["medium"]
    return MetricReport(
        ap=_mean_ap(prec_all),
        ap50=_mean_ap(prec_all, i50) if i50 is not None else UNDEFINED,
        ap75=_mean_ap(prec_all, i75) if i75 is not None else UNDEFINED,
        aps=_mean_ap(prec_s),
        apm=_mean_ap(prec_m),
        ar=_mean_ar(rec_all),
        ars=_mean_ar(rec_s),
        arm=_mean_ar(rec_m),
    )


def average_precision(
    gt: Dataset,
    dets: Sequence[Detection],
    iou_thr: float,
    size_filter: SizeClass | None = None,
    max_dets: int = DEFAULT_MAX_DETS,
) -> float | None:
    """Corpus AP at a single threshold, optionally within one size stratum.

    Ground truth outside the stratum is treated as ignore regions.
    Returns None when the stratum holds no eligible ground truth.
    """
    thresholds = validate_thresholds([iou_thr])
    name = "all" if size_filter is None else size_filter.value
    tables = _corpus_tables(gt, dets, thresholds, max_dets, ((name, size_filter),))
    prec_list, _ = tables[name]
    if not prec_list:
        return None
    return _mean_ap(prec_list)
