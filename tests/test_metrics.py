from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermeval.coco import (
    MEDIUM_MAX_AREA,
    SMALL_MAX_AREA,
    AnnotationRecord,
    BBox,
    CategoryRecord,
    Dataset,
    DatasetError,
    Detection,
    Detections,
    ImageRecord,
    SizeClass,
    classify_size,
    filter_small_objects,
    parse_coco,
    parse_detections,
    write_coco,
    write_detections,
)
from thermeval.metrics import (
    _RECALL_SAMPLES,
    DEFAULT_IOU_THRESHOLDS,
    METRIC_NAMES,
    UNDEFINED,
    MetricReport,
    _accumulate,
    _match_cells,
    evaluate,
    iou,
    validate_thresholds,
)
from make_fixtures import ref_evaluate  # the independent reference, in tools/

DATA = Path(__file__).parent / "data"


def _box(x, y, w, h):
    return BBox(float(x), float(y), float(w), float(h))


def _gt(ann_id, bbox, image_id=1, ignore=False):
    return AnnotationRecord(
        id=ann_id, image_id=image_id, category_id=1, bbox=bbox, ignore=ignore
    )


def _det(bbox, score, image_id=1):
    return Detection(image_id=image_id, category_id=1, bbox=bbox, score=score)


def _corpus(anns, n_images=1):
    return Dataset(
        images=tuple(
            ImageRecord(id=i + 1, file_name=f"f{i}.raw", width=640, height=480)
            for i in range(n_images)
        ),
        annotations=tuple(anns),
        categories=(CategoryRecord(id=1, name="puddle"),),
    )


# -- iou


def test_iou_identical_boxes():
    assert iou(_box(3, 4, 10, 12), _box(3, 4, 10, 12)) == 1.0


def test_iou_half_overlap_thirds():
    # unit-height boxes sharing half their width: inter 2, union 6
    assert iou(_box(0, 0, 2, 2), _box(1, 0, 2, 2)) == pytest.approx(1 / 3)


def test_iou_contained_box():
    assert iou(_box(0, 0, 4, 4), _box(1, 1, 2, 2)) == pytest.approx(0.25)


def test_iou_disjoint_and_touching():
    assert iou(_box(0, 0, 2, 2), _box(5, 5, 2, 2)) == 0.0
    assert iou(_box(0, 0, 2, 2), _box(2, 0, 2, 2)) == 0.0  # shared edge only


def test_iou_zero_area_boxes():
    assert iou(_box(0, 0, 0, 0), _box(0, 0, 0, 0)) == 0.0


@given(
    ax=st.floats(0, 50, allow_nan=False),
    ay=st.floats(0, 50, allow_nan=False),
    aw=st.floats(0.1, 40, allow_nan=False),
    ah=st.floats(0.1, 40, allow_nan=False),
    bx=st.floats(0, 50, allow_nan=False),
    by=st.floats(0, 50, allow_nan=False),
    bw=st.floats(0.1, 40, allow_nan=False),
    bh=st.floats(0.1, 40, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_iou_symmetric_and_bounded(ax, ay, aw, ah, bx, by, bw, bh):
    a, b = _box(ax, ay, aw, ah), _box(bx, by, bw, bh)
    v = iou(a, b)
    # corner arithmetic can overshoot a hair when the boxes coincide
    assert 0.0 <= v <= 1.0 + 1e-9
    assert v == iou(b, a)
    assert iou(a, a) == pytest.approx(1.0)


# -- threshold validation


def test_default_thresholds():
    assert validate_thresholds(None) == DEFAULT_IOU_THRESHOLDS
    assert len(DEFAULT_IOU_THRESHOLDS) == 10
    assert DEFAULT_IOU_THRESHOLDS[0] == 0.5
    assert DEFAULT_IOU_THRESHOLDS[-1] == pytest.approx(0.95)


@pytest.mark.parametrize(
    "bad", [[], [0.0, 0.5], [0.5, 1.1], [0.5, 0.5], [0.7, 0.5], [True], ["0.5"]]
)
def test_threshold_validation_rejects(bad):
    with pytest.raises(ValueError):
        validate_thresholds(bad)


# -- greedy matching, seen through the summary


def _ap_at(gt, dets, thr=0.5):
    return evaluate(gt, dets, thresholds=[thr]).ap


def test_match_simple_true_positive():
    gt = _corpus([_gt(1, _box(10, 10, 20, 20))])
    report = evaluate(gt, [_det(_box(12, 10, 20, 20), 0.9)], thresholds=[0.5])
    assert report.ap == pytest.approx(1.0)
    assert report.ar == 1.0


def test_match_below_threshold_is_fp_and_fn():
    # the top detection misses GT 1 (IoU 0.02): an FP ahead of the TP on
    # GT 2, and GT 1 stays an FN
    gt = _corpus([_gt(1, _box(0, 0, 10, 10)), _gt(2, _box(100, 100, 10, 10))])
    dets = [_det(_box(8, 8, 10, 10), 0.9), _det(_box(100, 100, 10, 10), 0.5)]
    report = evaluate(gt, dets, thresholds=[0.5])
    assert report.ap == pytest.approx(25.5 / 101)
    assert report.ar == 0.5


def test_match_iou_tie_goes_to_lower_annotation_id():
    # the first detection ties at IoU 0.5 between ignore regions 5 (listed
    # first) and 3; taking region 3 leaves region 5 to absorb the second
    # detection, which would otherwise be an FP ahead of the TP
    gt = _corpus(
        [
            _gt(5, _box(0, 0, 20, 10), ignore=True),
            _gt(3, _box(0, 0, 10, 20), ignore=True),
            _gt(1, _box(100, 100, 10, 10)),
        ]
    )
    dets = [
        _det(_box(0, 0, 10, 10), 0.9),
        _det(_box(0, 0, 20, 10), 0.8),
        _det(_box(100, 100, 10, 10), 0.5),
    ]
    assert _ap_at(gt, dets) == pytest.approx(1.0)


def test_evaluate_iou_tie_goes_to_lower_annotation_id():
    # the first detection ties at IoU 0.5 between GT 5 (listed first) and
    # GT 3; taking GT 3 leaves the second detection nothing at 0.5
    gt = _corpus([_gt(5, _box(0, 0, 20, 10)), _gt(3, _box(0, 0, 10, 20))])
    dets = [_det(_box(0, 0, 10, 10), 0.9), _det(_box(0, 0, 10, 20), 0.8)]
    assert _ap_at(gt, dets) == pytest.approx(51 / 101)
    _assert_matches_reference(gt, dets, [0.5, 0.75], 100)


def test_match_processes_detections_by_score():
    # listed first but scored lower, the exact box must not claim the GT:
    # the higher-scored detection takes it and the exact box is an FP
    # behind it, which leaves AP at 1
    gt = _corpus([_gt(1, _box(0, 0, 10, 10))])
    dets = [_det(_box(0, 0, 10, 10), 0.3), _det(_box(1, 0, 10, 10), 0.9)]
    assert _ap_at(gt, dets) == pytest.approx(1.0)


def test_match_prefers_real_gt_over_ignore_region():
    # the region fits the detection exactly (IoU 1), the real GT at IoU 10/11
    gt = _corpus([_gt(1, _box(0, 0, 10, 10)), _gt(2, _box(0, 0, 11, 10), ignore=True)])
    report = evaluate(gt, [_det(_box(0, 0, 11, 10), 0.9)], thresholds=[0.5])
    assert report.ap == pytest.approx(1.0)
    assert report.ar == 1.0


def test_match_ignore_region_absorbs_once():
    # the region absorbs the top detection only; the second is an FP
    # ahead of the TP on the real GT
    gt = _corpus([_gt(1, _box(0, 0, 20, 20), ignore=True), _gt(2, _box(100, 100, 10, 10))])
    dets = [
        _det(_box(0, 0, 20, 20), 0.9),
        _det(_box(1, 1, 20, 20), 0.8),
        _det(_box(100, 100, 10, 10), 0.7),
    ]
    report = evaluate(gt, dets, thresholds=[0.5])
    assert report.ap == pytest.approx(0.5)
    assert report.ar == 1.0


def test_match_ignore_region_with_highest_iou_absorbs():
    # at 0.75 the first detection may go to either region (IoU 10/12 or 1)
    # and the second only to region 1 (10/12; region 2 gives 2/3), so the
    # first must take region 2 or the second becomes an FP ahead of the TP
    gt = _corpus(
        [
            _gt(1, _box(0, 0, 12, 10), ignore=True),
            _gt(2, _box(0, 0, 10, 10), ignore=True),
            _gt(3, _box(100, 100, 10, 10)),
        ]
    )
    dets = [
        _det(_box(0, 0, 10, 10), 0.9),
        _det(_box(2, 0, 10, 10), 0.8),
        _det(_box(100, 100, 10, 10), 0.7),
    ]
    assert _ap_at(gt, dets, thr=0.75) == pytest.approx(1.0)


def test_match_ignore_region_absorbs_by_plain_iou():
    # inside the region, but at IoU 0.01; COCO's intersection over the
    # detection's area would be 1 and absorb it, leaving AP at 1
    gt = _corpus([_gt(1, _box(0, 0, 100, 100), ignore=True), _gt(2, _box(200, 200, 10, 10))])
    dets = [_det(_box(10, 10, 10, 10), 0.9), _det(_box(200, 200, 10, 10), 0.5)]
    assert _ap_at(gt, dets) == pytest.approx(0.5)


def test_match_rejects_bad_threshold():
    with pytest.raises(ValueError):
        evaluate(_corpus([]), [], thresholds=[0.0])


# -- contested detections: only detections that pair with a shared GT (IoU
# at or above the lowest threshold) wait for the higher-scored ones


def test_match_detections_on_separate_gts_both_hit():
    # one cell, two detections on their own GTs; the second overlaps the
    # first GT at IoU 1/3, under the lowest threshold, so neither waits
    gt = _corpus([_gt(1, _box(0, 0, 20, 20)), _gt(2, _box(10, 0, 20, 20))])
    dets = [_det(_box(0, 0, 20, 20), 0.9), _det(_box(10, 0, 20, 20), 0.8)]
    assert iou(dets[1].bbox, gt.annotations[0].bbox) == pytest.approx(1 / 3)
    report = evaluate(gt, dets, thresholds=[0.5, 0.75])
    assert (report.ap, report.ar) == (1.0, 1.0)
    _assert_matches_reference(gt, dets, [0.5, 0.75], 100)


def test_match_chain_of_shared_gts_settles_in_score_order():
    # A (0.9) pairs GT 1 at IoU 3/7, B (0.8) pairs GT 1 at 9/11 and GT 2 at
    # 3/7, C (0.7) pairs GT 2 at 9/11.  At 0.3 A takes GT 1, so B takes GT 2
    # and C misses; at 0.5 and 0.75 A misses, B takes GT 1 and C wins GT 2
    # only because B took GT 1 first
    gt = _corpus([_gt(1, _box(20, 0, 20, 20)), _gt(2, _box(30, 0, 20, 20))])
    dets = [
        _det(_box(12, 0, 20, 20), 0.9),
        _det(_box(22, 0, 20, 20), 0.8),
        _det(_box(32, 0, 20, 20), 0.7),
    ]
    thresholds = [0.3, 0.5, 0.75]
    # TP TP FP at 0.3 gives AP 1; FP TP TP gives precision 2/3 throughout
    report = evaluate(gt, dets, thresholds=thresholds)
    assert report.ap == pytest.approx((1 + 2 / 3 + 2 / 3) / 3)
    assert report.ar == 1.0
    _assert_matches_reference(gt, dets, thresholds, 100)


def test_match_contested_ignore_region_absorbs_one():
    # D1 (0.9) pairs the region at IoU 1 and real GT 2 at 7/13; D2 (0.8)
    # and D3 (0.7) pair only the region; D4 (0.6) hits GT 3.  At 0.5 D1
    # takes GT 2, the region absorbs D2, and D3 is an FP; at 0.75 D1 misses
    # GT 2, the region absorbs D1, and D2 and D3 are FPs ahead of D4
    gt = _corpus(
        [
            _gt(1, _box(20, 0, 20, 20), ignore=True),
            _gt(2, _box(26, 0, 20, 20)),
            _gt(3, _box(200, 0, 20, 20)),
        ]
    )
    dets = [
        _det(_box(20, 0, 20, 20), 0.9),
        _det(_box(19, 0, 20, 20), 0.8),
        _det(_box(18, 0, 20, 20), 0.7),
        _det(_box(200, 0, 20, 20), 0.6),
    ]
    report = evaluate(gt, dets, thresholds=[0.5, 0.75])
    # 0.5: TP FP TP, envelope 1 then 2/3; 0.75: FP FP TP, recall 1/2 at 1/3
    assert report.ap == pytest.approx(((51 + 50 * 2 / 3) / 101 + 17 / 101) / 2)
    assert report.ar == pytest.approx(0.75)
    _assert_matches_reference(gt, dets, [0.5, 0.75], 100)


@pytest.mark.parametrize("max_dets", [100, 30])
def test_match_crowded_cell_with_a_few_contests(max_dets):
    # 40 GTs in one image, 20 px apart: 33 have one detection of their
    # own; GTs 0-2 get two near-duplicates each, and GTs 36-39 carry the
    # chain of the test above, twice
    boxes = [_box(40 * (i % 10), 40 * (i // 10), 20, 20) for i in range(40)]
    anns = [_gt(100 - i, b, ignore=i == 5) for i, b in enumerate(boxes)]
    scores = [0.3, 0.5, 0.5, 0.7, 0.9]
    dets = [_det(_box(b.x + i % 3, b.y, 20, 20), scores[i % 5]) for i, b in enumerate(boxes[:33])]
    for i in range(3):
        b = boxes[i]
        dets += [_det(_box(b.x + 1, b.y + 1, 20, 20), 0.5), _det(_box(b.x, b.y + 3, 20, 20), 0.8)]
    # GT pairs 36/37 and 38/39 moved to overlap as in the chain test
    for k, (first, second) in enumerate(((36, 37), (38, 39))):
        x, y = 40 * 6, 40 * (3 + k) + 200
        anns[first] = _gt(100 - first, _box(x + 20, y, 20, 20))
        anns[second] = _gt(100 - second, _box(x + 30, y, 20, 20))
        dets += [_det(_box(x + 12 + 10 * j, y, 20, 20), 0.9 - 0.1 * j) for j in range(3)]
    gt = _corpus(anns)
    _assert_matches_reference(gt, dets, list(DEFAULT_IOU_THRESHOLDS), max_dets)
    _assert_matches_reference(gt, dets, [0.3, 0.5, 0.75], max_dets)


def _greedy_outcomes(dt_box, dt_cell, gt_box, gt_cell, ignore, threshold):
    """The matching rule, one detection at a time in the given order.

    Each detection takes the untaken real GT of its cell with the highest
    IoU at or above the threshold, else the untaken ignore region with the
    highest; IoU ties go to the lower position.  0 unmatched, 1 matched, 2
    absorbed.
    """
    taken, out = set(), []
    for box, cell in zip(dt_box, dt_cell):
        reach = [
            (iou(_box(*box), _box(*gt_box[g])), -g)
            for g in range(len(gt_box))
            if gt_cell[g] == cell and g not in taken
        ]
        reach = [(v, g) for v, g in reach if v >= threshold]
        real = [c for c in reach if not ignore[-c[1]]]
        pick = max(real or reach, default=None)
        if pick is None:
            out.append(0)
        else:
            taken.add(-pick[1])
            out.append(2 if ignore[-pick[1]] else 1)
    return out


def _random_cells(rng):
    """Cells 0-3 of categories 0 and 1, on a coarse grid, their detections
    in (category, score descending, cell, input index) order.

    Detections copy or nudge their cell's GTs, so some share a GT and
    others reach one alone; scores tie across cells and categories, and
    the thresholds are IoUs that pairs take, so exact hits are common.
    """
    gt_box, gt_cell, dt_box, dt_cell = [], [], [], []
    for cell in range(rng.integers(1, 5)):
        n_gt = rng.integers(1, 5)
        gt_box += [8 * rng.integers((0, 0, 1, 1), (6, 6, 4, 4)) for _ in range(n_gt)]
        gt_cell += [cell] * n_gt
        for _ in range(rng.integers(0, 7)):
            dt_box.append(gt_box[-1 - rng.integers(n_gt)] + 4 * rng.integers(-1, 2, 4))
            dt_cell.append(cell)
    gt_box, dt_box = np.array(gt_box, dtype=float), np.array(dt_box, dtype=float).reshape(-1, 4)
    gt_cell, dt_cell = np.array(gt_cell), np.array(dt_cell, dtype=np.intp)
    scores = rng.choice([0.3, 0.5, 0.9], len(dt_box))
    order = np.lexsort((dt_cell, -scores, dt_cell // 2))
    reached = {
        iou(_box(*d), _box(*g))
        for d, dc in zip(dt_box, dt_cell)
        for g, gc in zip(gt_box, gt_cell)
        if dc == gc
    } - {0.0}
    thresholds = sorted(rng.choice(sorted(reached), min(len(reached), 3), replace=False).tolist())
    gt_ignore = rng.random((3, len(gt_box))) < 0.3
    return dt_box[order], dt_cell[order], gt_box, gt_cell, gt_ignore, thresholds or [0.5]


def _contested(dt_box, dt_cell, gt_box, gt_cell, threshold):
    """Which detections share a GT of their cell in reach with another."""
    reach = [
        {
            g
            for g in range(len(gt_box))
            if gt_cell[g] == c and iou(_box(*d), _box(*gt_box[g])) >= threshold
        }
        for d, c in zip(dt_box, dt_cell)
    ]
    return [any(r & o for j, o in enumerate(reach) if j != i) for i, r in enumerate(reach)]


def test_match_cells_steps_agree_with_the_greedy_rule():
    # Cell 0 holds four contested detections, so it settles in four keyed
    # steps: D1 and D2 share GT 0 (IoU 1 and 9/11), D3 and D4 share GT 1
    # (9/11 and 2/3).  Region 2 is in reach of D4 alone (9/11; D3 pairs it
    # at 3/7), so it is contested only in the last step.  Cell 1 beside it
    # is uncontested and settles by comparison: D5 hits GT 3, D6 misses,
    # and region 4 absorbs D7.  In stratum 1, GT 1 is the ignore region and
    # GT 2 is real.
    gt_box = np.array(
        [(0, 0, 10, 10), (30, 0, 10, 10), (33, 0, 10, 10), (100, 0, 10, 10), (130, 0, 10, 10)],
        dtype=float,
    )
    gt_cell = np.array([0, 0, 0, 1, 1])
    gt_ignore = np.array([[0, 0, 1, 0, 1], [0, 1, 0, 0, 1]], dtype=bool)
    dt_box = np.array(
        [(0, 0, 10, 10), (1, 0, 10, 10), (29, 0, 10, 10), (32, 0, 10, 10),
         (100, 0, 10, 10), (200, 0, 10, 10), (131, 0, 10, 10)],
        dtype=float,
    )
    dt_cell = np.array([0, 0, 0, 0, 1, 1, 1])
    thresholds = [0.5, 0.75, 0.85]
    thr = np.tile(thresholds, len(gt_ignore))[:, None]
    masks = np.vstack((~gt_ignore, gt_ignore))
    got = _match_cells(dt_box, dt_cell, gt_box, gt_cell, masks, thr)
    want = [
        _greedy_outcomes(dt_box, dt_cell, gt_box, gt_cell, ignore, t)
        for ignore in gt_ignore
        for t in thresholds
    ]
    np.testing.assert_array_equal(got, want)
    # D2 finds GT 0 taken in step 1, and D4 finds GT 1 taken in step 3
    assert want[0] == [1, 0, 1, 2, 1, 0, 2]
    assert want[3] == [1, 0, 2, 1, 1, 0, 2]  # stratum 1: D4 prefers real GT 2
    assert want[2] == [1, 0, 0, 0, 1, 0, 0]  # 0.85: only the exact boxes match

    # Random cells, where contested and uncontested detections share one
    # call and one cell and an uncontested one can reach an ignore region.
    # Count that both happen.
    seen = {"mixed cell": 0, "uncontested absorbed": 0}
    for seed in range(150):
        dt_box, dt_cell, gt_box, gt_cell, gt_ignore, thresholds = _random_cells(
            np.random.default_rng(seed)
        )
        thr = np.tile(thresholds, len(gt_ignore))[:, None]
        masks = np.vstack((~gt_ignore, gt_ignore))
        got = _match_cells(dt_box, dt_cell, gt_box, gt_cell, masks, thr)
        want = [
            _greedy_outcomes(dt_box, dt_cell, gt_box, gt_cell, ignore, t)
            for ignore in gt_ignore
            for t in thresholds
        ]
        want = np.array(want).reshape(got.shape)
        np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")
        contested = np.array(_contested(dt_box, dt_cell, gt_box, gt_cell, thresholds[0]), bool)
        mixed = set(dt_cell[contested].tolist()) & set(dt_cell[~contested].tolist())
        seen["mixed cell"] += bool(mixed)
        seen["uncontested absorbed"] += bool((got[:, ~contested] == 2).any())
    assert min(seen.values()) >= 10, seen


def _accumulate_2d(tps, fps, n_eligible, need):
    """``_accumulate`` with the recall samples gathered by (row, column)."""
    n_rows, n_det = tps.shape
    tp_sum, fp_sum = np.cumsum(tps, axis=1), np.cumsum(fps, axis=1)
    pr = tp_sum / (tp_sum + fp_sum + np.spacing(1))
    envelope = np.zeros((n_rows, n_det + 1))
    envelope[:, :-1] = np.maximum.accumulate(pr[:, ::-1], axis=1)[:, ::-1]
    first = np.full((n_rows, n_eligible.max() + 1), n_det)
    first[:, 0] = 0
    for r in range(n_rows):
        for c in np.flatnonzero(tps[r]):
            first[r, tp_sum[r, c]] = c
    row = np.arange(n_rows)[:, None]
    final = tp_sum[:, -1] / n_eligible if n_det else np.zeros(n_rows)
    return envelope[row, first[row, need]], final


@st.composite
def _flag_rows(draw):
    """TP/FP rows (some without a TP, some whose TPs reach the eligible count)."""
    n_rows, n_det = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    fate = st.lists(st.sampled_from([0, 1, 2]), min_size=n_det, max_size=n_det)
    codes = np.array([draw(fate) for _ in range(n_rows)], dtype=np.int8).reshape(n_rows, n_det)
    tps, fps = codes == 1, codes == 2
    hits = tps.sum(axis=1)
    n_eligible = np.array([max(h, 1) + draw(st.sampled_from([0, 0, 1, 3])) for h in hits.tolist()])
    return tps, fps, n_eligible


def _check_flat_gather(tps, fps, n_eligible):
    """``_accumulate`` on flat ``need`` indices equals the 2-D gather; returns its result."""
    need = np.stack([np.searchsorted(np.arange(k + 1) / k, _RECALL_SAMPLES) for k in n_eligible])
    flat = need + np.arange(len(need))[:, None] * (n_eligible.max() + 1)
    got = _accumulate(tps, fps, n_eligible, flat)
    want = _accumulate_2d(tps, fps, n_eligible, need)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    return got


@given(rows=_flag_rows())
@settings(max_examples=200, deadline=None)
def test_accumulate_flat_gather_equals_the_2d_gather(rows):
    _check_flat_gather(*rows)


def test_accumulate_flat_gather_edge_rows():
    no_dets = np.zeros((3, 0), bool)
    prec, rec = _check_flat_gather(no_dets, no_dets, np.array([1, 2, 5]))
    assert not prec.any() and not rec.any()
    # row 0 holds no TP; row 1's two TPs reach its 2 eligible GTs at
    # precision 2/3, which answers every recall sample
    tps = np.array([[0, 0, 0], [1, 0, 1]], bool)
    fps = np.array([[1, 0, 1], [0, 1, 0]], bool)
    prec, rec = _check_flat_gather(tps, fps, np.array([2, 2]))
    assert not prec[0].any() and rec.tolist() == [0.0, 1.0]
    assert prec[1, 51:].tolist() == pytest.approx([2 / 3] * 50)


def test_accumulate_envelope_at_tps_edge_rows():
    # Codes 0 ignored, 1 TP, 2 FP.  Row 0's TP follows a run of ignored
    # detections; row 1's precision rises again after its FP (TP, FP, TP,
    # TP); row 2 is all ignored; row 3's TPs reach its eligible count.
    codes = np.array([[0, 0, 0, 1, 2], [1, 2, 1, 1, 0], [0, 0, 0, 0, 0], [2, 1, 1, 2, 0]])
    prec, rec = _check_flat_gather(codes == 1, codes == 2, np.array([2, 4, 3, 2]))
    assert rec.tolist() == [0.5, 0.75, 0.0, 1.0]
    assert not prec[2].any()
    # row 1's second TP reads 2/3, but its envelope there is the 3/4 of
    # the third; past the third TP no sample is reached
    assert prec[1, 0] == pytest.approx(1.0) and prec[1, [50, 75]].tolist() == [0.75, 0.75]
    assert not prec[1, 76:].any()


@pytest.mark.parametrize(
    "gt",
    [
        Dataset(images=(), annotations=(), categories=(CategoryRecord(id=1, name="puddle"),)),
        Dataset(images=_corpus([]).images, annotations=(), categories=()),
        _corpus([], n_images=3),
    ],
    ids=["no images", "no categories", "no annotations"],
)
def test_evaluate_on_a_dataset_without_ground_truth_is_undefined(gt):
    # eligible GT are counted per category position, cell // image count
    report = evaluate(gt, ())
    assert report.as_dict() == dict.fromkeys(METRIC_NAMES, UNDEFINED)


@pytest.mark.parametrize(
    ("gt", "missing"),
    [
        (
            Dataset(images=(), annotations=(), categories=(CategoryRecord(id=1, name="puddle"),)),
            "image 1",
        ),
        (Dataset(images=_corpus([]).images, annotations=(), categories=()), "category 1"),
    ],
    ids=["no images", "no categories"],
)
def test_evaluate_on_an_empty_dataset_rejects_a_detection(gt, missing):
    # an empty id column holds no position to look a detection up at
    with pytest.raises(DatasetError, match=f"^detection #0 references missing {missing}$"):
        evaluate(gt, [_det(_box(0, 0, 10, 10), 0.9)])


@pytest.mark.parametrize("bad", [0, 1.5, True])
def test_evaluate_rejects_bad_max_dets(bad):
    # 1.5 would cap a cell at two detections and True at one
    with pytest.raises(ValueError):
        evaluate(_corpus([_gt(1, _box(0, 0, 10, 10))]), [], max_dets=bad)


# -- average precision anchors


def test_ap_perfect_single_detection():
    gt = _corpus([_gt(1, _box(10, 10, 30, 30))])
    dets = [_det(_box(10, 10, 30, 30), 0.9)]
    assert _ap_at(gt, dets) == pytest.approx(1.0)


def test_ap_depends_on_threshold():
    # IoU 0.6: a hit at the loose threshold, a miss at the strict one
    gt = _corpus([_gt(1, _box(0, 0, 10, 10))])
    dets = [_det(_box(0, 2.5, 10, 10), 0.9)]
    assert iou(gt.annotations[0].bbox, dets[0].bbox) == pytest.approx(0.6)
    assert _ap_at(gt, dets) == pytest.approx(1.0)
    assert _ap_at(gt, dets, thr=0.75) == 0.0


def test_ap_interpolated_hand_value():
    # two GTs, three detections: TP, FP, TP in score order
    gt = _corpus([_gt(1, _box(0, 0, 10, 10)), _gt(2, _box(100, 100, 10, 10))])
    dets = [
        _det(_box(0, 0, 10, 10), 0.9),
        _det(_box(300, 300, 10, 10), 0.8),
        _det(_box(100, 100, 10, 10), 0.7),
    ]
    # precision envelope: 1 up to recall 0.5, then 2/3; 51 + 50*(2/3) samples
    assert _ap_at(gt, dets) == pytest.approx(253 / 303)


def test_ap_unreached_recall_counts_zero():
    # one of two GTs found: samples past recall 0.5 contribute nothing
    gt = _corpus([_gt(1, _box(0, 0, 10, 10)), _gt(2, _box(100, 100, 10, 10))])
    dets = [_det(_box(0, 0, 10, 10), 0.9)]
    assert _ap_at(gt, dets) == pytest.approx(51 / 101)


def test_ap_none_for_empty_stratum():
    gt = _corpus([_gt(1, _box(0, 0, 60, 60))])  # medium only
    assert evaluate(gt, [], thresholds=[0.5]).aps == UNDEFINED


def test_ap_ignores_out_of_stratum_detections():
    # a medium-sized false positive must not hurt the small stratum
    gt = _corpus([_gt(1, _box(0, 0, 20, 20))])
    dets = [
        _det(_box(0, 0, 20, 20), 0.9),
        _det(_box(200, 200, 60, 60), 0.95),
    ]
    report = evaluate(gt, dets, thresholds=[0.5])
    assert report.aps == pytest.approx(1.0)
    # in the unstratified view the same detection is a plain FP
    assert report.ap < 1.0


@pytest.mark.parametrize(
    "area, size",
    [
        (SMALL_MAX_AREA, SizeClass.SMALL),
        (math.nextafter(SMALL_MAX_AREA, math.inf), SizeClass.MEDIUM),
        (MEDIUM_MAX_AREA, SizeClass.MEDIUM),
        (math.nextafter(MEDIUM_MAX_AREA, math.inf), SizeClass.LARGE),
    ],
)
def test_strata_agree_with_classify_size_on_the_boundaries(area, size):
    box = _box(0, 0, 32, area / 32)  # dividing by a power of two is exact
    assert box.area == area and classify_size(area) is size
    report = evaluate(_corpus([_gt(1, box)]), [_det(box, 0.9)])
    # a stratum without the GT has nothing to score
    counted = {name for name in ("aps", "ars", "apm", "arm") if getattr(report, name) != UNDEFINED}
    assert counted == {
        SizeClass.SMALL: {"aps", "ars"},
        SizeClass.MEDIUM: {"apm", "arm"},
        SizeClass.LARGE: set(),
    }[size]
    for name in ("ap", "ar", *counted):
        assert getattr(report, name) == pytest.approx(1.0)


# -- full evaluation


def _perfect_setup():
    boxes = [
        _box(10, 10, 20, 20),    # small
        _box(50, 50, 20, 20),    # small
        _box(100, 100, 60, 60),  # medium
        _box(300, 300, 60, 60),  # medium
    ]
    gt = _corpus([_gt(i + 1, b) for i, b in enumerate(boxes)])
    dets = [_det(b, 0.95 - 0.05 * i) for i, b in enumerate(boxes)]
    return gt, dets


def test_evaluate_perfect_detector_is_all_ones():
    gt, dets = _perfect_setup()
    report = evaluate(gt, dets)
    assert report.as_dict() == {name: 1.0 for name in METRIC_NAMES}


def test_evaluate_no_detections_scores_zero():
    gt, _ = _perfect_setup()
    report = evaluate(gt, [])
    assert report.ap == 0.0
    assert report.ar == 0.0
    assert report.aps == 0.0
    assert report.arm == 0.0


def test_evaluate_empty_strata_report_sentinel():
    gt = _corpus([_gt(1, _box(0, 0, 20, 20))])  # small only
    report = evaluate(gt, [_det(_box(0, 0, 20, 20), 0.9)])
    assert report.apm == UNDEFINED
    assert report.arm == UNDEFINED
    assert report.aps == pytest.approx(1.0)


def test_evaluate_without_ground_truth_is_undefined():
    # no annotations at all, and a fold whose images hold none, both with
    # detections to score
    dets = [_det(_box(0, 0, 10, 10), 0.9), _det(_box(5, 5, 40, 40), 0.4, image_id=2)]
    bare = _corpus([], n_images=2)
    fold = _corpus([_gt(1, _box(0, 0, 10, 10), image_id=3)], n_images=3).subset([1, 2])
    for gt in (bare, fold):
        assert evaluate(gt, dets).as_dict() == dict.fromkeys(METRIC_NAMES, UNDEFINED)


def test_evaluate_ap50_ap75_track_their_thresholds():
    gt = _corpus([_gt(1, _box(0, 0, 10, 10))])
    dets = [_det(_box(0, 2.5, 10, 10), 0.9)]  # IoU 0.6
    report = evaluate(gt, dets)
    assert report.ap50 == pytest.approx(1.0)
    assert report.ap75 == 0.0
    # a sweep without 0.50/0.75 cannot report them
    report2 = evaluate(gt, dets, thresholds=[0.6])
    assert report2.ap50 == UNDEFINED
    assert report2.ap75 == UNDEFINED


def test_evaluate_caps_detections_per_image():
    gt = _corpus([_gt(1, _box(0, 0, 10, 10))])
    dets = [
        _det(_box(200, 200, 10, 10), 0.9),  # FP outscores the hit
        _det(_box(0, 0, 10, 10), 0.8),
    ]
    capped = evaluate(gt, dets, thresholds=[0.5], max_dets=1)
    assert capped.ap == 0.0
    full = evaluate(gt, dets, thresholds=[0.5], max_dets=2)
    assert full.ap == pytest.approx(0.5)


def test_evaluate_final_recall_is_hit_fraction():
    gt = _corpus(
        [
            _gt(1, _box(0, 0, 20, 20), image_id=1),
            _gt(2, _box(50, 50, 20, 20), image_id=1),
            _gt(3, _box(0, 0, 20, 20), image_id=2),
            _gt(4, _box(50, 50, 20, 20), image_id=2),
        ],
        n_images=2,
    )
    dets = [
        _det(_box(0, 0, 20, 20), 0.9, image_id=1),
        _det(_box(50, 50, 20, 20), 0.8, image_id=1),
        _det(_box(0, 0, 20, 20), 0.7, image_id=2),
    ]
    report = evaluate(gt, dets, thresholds=[0.5])
    assert report.ar == pytest.approx(0.75)


def test_evaluate_rejects_dangling_detection():
    gt = _corpus([_gt(1, _box(0, 0, 10, 10))])
    ok = _det(_box(0, 0, 10, 10), 0.9)
    with pytest.raises(DatasetError, match="^detection #1 references missing image 77$"):
        evaluate(gt, [ok, _det(_box(0, 0, 10, 10), 0.9, image_id=77)])
    stray = Detection(image_id=1, category_id=5, bbox=ok.bbox, score=0.9)
    with pytest.raises(DatasetError, match="^detection #1 references missing category 5$"):
        evaluate(gt, [ok, stray])


@pytest.mark.parametrize(
    "dets, message",
    [
        ([1, 2], "detection #0 must be a Detection, got int"),
        ("ab", "detection #0 must be a Detection, got str"),
        ([None], "detection #0 must be a Detection, got NoneType"),
        ([_det(_box(0, 0, 10, 10), 0.9), {}], "detection #1 must be a Detection, got dict"),
    ],
)
def test_evaluate_refuses_a_sequence_holding_a_non_record(dets, message):
    gt = _corpus([_gt(1, _box(0, 0, 10, 10))])
    with pytest.raises(DatasetError, match=f"^{message}$"):
        evaluate(gt, dets)


def test_evaluate_threshold_monotone():
    gt = _corpus(
        [_gt(1, _box(0, 0, 30, 30)), _gt(2, _box(60, 0, 30, 30)), _gt(3, _box(0, 60, 30, 30))]
    )
    dets = [
        _det(_box(2, 1, 30, 30), 0.9),
        _det(_box(63, 2, 30, 28), 0.8),
        _det(_box(0, 55, 28, 30), 0.7),
        _det(_box(200, 200, 30, 30), 0.6),
    ]
    values = [_ap_at(gt, dets, thr) for thr in (0.5, 0.6, 0.7, 0.8, 0.9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_metric_report_round_trip():
    report = MetricReport(0.5, 0.9, 0.4, 0.3, 0.6, 0.55, 0.35, 0.65)
    assert tuple(report.as_dict()) == METRIC_NAMES


# -- stored reference corpus


def test_evaluate_matches_reference_fixture():
    gt = parse_coco((DATA / "ref_eval_gt.json").read_text())
    dets = parse_detections((DATA / "ref_eval_dets.json").read_text(), gt)
    expected = json.loads((DATA / "ref_eval_expected.json").read_text())
    report = evaluate(
        gt, dets, thresholds=expected["thresholds"], max_dets=expected["max_dets"]
    )
    for name, want in expected["metrics"].items():
        assert getattr(report, name) == pytest.approx(want, abs=1e-6), name


# -- differential check against the independent reference evaluator


def _assert_matches_reference(gt, dets, thresholds, max_dets):
    got = evaluate(gt, dets, thresholds=thresholds, max_dets=max_dets).as_dict()
    gt_doc, det_doc = json.loads(write_coco(gt)), json.loads(write_detections(dets))
    want = ref_evaluate(gt_doc, det_doc, thresholds, max_dets)
    for name in METRIC_NAMES:
        assert abs(got[name] - want[name]) <= 1e-9, (name, got[name], want[name])


def _jitter(cell, step):
    x, y, w, h = (a + d for a, d in zip(cell, step))
    return _box(8 * x, 8 * y, 8 * max(w, 0), 8 * max(h, 0))


# Boxes are anchors on an 8 px grid, moved by at most one cell per field,
# so IoU ties, exact threshold hits and real/ignore contests are common.
# Anchor extents span the small, medium and large strata.
_cell = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 16), st.integers(1, 16))
_step = st.tuples(*[st.integers(-1, 1)] * 4)


@st.composite
def _random_corpus(draw, max_images=2):
    n_images = draw(st.integers(1, max_images))
    n_cats = draw(st.integers(1, 2))
    # the listing order must not matter: cells are visited in id order
    image_order = draw(st.permutations(range(1, n_images + 1)))
    cat_order = draw(st.permutations(range(1, n_cats + 1)))
    slot = st.tuples(st.integers(1, n_images), st.integers(1, n_cats))
    box = st.builds(_jitter, st.sampled_from(draw(st.lists(_cell, min_size=1, max_size=3))), _step)
    # about one annotation in five is an ignore region
    placed = draw(st.lists(st.tuples(slot, box, st.integers(0, 4)), min_size=1, max_size=12))
    ids = draw(st.permutations(range(1, len(placed) + 1)))
    anns = [
        AnnotationRecord(
            id=ann_id, image_id=img, category_id=cat, bbox=b, ignore=roll == 0
        )
        for ann_id, ((img, cat), b, roll) in zip(ids, placed)
    ]
    score = st.sampled_from([0.2, 0.5, 0.5, 0.8, 0.9])
    dets = [
        Detection(image_id=img, category_id=cat, bbox=b, score=sc)
        for (img, cat), b, sc in draw(st.lists(st.tuples(slot, box, score), max_size=16))
    ]
    gt = Dataset(
        images=tuple(
            ImageRecord(id=i, file_name=f"f{i}.raw", width=640, height=480) for i in image_order
        ),
        annotations=tuple(anns),
        categories=tuple(CategoryRecord(id=c, name=f"c{c}") for c in cat_order),
    )
    return gt, dets


# ref_evaluate needs 0.5 and 0.75 in every sweep
_sweeps = st.one_of(
    st.just(list(DEFAULT_IOU_THRESHOLDS)),
    st.sets(st.sampled_from([0.3, 0.6, 0.9, 1.0])).map(
        lambda extra: sorted({0.5, 0.75} | extra)
    ),
)


@given(corpus=_random_corpus(), thresholds=_sweeps, max_dets=st.sampled_from([2, 5, 100]))
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_reference_on_random_corpora(corpus, thresholds, max_dets):
    gt, dets = corpus
    _assert_matches_reference(gt, dets, thresholds, max_dets)


@given(
    corpus=_random_corpus(max_images=4), thresholds=_sweeps, max_dets=st.sampled_from([1, 2, 100])
)
@settings(max_examples=100, deadline=None)
def test_columns_score_as_their_records(corpus, thresholds, max_dets):
    # the columns a file parses into, or records are turned into, score as
    # the records do, whatever order the dataset lists its images and
    # categories in
    gt, dets = corpus
    columns = parse_detections(write_detections(dets), gt)
    assert tuple(columns) == tuple(dets) and columns == Detections.from_records(dets)
    want = evaluate(gt, tuple(dets), thresholds=thresholds, max_dets=max_dets)
    assert evaluate(gt, columns, thresholds=thresholds, max_dets=max_dets) == want
    _assert_matches_reference(gt, columns, thresholds, max_dets)


@st.composite
def _folded_corpus(draw):
    """A random corpus, a fold of its images, sometimes a fold of a fold."""
    gt, dets = draw(_random_corpus(max_images=4))
    fold = gt.subset(draw(st.sets(st.sampled_from(gt.image_ids()))))
    if len(fold) and draw(st.booleans()):
        fold = fold.subset(draw(st.sets(st.sampled_from(fold.image_ids()))))
    return gt, fold, dets


@given(case=_folded_corpus(), thresholds=_sweeps, max_dets=st.sampled_from([1, 2, 100]))
@settings(max_examples=150, deadline=None)
def test_fold_scores_as_its_records_rebuilt(case, thresholds, max_dets):
    gt, fold, dets = case
    # the parent is scored first, so the fold reuses its prepared columns
    evaluate(gt, dets, thresholds=thresholds, max_dets=max_dets)
    rebuilt = Dataset(fold.images, fold.annotations, fold.categories)
    kept = [d for d in dets if fold.has_image(d.image_id)]
    assert evaluate(fold, kept, thresholds=thresholds, max_dets=max_dets) == evaluate(
        rebuilt, kept, thresholds=thresholds, max_dets=max_dets
    )
    _assert_matches_reference(fold, kept, thresholds, max_dets)
    # an image of the parent outside the fold is missing from the fold
    dropped = [i for i, d in enumerate(dets) if not fold.has_image(d.image_id)]
    if dropped:
        want = f"detection #{dropped[0]} references missing image {dets[dropped[0]].image_id}"
        for ds in (fold, rebuilt):
            with pytest.raises(DatasetError) as err:
                evaluate(ds, dets, thresholds=thresholds, max_dets=max_dets)
            assert str(err.value) == want


def test_prepared_columns_follow_their_own_dataset():
    # a 6 px box: filtering turns it into an ignore region, which moves AP
    anns = [_gt(1, _box(0, 0, 6, 6)), _gt(2, _box(50, 50, 30, 30))]
    gt = _corpus(anns + [_gt(3, _box(0, 0, 30, 30), image_id=2)], n_images=2)
    dets = [_det(_box(0, 0, 6, 6), 0.9), _det(_box(52, 50, 30, 30), 0.8)]
    dets.append(_det(_box(1, 0, 30, 30), 0.7, image_id=2))
    text = write_coco(gt)
    evaluate(gt, dets)
    derived = (
        filter_small_objects,
        lambda ds: ds.subset([1]),
        lambda ds: filter_small_objects(ds).subset([1]),
    )
    for derive in derived:
        ds = derive(gt)
        kept = [d for d in dets if ds.has_image(d.image_id)]
        assert evaluate(ds, kept) == evaluate(derive(parse_coco(text)), kept)
    assert evaluate(filter_small_objects(gt), dets) != evaluate(gt, dets)
    # the filtered dataset's fold of image 1 is its own, with its own tables
    fold, filtered = gt.subset([1]), filter_small_objects(gt).subset([1])
    kept = [d for d in dets if d.image_id == 1]
    assert filtered is not fold
    assert evaluate(filtered, kept) != evaluate(fold, kept)
    assert filtered._columns is not fold._columns


def test_folds_build_their_tables_without_the_parent():
    anns = [_gt(1, _box(0, 0, 30, 30)), _gt(2, _box(0, 0, 30, 30), image_id=2)]
    gt = parse_coco(write_coco(_corpus(anns, n_images=3)))
    dets = [_det(_box(0, 0, 30, 30), 0.9, image_id=2)]
    for ids in ([2], [1, 2], [2, 3]):
        fold = gt.subset(ids)
        rebuilt = Dataset(fold.images, fold.annotations, fold.categories)
        assert evaluate(fold, dets) == evaluate(rebuilt, dets)
    assert not gt._columns


# any valid sweep: folds are compared with their records rebuilt, not with
# the reference
_any_sweep = st.one_of(
    st.none(), st.sets(st.sampled_from([0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]), min_size=1).map(sorted)
)


@given(corpus=_random_corpus(max_images=5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_folds_cut_and_scored_in_any_order_score_as_rebuilt(corpus, data):
    gt, dets = corpus
    datasets = [gt]
    for _ in range(data.draw(st.integers(1, 8))):
        # cut a new fold or a fold of a fold, or re-cut an earlier one, and
        # score one dataset seen so far with a sweep and cap of its own
        src = data.draw(st.sampled_from(datasets))
        ids = src.image_ids()
        datasets.append(src.subset(data.draw(st.sets(st.sampled_from(ids))) if ids else ()))
        ds = data.draw(st.sampled_from(datasets))
        thresholds, max_dets = data.draw(_any_sweep), data.draw(st.sampled_from([1, 2, 3, 100]))
        kept = [d for d in dets if ds.has_image(d.image_id)]
        rebuilt = Dataset(ds.images, ds.annotations, ds.categories)
        assert evaluate(ds, kept, thresholds=thresholds, max_dets=max_dets) == evaluate(
            rebuilt, kept, thresholds=thresholds, max_dets=max_dets
        )


@given(
    case=_folded_corpus(),
    sweeps=st.lists(st.tuples(_sweeps, st.sampled_from([1, 2, 100])), min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_sweep_tables_do_not_leak_between_sweeps(case, sweeps):
    # one fold scored under alternating sweeps and caps, the default sweep
    # twice, scores each time as a fold rebuilt for that call alone
    _, fold, dets = case
    kept = [d for d in dets if fold.has_image(d.image_id)]
    calls = [(None, 100), *sweeps, (None, 2), *sweeps[::-1]]
    for thresholds, max_dets in calls:
        rebuilt = Dataset(fold.images, fold.annotations, fold.categories)
        assert evaluate(fold, kept, thresholds=thresholds, max_dets=max_dets) == evaluate(
            rebuilt, kept, thresholds=thresholds, max_dets=max_dets
        )
    # one table per distinct sweep, whatever the cap
    distinct = {validate_thresholds(t) for t, _ in calls}
    assert set(fold._columns) == distinct


def test_a_sweep_scored_again_reuses_its_table():
    # sweep A, then B, then A again: the second A reads A's table, not B's
    gt = _corpus([_gt(1, _box(0, 0, 30, 30)), _gt(2, _box(60, 0, 30, 30))])
    dets = [_det(_box(2, 0, 30, 30), 0.9), _det(_box(66, 6, 30, 30), 0.8)]
    sweep_a, sweep_b = (0.5, 0.75), (0.6, 0.9)
    first = evaluate(gt, dets, thresholds=sweep_a)
    table = gt._columns[sweep_a]
    assert evaluate(gt, dets, thresholds=sweep_b) != first
    assert evaluate(gt, dets, thresholds=sweep_a) == first
    assert gt._columns[sweep_a] is table
    assert set(gt._columns) == {sweep_a, sweep_b}


def test_evaluate_matches_reference_at_one_ulp_recall():
    # 35 of 100 GTs hit: recall 35/100 == 0.35 sits one ulp below COCO's
    # recall sample 0.35000000000000003, so that sample is not reached
    boxes = [_box(40 * (i % 10), 40 * (i // 10), 20, 20) for i in range(100)]
    gt = _corpus([_gt(i + 1, b) for i, b in enumerate(boxes)])
    dets = [_det(b, 0.9) for b in boxes[:35]]
    _assert_matches_reference(gt, dets, [0.5, 0.75], 100)
    assert evaluate(gt, dets, thresholds=[0.5, 0.75]).ap == pytest.approx(35 / 101)


def test_evaluate_visits_images_in_id_order():
    # a TP in image 1 and an FP in image 2 tie on score; in id order the TP
    # comes first, whatever order the file lists the images in
    anns = [_gt(1, _box(0, 0, 20, 20), image_id=1), _gt(2, _box(0, 0, 20, 20), image_id=2)]
    dets = [_det(_box(0, 0, 20, 20), 0.5, image_id=1), _det(_box(200, 200, 20, 20), 0.5, image_id=2)]
    listed = _corpus(anns, n_images=2)
    reversed_listing = Dataset(listed.images[::-1], listed.annotations, listed.categories)
    _assert_matches_reference(reversed_listing, dets, [0.5, 0.75], 100)
    assert evaluate(reversed_listing, dets).ap == evaluate(listed, dets).ap == pytest.approx(51 / 101)


def _dense_corpus(seed):
    """One crowded cell beside many one-GT cells, all in category 1.

    Image 1 holds 60 GTs (some overlapping, about 15% ignore) and 150
    detections: a jittered copy of most GTs, several near-duplicates and
    scattered false positives, with tied scores.  Images 2..51 hold one GT
    and up to three detections each.
    """
    rng = np.random.default_rng(seed)
    anns, dets = [], []

    def box(x, y, w, h):
        return _box(round(x, 1), round(y, 1), round(max(w, 1.0), 1), round(max(h, 1.0), 1))

    crowd = []
    for i in range(60):
        w, h = rng.choice([12.0, 24.0, 40.0, 64.0, 110.0]) * rng.uniform(0.8, 1.2, 2)
        crowd.append(box(rng.uniform(0, 400), rng.uniform(0, 300), w, h))
        anns.append(_gt(1000 - i, crowd[-1], image_id=1, ignore=bool(rng.random() < 0.15)))
    scores = [0.3, 0.5, 0.5, 0.7, 0.9]
    for _ in range(150):
        kind = rng.random()
        if kind < 0.8:
            b = crowd[rng.integers(len(crowd))]
            dx, dy, dw, dh = rng.normal(0, 0.12, 4) * [b.w, b.h, b.w, b.h]
            b = box(b.x + dx, b.y + dy, b.w + dw, b.h + dh)
        else:
            b = box(rng.uniform(0, 400), rng.uniform(0, 300), rng.uniform(8, 80), rng.uniform(8, 80))
        dets.append(_det(b, float(rng.choice(scores)), image_id=1))
    for img in range(2, 52):
        g = box(rng.uniform(0, 500), rng.uniform(0, 400), rng.uniform(10, 90), rng.uniform(10, 90))
        anns.append(_gt(img, g, image_id=img, ignore=bool(rng.random() < 0.1)))
        for _ in range(rng.integers(0, 4)):
            dx, dy = rng.normal(0, 0.15, 2) * [g.w, g.h]
            dets.append(_det(box(g.x + dx, g.y + dy, g.w, g.h), float(rng.choice(scores)), image_id=img))
    return _corpus(anns, n_images=51), dets


@pytest.mark.parametrize("max_dets", [100, 200])
def test_evaluate_matches_reference_on_a_dense_cell(max_dets):
    gt, dets = _dense_corpus(seed=7)
    _assert_matches_reference(gt, dets, list(DEFAULT_IOU_THRESHOLDS), max_dets)


# -- parity with the stored reports of the evaluator before comparison
# settling and the single detection order (commit 949f25a)

_SIDES = (8, 16, 24, 40, 64, 120)  # small, medium and large boxes
_NUDGE = (-4, 0, 4)
_PARITY_SWEEPS = (None, [0.3, 0.5, 0.75, 0.9])
_PARITY_CAPS = (1, 2, 3, 100)


def _tied_corpus(seed):
    """A seeded corpus whose detection scores tie across cells and categories.

    Up to 4 images and 3 categories, listed out of order.  Each cell holds
    up to 5 GTs on an 8 px grid (one in six an ignore region) and up to 8
    detections, most of which copy or nudge one of its GTs, so several
    share one; the detections are listed shuffled.  ``random.Random``
    draws the same corpus on every platform and numpy version.
    """
    rnd = random.Random(seed)

    def grid_box():
        return _box(8 * rnd.randint(0, 30), 8 * rnd.randint(0, 30), *rnd.choices(_SIDES, k=2))

    n_img, n_cat = rnd.randint(1, 4), rnd.randint(1, 3)
    placed, dets = [], []
    for img in range(1, n_img + 1):
        for cat in range(1, n_cat + 1):
            boxes = [grid_box() for _ in range(rnd.randint(0, 5))]
            placed += [(img, cat, b, rnd.random() < 1 / 6) for b in boxes]
            for _ in range(rnd.randint(0, 8)):
                if boxes and rnd.random() < 0.8:
                    b = rnd.choice(boxes)
                    dx, dy, dw, dh = rnd.choices(_NUDGE, k=4)
                    b = _box(b.x + dx, b.y + dy, b.w + dw, b.h + dh)
                else:
                    b = grid_box()
                score = rnd.choice((0.3, 0.5, 0.5, 0.7, 0.9))
                dets.append(Detection(image_id=img, category_id=cat, bbox=b, score=score))
    rnd.shuffle(dets)
    ids = rnd.sample(range(1, len(placed) + 1), len(placed))
    gt = Dataset(
        images=tuple(
            ImageRecord(id=i, file_name=f"f{i}.raw", width=640, height=480)
            for i in rnd.sample(range(1, n_img + 1), n_img)
        ),
        annotations=tuple(
            AnnotationRecord(id=a, image_id=i, category_id=c, bbox=b, ignore=ig)
            for a, (i, c, b, ig) in zip(ids, placed)
        ),
        categories=tuple(
            CategoryRecord(id=c, name=f"c{c}") for c in rnd.sample(range(1, n_cat + 1), n_cat)
        ),
    )
    return gt, dets


def _parity_reports(gt, dets):
    """Each sweep's and cap's report on one corpus, as lists of floats."""
    return [
        [getattr(evaluate(gt, dets, thresholds=t, max_dets=cap), m) for m in METRIC_NAMES]
        for t in _PARITY_SWEEPS
        for cap in _PARITY_CAPS
    ]


def test_evaluate_reports_equal_the_stored_reports_on_tied_corpora():
    # every float of every report is == the one the evaluator gave before
    # its matching was reworked; ties in score across cells and categories
    # decide the order accumulation reads, and caps 1-3 cut most cells
    stored = json.loads((DATA / "evaluate_parity.json").read_text())
    assert stored["metrics"] == list(METRIC_NAMES)
    assert stored["sweeps"] == list(_PARITY_SWEEPS) and stored["caps"] == list(_PARITY_CAPS)
    seen = {"tied across cells": 0, "tied across categories": 0, "cut by cap 3": 0}
    for seed, want in enumerate(stored["reports"]):
        gt, dets = _tied_corpus(seed)
        assert _parity_reports(gt, dets) == want, f"corpus {seed}"
        cells = {}
        for d in dets:
            cells.setdefault(d.score, []).append((d.image_id, d.category_id))
        seen["tied across cells"] += any(len(set(c)) > 1 for c in cells.values())
        seen["tied across categories"] += any(len({k for _, k in c}) > 1 for c in cells.values())
        per_cell = [c for same_score in cells.values() for c in same_score]
        seen["cut by cap 3"] += any(per_cell.count(c) > 3 for c in per_cell)
    assert len(stored["reports"]) == 40 and min(seen.values()) >= 20, seen


# -- the cross-category mean


def _many_category_corpus(n_cat, seed):
    """``n_cat`` categories over three images.  Each holds its own boxes,
    all small, none small or of every size (some cells empty, one box in
    six an ignore region), and nudged copies and strays scored at random,
    so per-category values differ in their last bits."""
    rnd = random.Random(seed)
    anns, dets = [], []
    for cat in range(1, n_cat + 1):
        sides = rnd.choice((_SIDES[:3], _SIDES[3:], _SIDES))
        for img in range(1, 4):
            for _ in range(rnd.randint(0, 3)):
                b = _box(8 * rnd.randint(0, 60), 8 * rnd.randint(0, 50), *rnd.choices(sides, k=2))
                anns.append(
                    AnnotationRecord(len(anns) + 1, img, cat, b, ignore=rnd.random() < 1 / 6)
                )
                for _ in range(rnd.randint(0, 2)):
                    d = _box(b.x + rnd.choice(_NUDGE), b.y, b.w + rnd.choice(_NUDGE), b.h)
                    dets.append(Detection(img, cat, d, rnd.random()))
            if rnd.random() < 0.5:
                b = _box(8 * rnd.randint(0, 60), 8 * rnd.randint(0, 50), *rnd.choices(_SIDES, k=2))
                dets.append(Detection(img, cat, b, rnd.random()))
    images = tuple(ImageRecord(i, f"f{i}.raw", 640, 480) for i in (1, 2, 3))
    categories = tuple(CategoryRecord(c, f"c{c}") for c in range(1, n_cat + 1))
    return Dataset(images, tuple(anns), categories), dets


@pytest.mark.parametrize("n_cat", [7, 8, 9, 128, 129, 300])
def test_each_metric_is_the_mean_over_defined_categories(n_cat):
    # every metric is == np.mean over the categories that define it, each
    # scored alone; numpy sums 8 or more values pairwise, not in order
    gt, dets = _many_category_corpus(n_cat, seed=n_cat)
    per_category = []
    for cat in gt.categories:
        alone = Dataset(
            gt.images, tuple(a for a in gt.annotations if a.category_id == cat.id), (cat,)
        )
        per_category.append(evaluate(alone, [d for d in dets if d.category_id == cat.id]))
    report = evaluate(gt, dets)
    defined, in_order = {}, 0
    for name in METRIC_NAMES:
        values = [v for v in (getattr(r, name) for r in per_category) if v != UNDEFINED]
        want = float(np.mean(values)) if values else UNDEFINED
        assert getattr(report, name) == want, name
        defined[name] = len(values)
        in_order += bool(values) and sum(values) / len(values) != want
    # each size stratum leaves some categories out, and a plain left-to-right
    # sum misses on some metric once numpy sums pairwise
    assert 0 < defined["aps"] < defined["ap"] and 0 < defined["apm"] < defined["ap"]
    assert in_order > 0 or n_cat < 8
