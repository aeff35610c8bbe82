from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermeval.coco import (
    AnnotationRecord,
    BBox,
    CategoryRecord,
    Dataset,
    DatasetError,
    Detection,
    Detections,
    ImageRecord,
    SizeClass,
    _check_number,
    classify_size,
    filter_small_objects,
    parse_coco,
    parse_detections,
    write_coco,
    write_detections,
)
from thermeval.metrics import UNDEFINED, evaluate


def _dataset(anns=(), n_images=2):
    images = tuple(
        ImageRecord(id=i + 1, file_name=f"f{i}.raw", width=640, height=480)
        for i in range(n_images)
    )
    return Dataset(
        images=images,
        annotations=tuple(anns),
        categories=(CategoryRecord(id=1, name="puddle"),),
    )


def _ann(ann_id, image_id=1, bbox=(10, 10, 20, 20), ignore=False, category_id=1):
    return AnnotationRecord(
        id=ann_id,
        image_id=image_id,
        category_id=category_id,
        bbox=BBox(*map(float, bbox)),
        ignore=ignore,
    )


# -- size classes


def test_classify_size_boundaries():
    assert classify_size(0.0) is SizeClass.SMALL
    assert classify_size(1024.0) is SizeClass.SMALL
    assert classify_size(1024.0001) is SizeClass.MEDIUM
    assert classify_size(9216.0) is SizeClass.MEDIUM
    assert classify_size(9216.0001) is SizeClass.LARGE


def test_classify_size_rejects_negative():
    with pytest.raises(DatasetError):
        classify_size(-1.0)


# -- records


def test_bbox_area_and_corners():
    b = BBox(2.0, 3.0, 10.0, 4.0)
    assert b.area == 40.0
    assert b.corners == (2.0, 3.0, 12.0, 7.0)
    assert b.as_list() == [2.0, 3.0, 10.0, 4.0]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "bad",
    [
        (0, 0, -2, 5),
        (0, 0, 5, -2),
        # non-finite fields must not reach the metrics
        (_NAN, 0, 1, 1),
        (0, _NAN, 1, 1),
        (0, 0, _NAN, 1),
        (0, 0, 1, _NAN),
        (_INF, 0, 1, 1),
        (0, -_INF, 1, 1),
        (0, 0, _INF, 1),
        (0, 0, 1, _INF),
        # finite fields whose area or far corner overflows
        (0, 0, 1e200, 1e200),
        (1e308, 0, 1e308, 1),
        (0, 1e308, 1, 1e308),
    ],
)
def test_bbox_rejects_negative_extent(bad):
    with pytest.raises(DatasetError):
        BBox(*map(float, bad))


def test_bbox_allows_negative_corner():
    # a box may start off-canvas; only the extent is sign-checked
    assert BBox(-3.0, -1.0, 5.0, 5.0).area == 25.0


def test_bbox_rejects_an_int_too_large_for_a_float():
    # the corner's float conversion overflows rather than going infinite
    with pytest.raises(DatasetError, match=r"^bbox \[1\d{400}, 0, 1, 1\] must have a finite corner"):
        BBox(10**400, 0, 1, 1)


def test_bbox_zero_extent_allowed():
    assert BBox(0.0, 0.0, 0.0, 0.0).area == 0.0


def test_image_record_rejects_bad_dims():
    with pytest.raises(DatasetError):
        ImageRecord(id=1, file_name="x", width=0, height=10)
    with pytest.raises(DatasetError):
        ImageRecord(id=1, file_name="x", width=True, height=True)


def test_annotation_area_is_derived():
    a = _ann(1, bbox=(0, 0, 8, 8))
    assert a.area == 64.0
    assert a.size_class is SizeClass.SMALL
    assert _ann(2, bbox=(0, 0, 40, 40)).size_class is SizeClass.MEDIUM


# -- dataset wiring


def test_dataset_indexes_annotations_by_image():
    ds = _dataset([_ann(1), _ann(2, image_id=2), _ann(3)])
    # an image's annotations are the dataset's, in dataset order
    assert [a.id for a in ds.subset([1]).annotations] == [1, 3]
    assert [a.id for a in ds.subset([2]).annotations] == [2]
    assert ds.image(2).file_name == "f1.raw"
    assert ds.image_ids() == (1, 2)


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(DatasetError, match="1"):
        _dataset([_ann(1), _ann(1, image_id=2)])


def test_dataset_names_a_duplicate_image_or_category_id():
    img = ImageRecord(id=7, file_name="a.raw", width=4, height=4)
    cat = CategoryRecord(id=3, name="puddle")
    with pytest.raises(DatasetError, match=r"^duplicate image id 7$"):
        Dataset((img, img), (), (cat,))
    with pytest.raises(DatasetError, match=r"^duplicate category id 3$"):
        Dataset((img,), (), (cat, cat))
    # images are checked before categories, and both before annotations
    with pytest.raises(DatasetError, match=r"^duplicate image id 7$"):
        Dataset((img, img), (_ann(1, image_id=99), _ann(1)), (cat, cat))
    with pytest.raises(DatasetError, match=r"^duplicate category id 3$"):
        Dataset((img,), (_ann(1, image_id=99),), (cat, cat))


def test_dataset_rejects_dangling_image_ref():
    with pytest.raises(DatasetError, match="99"):
        _dataset([_ann(1, image_id=99)])


def test_dataset_rejects_dangling_category_ref():
    with pytest.raises(DatasetError, match="7"):
        _dataset([_ann(1, category_id=7)])


def test_subset_keeps_only_named_images():
    ds = _dataset([_ann(1), _ann(2, image_id=2)])
    sub = ds.subset([2])
    assert sub.image_ids() == (2,)
    assert [a.id for a in sub.annotations] == [2]
    assert len(sub.categories) == 1


def test_subset_unknown_image_errors():
    with pytest.raises(DatasetError):
        _dataset().subset([5])


@pytest.mark.parametrize(
    "ids, bad",
    [
        ([True], "True"),
        ([1.0], "1.0"),
        ("12", "'12'"),
        ([2, 1.0], "1.0"),
        (b"\x01", "b'\\x01'"),
        (bytearray(b"\x01\x02"), "bytearray(b'\\x01\\x02')"),
    ],
)
def test_subset_rejects_a_value_that_is_not_an_id(ids, bad):
    # True and 1.0 hash equal to the id 1; a string iterates its characters
    # and bytes their ints, so each is rejected as a whole
    message = rf"^image id must be an integer, got {re.escape(bad)}$"
    with pytest.raises(DatasetError, match=message):
        _dataset().subset(ids)


def test_subset_takes_numpy_integer_ids():
    ds = _dataset([_ann(1), _ann(2, image_id=2)])
    assert ds.subset(np.array([1, 2])) is ds.subset([1, 2])
    assert ds.subset([np.int32(2)]).image_ids() == (2,)


def test_subset_returns_one_fold_per_image_set():
    ds = _dataset([_ann(1), _ann(2, image_id=2), _ann(3, image_id=3)], n_images=3)
    fold = ds.subset([1, 2])
    # listing order and repeats do not matter
    assert ds.subset([2, 1, 2]) is fold
    # a fold caches the folds cut from it in turn
    assert fold.subset([2]) is fold.subset([2])
    # a fold is equal to, hashes and prints as its records rebuilt
    rebuilt = Dataset(fold.images, fold.annotations, fold.categories)
    assert (fold, hash(fold), repr(fold)) == (rebuilt, hash(rebuilt), repr(rebuilt))
    # every id is checked against the dataset cut from
    for cut in (lambda: fold.subset([3]), lambda: ds.subset([1, 5])):
        with pytest.raises(DatasetError, match=r"^unknown image id (3|5)$"):
            cut()
    # a derived dataset has folds of its own
    assert filter_small_objects(ds).subset([1, 2]) is not fold


def test_subset_checks_ids_when_it_cuts_a_new_fold():
    # ids are checked on a new image set only; a set holding an unknown id
    # is never cached, so it fails the same way however many folds are
    ds = _dataset([_ann(1), _ann(2, image_id=2), _ann(3, image_id=3)], n_images=3)
    for _ in range(2):
        with pytest.raises(DatasetError, match=r"^unknown image id 9$"):
            ds.subset([2, 9])
        fold = ds.subset([1, 3])
        assert ds.subset([3, 1]) is fold and ds.subset([1, 3, 3]) is fold
        assert fold.subset([3]) is fold.subset([3])
        with pytest.raises(DatasetError, match=r"^unknown image id 2$"):
            fold.subset([3, 2])
    assert set(ds._folds) == {frozenset({1, 3})}


@st.composite
def _fold_chain(draw):
    """A random dataset (ids listed out of order, annotations of different
    images interleaved) followed by a fold, a fold of that fold, and so on."""
    image_ids = draw(st.permutations(range(1, draw(st.integers(1, 6)) + 1)))
    cat_ids = draw(st.permutations(range(1, draw(st.integers(1, 3)) + 1)))
    slots = draw(
        st.lists(
            st.tuples(st.sampled_from(image_ids), st.sampled_from(cat_ids), st.booleans()),
            max_size=15,
        )
    )
    ann_ids = draw(st.permutations(range(1, len(slots) + 1)))
    chain = [
        Dataset(
            images=tuple(
                ImageRecord(id=i, file_name=f"f{i}.raw", width=64, height=48) for i in image_ids
            ),
            annotations=tuple(
                _ann(a, image_id=i, category_id=c, ignore=ig)
                for a, (i, c, ig) in zip(ann_ids, slots)
            ),
            categories=tuple(CategoryRecord(id=c, name=f"c{c}") for c in cat_ids),
        )
    ]
    for _ in range(draw(st.integers(1, 3))):
        ids = chain[-1].image_ids()
        wanted = draw(st.lists(st.sampled_from(ids))) if ids else []
        chain.append(chain[-1].subset(wanted))
    return chain


@given(chain=_fold_chain())
@settings(max_examples=150, deadline=None)
def test_subset_equals_its_records_rebuilt(chain):
    for parent, fold in zip(chain, chain[1:]):
        rebuilt = Dataset(fold.images, fold.annotations, fold.categories)
        assert fold == rebuilt
        for index in ("_image_index", "_category_index"):
            assert list(getattr(fold, index).items()) == list(getattr(rebuilt, index).items())
        # the parent's listing order survives, for images and annotations alike
        assert fold.images == tuple(i for i in parent.images if fold.has_image(i.id))
        assert fold.annotations == tuple(
            a for a in parent.annotations if fold.has_image(a.image_id)
        )
        assert parent.subset(fold.image_ids()) is fold
        for image_id in set(parent.image_ids()) - set(fold.image_ids()):
            with pytest.raises(DatasetError, match=f"unknown image id {image_id}"):
                fold.subset([image_id])


# -- small-object filter


def test_filter_marks_boxes_at_or_below_threshold():
    ds = _dataset(
        [
            _ann(1, bbox=(0, 0, 10.0, 50)),   # width exactly at the cutoff
            _ann(2, bbox=(0, 0, 10.01, 50)),  # just above
            _ann(3, bbox=(0, 0, 50, 9.0)),    # short side
        ]
    )
    out = filter_small_objects(ds)
    flags = {a.id: a.ignore for a in out.annotations}
    assert flags == {1: True, 2: False, 3: True}


def test_filter_is_idempotent_and_preserves_boxes():
    ds = _dataset([_ann(1, bbox=(0, 0, 4, 4)), _ann(2, bbox=(5, 5, 30, 30))])
    once = filter_small_objects(ds)
    twice = filter_small_objects(once)
    assert once == twice
    assert [a.bbox for a in once.annotations] == [a.bbox for a in ds.annotations]


def test_filter_never_clears_existing_ignore():
    ds = _dataset([_ann(1, bbox=(0, 0, 50, 50), ignore=True)])
    out = filter_small_objects(ds, threshold=10.0)
    assert out.annotations[0].ignore is True


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_filter_rejects_a_non_finite_threshold(threshold):
    with pytest.raises(DatasetError, match="threshold"):
        filter_small_objects(_dataset([_ann(1)]), threshold)


def test_filter_rejects_a_negative_threshold():
    with pytest.raises(DatasetError, match=r"^negative size threshold -1\.0$"):
        filter_small_objects(_dataset([_ann(1)]), -1.0)


@pytest.mark.parametrize("threshold", ["10", True, None], ids=["str", "bool", "none"])
def test_filter_refuses_a_threshold_that_is_not_a_number(threshold):
    # "10" raised TypeError from math.isfinite, and True was read as 1
    message = f"^size threshold must be a number, got {re.escape(repr(threshold))}$"
    with pytest.raises(DatasetError, match=message):
        filter_small_objects(_dataset([_ann(1)]), threshold)


@given(threshold=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_filter_monotone_in_threshold(threshold):
    ds = _dataset(
        [_ann(i + 1, bbox=(0, 0, 5.0 * (i + 1), 7.0 * (i + 1))) for i in range(8)]
    )
    lo = {a.id for a in filter_small_objects(ds, threshold).annotations if a.ignore}
    hi = {
        a.id
        for a in filter_small_objects(ds, threshold + 13.0).annotations
        if a.ignore
    }
    assert lo <= hi


# -- parsing


def _doc(ds):
    return json.loads(write_coco(ds))


def test_coco_round_trip():
    ds = _dataset([_ann(1, bbox=(1.5, 2.5, 10.25, 4.0), ignore=True), _ann(2, image_id=2)])
    assert parse_coco(write_coco(ds)) == ds


def test_parse_requires_top_level_keys():
    with pytest.raises(DatasetError, match="categories"):
        parse_coco(json.dumps({"images": [], "annotations": []}))


def test_parse_checks_area_consistency():
    doc = _doc(_dataset([_ann(7)]))
    doc["annotations"][0]["area"] = 123.0
    with pytest.raises(DatasetError, match="7"):
        parse_coco(json.dumps(doc))
    # the box's area is 400: a NaN never exceeds the tolerance, strings and bools are no numbers
    for bad in (_NAN, _INF, "nan", "400", True):
        doc["annotations"][0]["area"] = bad
        with pytest.raises(DatasetError, match="annotation 7: area"):
            parse_coco(json.dumps(doc))


def test_parse_tolerates_half_pixel_area_slack():
    doc = _doc(_dataset([_ann(1, bbox=(0, 0, 20, 20))]))
    doc["annotations"][0]["area"] = 400.4
    ds = parse_coco(json.dumps(doc))
    assert ds.annotations[0].area == 400.0


def test_parse_merges_iscrowd_into_ignore():
    doc = _doc(_dataset([_ann(1)]))
    doc["annotations"][0]["iscrowd"] = 1
    assert parse_coco(json.dumps(doc)).annotations[0].ignore is True


def test_parse_reads_an_ignore_key_without_iscrowd_as_an_ignore_region():
    # a departure from pycocotools, whose _prepare reads iscrowd alone: here
    # "ignore": 1 makes an ignore region, so a detection on it is no TP
    doc = _doc(_dataset([_ann(1)]))
    doc["annotations"][0]["ignore"] = 1
    assert "iscrowd" not in doc["annotations"][0]
    ds = parse_coco(json.dumps(doc))
    assert ds.annotations[0].ignore is True
    det = Detection(image_id=1, category_id=1, bbox=ds.annotations[0].bbox, score=0.9)
    assert evaluate(ds, [det]).ap == UNDEFINED


def test_parse_rejects_non_flag_ignore():
    # a flag is a JSON bool or 0/1; bool() would read "false" and [0] as set
    doc = _doc(_dataset([_ann(1)]))
    for key in ("ignore", "iscrowd"):
        for bad in ("false", [0], 2, -1, 1.0, None):
            case = json.loads(json.dumps(doc))
            case["annotations"][0][key] = bad
            with pytest.raises(DatasetError, match=f"annotation 1: {key}"):
                parse_coco(json.dumps(case))
    doc["annotations"][0]["iscrowd"] = True
    assert parse_coco(json.dumps(doc)).annotations[0].ignore is True


def test_parse_rejects_malformed_bbox():
    # too short, NaN, infinite, an integer too large for a float, a boolean, numeric strings
    doc = _doc(_dataset([_ann(1)]))
    del doc["annotations"][0]["area"]  # so the stored-area checksum cannot reject a case
    for bad in (
        [1, 2, 3], [_NAN, 0, 1, 1], [0, 0, _INF, 1], [10**400, 0, 1, 1], [True, 10, 20, 20],
        ["0", "0", "20", "20"], [0, 0, "1e3", 5],
    ):
        doc["annotations"][0]["bbox"] = bad
        with pytest.raises(DatasetError, match="bbox"):
            parse_coco(json.dumps(doc))


def test_parse_rejects_non_json():
    # the bytes decode as no UTF-8/16/32 text
    for bad in ("{not json", b"\xff\xfe\x00"):
        with pytest.raises(DatasetError, match="malformed document"):
            parse_coco(bad)
        with pytest.raises(DatasetError, match="malformed detections document"):
            parse_detections(bad)


# -- detections


def test_detection_score_bounds():
    with pytest.raises(DatasetError):
        Detection(image_id=1, category_id=1, bbox=BBox(0, 0, 1, 1), score=1.5)


def test_detections_round_trip():
    dets = (
        Detection(image_id=1, category_id=1, bbox=BBox(1.0, 2.0, 3.0, 4.0), score=0.75),
        Detection(image_id=2, category_id=1, bbox=BBox(0.0, 0.0, 9.5, 2.25), score=0.5),
    )
    assert tuple(parse_detections(write_detections(dets))) == dets


def test_parse_detections_checks_references():
    ds = _dataset()
    text = write_detections(
        (Detection(image_id=9, category_id=1, bbox=BBox(0, 0, 1, 1), score=0.5),)
    )
    with pytest.raises(DatasetError, match="9"):
        parse_detections(text, ds)


def test_parse_detections_rejects_non_number_score():
    det = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1]}
    for bad in ("0.5", True, 10**400, _NAN, None):
        with pytest.raises(DatasetError, match="score"):
            parse_detections(json.dumps([{**det, "score": bad}]))


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"score": 1.5}, "detection score 1.5 outside [0, 1]"),
        ({"image_id": "1"}, "detection image_id must be an integer, got '1'"),
        ({"category_id": 1.0}, "detection category_id must be an integer, got 1.0"),
        ({"image_id": 2**64}, f"detection image_id {2**64} outside 64-bit range"),
    ],
)
def test_parse_detections_names_the_record_its_record_check_rejects(fault, message):
    ok = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
    want = f"^{re.escape(f'detection #1: {message}')}$"
    with pytest.raises(DatasetError, match=want):
        parse_detections(json.dumps([ok, {**ok, **fault}]))
    if "score" in fault:  # the in-process columns give the same message
        with pytest.raises(DatasetError, match=want):
            Detections([1, 1], [1, 1], [0.5, 1.5], [[0, 0, 5, 5]] * 2)


@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 100, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_detection_round_trip_property(raw):
    dets = tuple(
        Detection(image_id=1, category_id=1, bbox=BBox(x, y, w, h), score=s)
        for x, y, w, h, s in raw
    )
    assert tuple(parse_detections(write_detections(dets))) == dets


def test_write_detections_round_trips_awkward_values_byte_for_byte():
    # integer fields come back as floats, -0.0 and subnormals keep their sign
    # and value, and the 64-bit id extremes survive the int64 columns
    text = json.dumps(
        [
            {"image_id": 2**63 - 1, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 5e-324},
            {"image_id": -(2**63), "category_id": 7, "bbox": [-0.0, 0, 0.5, 1e-310], "score": -0.0},
            {"image_id": 3, "category_id": 2, "bbox": [1e300, -1e300, 1e300, 1e-300], "score": 1},
        ]
    )
    assert write_detections(parse_detections(text)) == (
        '[\n  {\n    "image_id": 9223372036854775807,\n    "category_id": 1,\n'
        '    "bbox": [\n      1.0,\n      2.0,\n      3.0,\n      4.0\n    ],\n'
        '    "score": 5e-324\n  },\n  {\n    "image_id": -9223372036854775808,\n'
        '    "category_id": 7,\n    "bbox": [\n      -0.0,\n      0.0,\n      0.5,\n'
        '      1e-310\n    ],\n    "score": -0.0\n  },\n  {\n    "image_id": 3,\n'
        '    "category_id": 2,\n    "bbox": [\n      1e+300,\n      -1e+300,\n'
        '      1e+300,\n      1e-300\n    ],\n    "score": 1.0\n  }\n]'
    )
    huge = json.loads(text)
    huge[1]["bbox"][0] = 10**400
    message = "^detection #1: bbox value must be a finite number, got 1000"
    with pytest.raises(DatasetError, match=message):
        parse_detections(json.dumps(huge))


def test_detections_are_read_only_columns():
    record = {"image_id": 2, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5}
    dets = parse_detections(json.dumps([record]))
    assert (dets.image_ids.dtype, dets.category_ids.dtype) == (np.int64, np.int64)
    assert (dets.scores.dtype, dets.boxes.dtype) == (np.float64, np.float64)
    assert dets.boxes.shape == (1, 4)
    record = Detection(image_id=2, category_id=1, bbox=BBox(1.0, 2.0, 3.0, 4.0), score=0.5)
    assert (len(dets), dets[0], dets[-1]) == (1, record, record)
    assert tuple(dets) == tuple(dets[:1]) == (record,)
    assert type(dets[0].image_id) is int and type(dets[0].bbox.x) is float
    assert dets == Detections.from_records([record]) and dets != Detections.from_records([])
    with pytest.raises(ValueError, match="read-only"):
        dets.scores[0] = 0.9
    with pytest.raises(AttributeError, match="read-only"):
        dets.scores = np.zeros(1)


def test_detections_compare_only_with_detections_and_list_their_records():
    record = Detection(image_id=2, category_id=1, bbox=BBox(1.0, 2.0, 3.0, 4.0), score=0.5)
    dets = Detections.from_records([record])
    # Detections.__eq__ returns NotImplemented, so Python falls back to identity
    assert dets.__eq__(5) is NotImplemented
    assert (dets == 5) is False and dets != 5
    assert repr(dets) == f"Detections(({record!r},))"
    assert repr(Detections.from_records([])) == "Detections(())"


@pytest.mark.parametrize(
    "columns, message",
    [
        (([1.5], [1], [0.5], [[0, 0, 1, 1]]), "image_ids must be int64 numbers, got float64"),
        (([1], [True], [0.5], [[0, 0, 1, 1]]), "category_ids must be int64 numbers, got bool"),
        (([1], [1], ["0.5"], [[0, 0, 1, 1]]), "scores must be float64 numbers"),
        (([2**63], [1], [0.5], [[0, 0, 1, 1]]), "image_ids must be int64 numbers, got uint64"),
        (([1, 2], [1], [0.5], [[0, 0, 1, 1]]), "detection columns differ in length"),
        # rows of 3 would be read as rows of 4, and a 2-D id column flattened
        (
            ([1, 1, 1], [1, 1, 1], [0.5] * 3, np.arange(12.0).reshape(4, 3)),
            "detection boxes must be (N, 4), got shape (4, 3)",
        ),
        (
            (np.ones((2, 2), dtype=np.int64), [1] * 4, [0.5] * 4, [[0, 0, 1, 1]] * 4),
            "detection image_ids must be 1-D, got shape (2, 2)",
        ),
    ],
)
def test_detections_refuse_columns_that_would_change_on_the_way(columns, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        Detections(*columns)


def _read_record_by_record(doc: object, ds: Dataset | None) -> tuple[Detection, ...]:
    """A detection list read one record at a time by the scalar checks."""
    if not isinstance(doc, list):
        raise DatasetError(f"detections document must be a list, got {type(doc).__name__}")
    out = []
    for i, raw in enumerate(doc):
        what = f"detection #{i}"
        if not isinstance(raw, dict):
            raise DatasetError(f"{what} must be an object, got {type(raw).__name__}")
        if "bbox" not in raw:
            raise DatasetError(f"{what} missing required field 'bbox'")
        box = raw["bbox"]
        if not isinstance(box, list):
            raise DatasetError(f"{what}: bbox must be a list, got {type(box).__name__}")
        if len(box) != 4:
            raise DatasetError(f"{what}: bbox must be a list of four numbers, got {box!r}")
        fields = []
        for v in box:
            _check_number(v, f"{what}: bbox value")
            try:
                if math.isfinite(v):
                    fields.append(float(v))
                    continue
            except OverflowError:
                pass
            raise DatasetError(f"{what}: bbox value must be a finite number, got {v!r}")
        try:
            bbox = BBox(*fields)
        except DatasetError as exc:
            raise DatasetError(f"{what}: {exc}") from None
        for key in ("image_id", "category_id", "score"):
            if key not in raw:
                raise DatasetError(f"{what} missing required field {key!r}")
        score = raw["score"]
        _check_number(score, f"{what}: score")
        try:
            finite = math.isfinite(score)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise DatasetError(f"{what}: score must be a finite number, got {score!r}")
        try:
            det = Detection(raw["image_id"], raw["category_id"], bbox, float(score))
        except DatasetError as exc:
            raise DatasetError(f"{what}: {exc}") from None
        if ds is not None and not ds.has_image(det.image_id):
            raise DatasetError(f"{what} references missing image {det.image_id}")
        if ds is not None and not ds.has_category(det.category_id):
            raise DatasetError(f"{what} references missing category {det.category_id}")
        out.append(det)
    return tuple(out)


def _outcome(read):
    try:
        return tuple(read())
    except DatasetError as exc:
        return str(exc)


# every kind of value a field of a detection file can hold, faults included
_FIELD = st.one_of(
    st.sampled_from(
        [0, 1, 2, 3, -1, 0.5, -0.0, 5e-324, 1e308, -1e308, 2**63 - 1, -(2**63), 2**63, 10**400]
        + [True, False, "3", None, [], {}]
    ),
    st.floats(),
    st.integers(),
)
_RECORD = st.one_of(
    st.fixed_dictionaries(
        {"image_id": _FIELD, "category_id": _FIELD, "score": _FIELD},
        optional={"bbox": st.one_of(st.lists(_FIELD, min_size=3, max_size=5), _FIELD)},
    ),
    # a record that holds every field and is valid more often
    st.builds(
        lambda i, c, box, s: {"image_id": i, "category_id": c, "bbox": box, "score": s},
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 2]),
        st.lists(st.sampled_from([0, 1, 2.5, -1, 1e308]) | _FIELD, min_size=4, max_size=4),
        st.sampled_from([0, 0.5, 1, 1.5]) | _FIELD,
    ),
    _FIELD,
)


@given(doc=st.lists(_RECORD, max_size=4), with_dataset=st.booleans())
@settings(max_examples=400, deadline=None)
def test_column_and_record_checks_agree_on_every_record(doc, with_dataset):
    # the same verdict, and on failure the same message, whichever form
    # reads the file
    ds = _dataset() if with_dataset else None
    text = json.dumps(doc)
    assert _outcome(lambda: parse_detections(text, ds)) == _outcome(
        lambda: _read_record_by_record(json.loads(text), ds)
    )


_NUMBER = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 5e-324, 1e308, -1e308]))
_ROW = st.tuples(
    st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1),
    st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER), _NUMBER,
)


@given(rows=st.lists(_ROW, max_size=4))
@settings(max_examples=300, deadline=None)
def test_detections_columns_agree_with_their_records(rows):
    # in process, the first row whose record fails names the row and the
    # record's own error
    want = None
    for i, (image_id, category_id, box, score) in enumerate(rows):
        try:
            Detection(image_id, category_id, BBox(*box), score)
        except DatasetError as exc:
            want = f"detection #{i}: {exc}"
            break
    ids, cats, boxes, scores = ([r[k] for r in rows] for k in range(4))
    got = _outcome(lambda: Detections(ids, cats, scores, boxes))
    if want is None:
        assert got == tuple(Detection(i, c, BBox(*b), s) for i, c, b, s in rows)
    else:
        assert got == want
