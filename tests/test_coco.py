from __future__ import annotations

import json

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
    ImageRecord,
    SizeClass,
    classify_size,
    filter_small_objects,
    parse_coco,
    parse_detections,
    write_coco,
    write_detections,
)


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
        assert fold._root is chain[0]
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
    assert parse_detections(write_detections(dets)) == dets


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
    assert parse_detections(write_detections(dets)) == dets
