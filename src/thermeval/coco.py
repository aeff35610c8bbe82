"""COCO-format data model: parsing, validation, serialization, and the
size-class / small-object rules applied to ground truth before evaluation.

Only the box-level subset of COCO is modeled.  Segmentation, licenses and
info blocks are accepted on input and dropped.  An ``iscrowd`` flag on an
annotation is folded into the single ``ignore`` concept and never emitted
separately.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain
from numbers import Integral
from typing import Iterable, Iterator, Mapping

# the checks live in a numpy-free leaf; ``coco.DatasetError`` is the leaf's class
from ._checks import DatasetError, _check_int, _check_number, _check_real, _check_seed

__all__ = [
    "DatasetError",
    "BBox",
    "ImageRecord",
    "AnnotationRecord",
    "CategoryRecord",
    "Dataset",
    "Detection",
    "Detections",
    "SizeClass",
    "SMALL_MAX_AREA",
    "MEDIUM_MAX_AREA",
    "AREA_TOLERANCE",
    "DEFAULT_SIZE_THRESHOLD",
    "parse_coco",
    "write_coco",
    "parse_detections",
    "write_detections",
    "classify_size",
    "filter_small_objects",
]

# ids must fit a signed 64-bit integer
_ID_MAX = 2**63 - 1
_ID_MIN = -(2**63)

# size-class boundaries in px^2 (32^2 and 96^2)
SMALL_MAX_AREA = 1024.0
MEDIUM_MAX_AREA = 9216.0

# stored "area" may disagree with w*h by at most this much
AREA_TOLERANCE = 0.5

DEFAULT_SIZE_THRESHOLD = 10.0


class SizeClass(Enum):
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify_size(area: float) -> SizeClass:
    """Map a box area in px^2 onto its size class.

    Boundaries are inclusive on the small side: 1024 is Small, 9216 is
    Medium, anything above is Large.
    """
    if area < 0:
        raise DatasetError(f"negative area {area!r} has no size class")
    if area <= SMALL_MAX_AREA:
        return SizeClass.SMALL
    if area <= MEDIUM_MAX_AREA:
        return SizeClass.MEDIUM
    return SizeClass.LARGE


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: top-left corner plus extent, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            _check_number(getattr(self, name), f"bbox field {name}")
        if self.w < 0 or self.h < 0:
            raise DatasetError(f"negative bbox extent w={self.w}, h={self.h}")
        # a NaN or inf field carries into these, and finite fields can overflow them
        try:
            finite = all(map(math.isfinite, (self.x + self.w, self.y + self.h, self.w * self.h)))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise DatasetError(f"bbox {self.as_list()} must have a finite corner and area")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def corners(self) -> tuple[float, float, float, float]:
        """(x1, y1, x2, y2) with x2/y2 exclusive."""
        return self.x, self.y, self.x + self.w, self.y + self.h

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


def _check_id(value: object, what: str) -> int:
    if not (_ID_MIN <= _check_int(value, what) <= _ID_MAX):
        raise DatasetError(f"{what} {value} outside 64-bit range")
    return value


@dataclass(frozen=True)
class ImageRecord:
    id: int
    file_name: str
    width: int
    height: int

    def __post_init__(self) -> None:
        _check_id(self.id, "image id")
        if not isinstance(self.file_name, str) or not self.file_name:
            raise DatasetError(f"image {self.id}: file_name must be a non-empty string")
        _check_int(self.width, f"image {self.id}: width")
        _check_int(self.height, f"image {self.id}: height")
        if self.width <= 0 or self.height <= 0:
            raise DatasetError(
                f"image {self.id}: non-positive dimensions {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class AnnotationRecord:
    id: int
    image_id: int
    category_id: int
    bbox: BBox
    ignore: bool = False

    def __post_init__(self) -> None:
        _check_id(self.id, "annotation id")
        _check_id(self.image_id, "annotation image_id")
        _check_id(self.category_id, "annotation category_id")

    @property
    def area(self) -> float:
        # always derived from the box; a stored area field is only a checksum
        return self.bbox.area

    @property
    def size_class(self) -> SizeClass:
        return classify_size(self.area)


@dataclass(frozen=True)
class CategoryRecord:
    id: int
    name: str

    def __post_init__(self) -> None:
        _check_id(self.id, "category id")
        if not isinstance(self.name, str) or not self.name:
            raise DatasetError(f"category {self.id}: name must be a non-empty string")


def _image_id_set(image_ids: Iterable[int]) -> frozenset[int]:
    """The distinct ids in ``image_ids``, each of which must be an integer."""
    if isinstance(image_ids, (str, bytes, bytearray)):
        # these iterate as characters or small ints, never as image ids
        raise DatasetError(f"image id must be an integer, got {image_ids!r}")
    ids = tuple(image_ids)
    # a bool or 1.0 would hash equal to the id 1; each type is checked
    # once, in listing order, as the ABC check is slow
    for kind in dict.fromkeys(map(type, ids)):
        if not issubclass(kind, Integral) or issubclass(kind, bool):
            bad = next(i for i in ids if type(i) is kind)
            raise DatasetError(f"image id must be an integer, got {bad!r}")
    return frozenset(map(int, ids))


def _by_id(records: Iterable[ImageRecord | CategoryRecord], what: str) -> dict:
    """Index records by id, rejecting a repeated id."""
    index = {}
    for rec in records:
        if rec.id in index:
            raise DatasetError(f"duplicate {what} id {rec.id}")
        index[rec.id] = rec
    return index


@dataclass(frozen=True)
class Dataset:
    """Validated, immutable ground-truth collection.

    Construction checks id uniqueness and referential integrity; every
    mutating operation returns a new Dataset.  Images with zero
    annotations are legal.
    """

    images: tuple[ImageRecord, ...]
    annotations: tuple[AnnotationRecord, ...]
    categories: tuple[CategoryRecord, ...]
    _image_index: Mapping[int, ImageRecord] = field(
        init=False, repr=False, compare=False, default=None
    )
    _category_index: Mapping[int, CategoryRecord] = field(
        init=False, repr=False, compare=False, default=None
    )
    # the folds cut from this dataset by image set, and the evaluation
    # tables ``metrics`` prepares once per dataset and threshold sweep,
    # keyed by the validated threshold tuple
    _folds: dict[frozenset[int], Dataset] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _columns: dict[tuple[float, ...], object] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "annotations", tuple(self.annotations))
        object.__setattr__(self, "categories", tuple(self.categories))

        image_index = _by_id(self.images, "image")
        category_index = _by_id(self.categories, "category")
        seen_ann: set[int] = set()
        for ann in self.annotations:
            if ann.id in seen_ann:
                raise DatasetError(f"duplicate annotation id {ann.id}")
            seen_ann.add(ann.id)
            if ann.image_id not in image_index:
                raise DatasetError(
                    f"annotation {ann.id} references missing image {ann.image_id}"
                )
            if ann.category_id not in category_index:
                raise DatasetError(
                    f"annotation {ann.id} references missing category {ann.category_id}"
                )
        object.__setattr__(self, "_image_index", image_index)
        object.__setattr__(self, "_category_index", category_index)
        object.__setattr__(self, "_folds", {})
        object.__setattr__(self, "_columns", {})

    def __len__(self) -> int:
        return len(self.images)

    def image(self, image_id: int) -> ImageRecord:
        try:
            return self._image_index[image_id]
        except KeyError:
            raise DatasetError(f"unknown image id {image_id}") from None

    def has_image(self, image_id: int) -> bool:
        return image_id in self._image_index

    def has_category(self, category_id: int) -> bool:
        return category_id in self._category_index

    def image_ids(self) -> tuple[int, ...]:
        return tuple(img.id for img in self.images)

    def subset(self, image_ids: Iterable[int]) -> "Dataset":
        """Restrict to the given images, keeping their annotations.

        Folds are cached per dataset, one per image set: cutting the same
        images from the same dataset again returns the same object, with
        the evaluation tables ``metrics`` built from its own records.
        Memory therefore grows with the distinct image sets a caller cuts
        from each dataset; a 5x5 protocol plan cuts 5 from the corpus.
        """
        wanted = _image_id_set(image_ids)
        if wanted not in self._folds:
            # a cached set was checked when it was cut
            for i in wanted:
                self.image(i)
            self._folds[wanted] = Dataset(
                tuple(img for img in self.images if img.id in wanted),
                tuple(a for a in self.annotations if a.image_id in wanted),
                self.categories,
            )
        return self._folds[wanted]


def filter_small_objects(ds: Dataset, threshold: float = DEFAULT_SIZE_THRESHOLD) -> Dataset:
    """Flag tiny boxes as ignore instead of deleting them.

    Every annotation whose box is at most ``threshold`` pixels wide or
    tall comes back with ignore=True; everything else is untouched.  The
    record count never changes, so the operation is idempotent and
    monotone in the threshold.
    """
    threshold = _check_real(threshold, "size threshold")
    if threshold < 0:
        raise DatasetError(f"negative size threshold {threshold!r}")
    out = []
    for ann in ds.annotations:
        if (ann.bbox.w <= threshold or ann.bbox.h <= threshold) and not ann.ignore:
            ann = replace(ann, ignore=True)
        out.append(ann)
    return Dataset(ds.images, tuple(out), ds.categories)


# --------------------------------------------------------------------------
# document io


def _as_dict(obj: object, what: str) -> dict:
    if not isinstance(obj, dict):
        raise DatasetError(f"{what} must be an object, got {type(obj).__name__}")
    return obj


def _as_list(obj: object, what: str) -> list:
    if not isinstance(obj, list):
        raise DatasetError(f"{what} must be a list, got {type(obj).__name__}")
    return obj


def _require(record: dict, key: str, what: str):
    if key not in record:
        raise DatasetError(f"{what} missing required field {key!r}")
    return record[key]


def _json_flag(value: object, what: str) -> bool:
    """A JSON bool or the integer 0 or 1 (a bool is an int)."""
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise DatasetError(f"{what} must be a boolean or 0/1, got {value!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's members as a dict; ``json`` alone keeps the last of two equal keys."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise DatasetError(f"repeated key {key!r}")
    return doc


def _load_json(text: str | bytes, what: str) -> object:
    """The one JSON decode of every reader; nesting too deep to decode and an
    object that repeats a key are malformed too."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError or DatasetError is one
        raise DatasetError(f"malformed {what}: {exc}") from None


def _parse_bbox(raw: object, what: str) -> BBox:
    if len(_as_list(raw, f"{what}: bbox")) != 4:
        raise DatasetError(f"{what}: bbox must be a list of four numbers, got {raw!r}")
    x, y, w, h = (_check_real(v, f"{what}: bbox value") for v in raw)
    try:
        return BBox(x, y, w, h)
    except DatasetError as exc:
        raise DatasetError(f"{what}: {exc}") from None


def parse_coco(text: str | bytes) -> Dataset:
    """Parse a COCO ground-truth document into a validated Dataset."""
    doc = _as_dict(_load_json(text, "document"), "document root")
    raw_images, raw_annotations, raw_categories = (
        _as_list(_require(doc, key, "document"), f"top-level {key!r}")
        for key in ("images", "annotations", "categories")
    )

    images = []
    for raw in raw_images:
        raw = _as_dict(raw, "image record")
        images.append(
            ImageRecord(
                id=_check_id(_require(raw, "id", "image record"), "image id"),
                file_name=_require(raw, "file_name", f"image {raw.get('id')}"),
                width=_require(raw, "width", f"image {raw.get('id')}"),
                height=_require(raw, "height", f"image {raw.get('id')}"),
            )
        )

    annotations = []
    for raw in raw_annotations:
        raw = _as_dict(raw, "annotation record")
        ann_id = _check_id(_require(raw, "id", "annotation record"), "annotation id")
        what = f"annotation {ann_id}"
        bbox = _parse_bbox(_require(raw, "bbox", what), what)
        if "area" in raw and raw["area"] is not None:
            stored = _check_real(raw["area"], f"{what}: area")
            if abs(stored - bbox.area) > AREA_TOLERANCE:
                raise DatasetError(
                    f"{what}: stored area {stored} deviates from bbox area "
                    f"{bbox.area} by more than {AREA_TOLERANCE}"
                )
        # either flag demotes the annotation to an ignore region
        ignore = _json_flag(raw.get("ignore", 0), f"{what}: ignore")
        crowd = _json_flag(raw.get("iscrowd", 0), f"{what}: iscrowd")
        annotations.append(
            AnnotationRecord(
                id=ann_id,
                image_id=_require(raw, "image_id", what),
                category_id=_require(raw, "category_id", what),
                bbox=bbox,
                ignore=ignore or crowd,
            )
        )

    categories = []
    for raw in raw_categories:
        raw = _as_dict(raw, "category record")
        categories.append(
            CategoryRecord(
                id=_require(raw, "id", "category record"),
                name=_require(raw, "name", f"category {raw.get('id')}"),
            )
        )

    return Dataset(tuple(images), tuple(annotations), tuple(categories))


def write_coco(ds: Dataset) -> str:
    """Serialize a Dataset; output is a pure function of the value."""
    doc = {
        "images": [
            {
                "id": img.id,
                "file_name": img.file_name,
                "width": img.width,
                "height": img.height,
            }
            for img in ds.images
        ],
        "annotations": [
            {
                "id": ann.id,
                "image_id": ann.image_id,
                "category_id": ann.category_id,
                "bbox": ann.bbox.as_list(),
                "area": ann.area,
                "ignore": int(ann.ignore),
            }
            for ann in ds.annotations
        ],
        "categories": [{"id": cat.id, "name": cat.name} for cat in ds.categories],
    }
    return json.dumps(doc, indent=2)


# --------------------------------------------------------------------------
# detection results


@dataclass(frozen=True)
class Detection:
    """One scored box prediction for an image."""

    image_id: int
    category_id: int
    bbox: BBox
    score: float

    def __post_init__(self) -> None:
        _check_id(self.image_id, "detection image_id")
        _check_id(self.category_id, "detection category_id")
        _check_number(self.score, "detection score")
        if not (0.0 <= self.score <= 1.0):
            raise DatasetError(f"detection score {self.score} outside [0, 1]")


class Detections(Sequence):
    """A detection run as read-only columns: ``image_ids`` and ``category_ids``
    (N,) int64, ``scores`` (N,) float64 and ``boxes`` (N, 4) float64 x, y, w, h.

    Each column must come in its shape, or as an empty ``[]``; none is
    reshaped or cast to a different value.  The columns are checked whole
    by the rules of ``Detection`` and ``BBox``; the first row that breaks
    one raises its record's own error.  As a sequence it lists
    ``Detection`` records, built on demand.
    """

    __slots__ = ("image_ids", "category_ids", "scores", "boxes")

    def __init__(self, image_ids, category_ids, scores, boxes) -> None:
        import numpy as np  # loaded on first use, so ``coco`` imports without it

        values = (image_ids, category_ids, scores, boxes)
        for name, raw, dtype in zip(self.__slots__, values, ("int64",) * 2 + ("float64",) * 2):
            col = np.asarray(raw)
            # a bool, or a cast that could change a value, is refused
            if col.size and (col.dtype.kind == "b" or not np.can_cast(col.dtype, dtype)):
                raise DatasetError(f"detection {name} must be {dtype} numbers, got {col.dtype}")
            # so is a reshape: only an empty column may come flat as ``[]``
            shape = (-1, 4) if name == "boxes" else (-1,)
            if col.shape != (0,) and (col.ndim, col.shape[1:]) != (len(shape), shape[1:]):
                want = "(N, 4)" if name == "boxes" else "1-D"
                raise DatasetError(f"detection {name} must be {want}, got shape {col.shape}")
            col = col.astype(dtype).reshape(shape)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if len({len(getattr(self, name)) for name in self.__slots__}) > 1:
            raise DatasetError("detection columns differ in length")
        x, y, w, h = self.boxes.T
        with np.errstate(over="ignore", invalid="ignore"):
            # a sum is finite only when both terms are, so each field is too
            ok = np.isfinite(x + w) & np.isfinite(y + h) & np.isfinite(w * h)
        ok &= (w >= 0) & (h >= 0) & (self.scores >= 0) & (self.scores <= 1)
        if not ok.all():
            i = int(np.argmin(ok))
            try:
                self[i]
            except DatasetError as exc:
                raise DatasetError(f"detection #{i}: {exc}") from None
            raise AssertionError(f"detection #{i} breaks a column rule its record keeps")

    @classmethod
    def from_records(cls, records: Iterable[Detection]) -> Detections:
        """The columns of ``Detection`` records, in their order; anything else is refused."""
        import numpy as np

        records = tuple(records)
        for i, d in enumerate(records):
            if not isinstance(d, Detection):
                raise DatasetError(f"detection #{i} must be a Detection, got {type(d).__name__}")
        return cls(
            [d.image_id for d in records],
            [d.category_id for d in records],
            [d.score for d in records],
            # a valid box may hold an int too large for int64, but not for a float
            np.array([d.bbox.as_list() for d in records], dtype=np.float64),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Detections is read-only; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Detections(*(getattr(self, name)[i] for name in self.__slots__))
        box, score = BBox(*self.boxes[i].tolist()), float(self.scores[i])
        return Detection(int(self.image_ids[i]), int(self.category_ids[i]), box, score)

    def __iter__(self) -> Iterator[Detection]:
        cols = (self.image_ids, self.category_ids, self.boxes, self.scores)
        for image_id, category_id, box, score in zip(*(c.tolist() for c in cols)):
            yield Detection(image_id, category_id, BBox(*box), score)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Detections):
            return NotImplemented
        pairs = ((getattr(self, n), getattr(other, n)) for n in self.__slots__)
        return all(a.shape == b.shape and (a == b).all() for a, b in pairs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Detections({tuple(self)!r})"


def parse_detections(text: str | bytes, ds: Dataset | None = None) -> Detections:
    """Parse a flat detection-results list into validated columns.

    When a Dataset is supplied, image and category references are checked
    against it.  Whole columns are checked at once; when a check fails, the
    records are read one by one, so the error names the first failing one.
    """
    import numpy as np

    doc = _as_list(_load_json(text, "detections document"), "detections document")
    try:  # an error here is a record that is not an object or lacks a field
        fields = ("image_id", "category_id", "score", "bbox")
        ids, cats, scores, boxes = ([raw[k] for raw in doc] for k in fields)
        flat = list(chain.from_iterable(boxes))
        if (
            set(map(type, boxes)) <= {list}
            and set(map(len, boxes)) <= {4}
            and set(map(type, ids + cats)) <= {int}
            and set(map(type, scores + flat)) <= {int, float}
            and (ds is None or ds._image_index.keys() >= set(ids))
            and (ds is None or ds._category_index.keys() >= set(cats))
        ):
            return Detections(  # an id or a number out of range raises OverflowError
                np.array(ids, dtype=np.int64),
                np.array(cats, dtype=np.int64),
                np.array(scores, dtype=np.float64),
                np.array(flat, dtype=np.float64).reshape(-1, 4),
            )
    except (KeyError, TypeError, OverflowError, DatasetError):
        pass
    for i, raw in enumerate(doc):
        raw = _as_dict(raw, f"detection #{i}")
        what = f"detection #{i}"
        bbox = _parse_bbox(_require(raw, "bbox", what), what)
        image_id = _require(raw, "image_id", what)
        category_id = _require(raw, "category_id", what)
        score = _check_real(_require(raw, "score", what), f"{what}: score")
        try:
            det = Detection(image_id, category_id, bbox, score)
        except DatasetError as exc:
            raise DatasetError(f"{what}: {exc}") from None
        if ds is not None:
            if not ds.has_image(det.image_id):
                raise DatasetError(f"{what} references missing image {det.image_id}")
            if not ds.has_category(det.category_id):
                raise DatasetError(f"{what} references missing category {det.category_id}")
    raise AssertionError("a detection fails a column check that its record passes")


def write_detections(dets: Sequence[Detection]) -> str:
    doc = [
        {
            "image_id": d.image_id,
            "category_id": d.category_id,
            "bbox": d.bbox.as_list(),
            "score": d.score,
        }
        for d in dets
    ]
    return json.dumps(doc, indent=2)
