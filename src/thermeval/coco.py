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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "DatasetError",
    "BBox",
    "ImageRecord",
    "AnnotationRecord",
    "CategoryRecord",
    "Dataset",
    "Detection",
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


class DatasetError(ValueError):
    """A COCO document, Dataset, or detection list violated a structural rule."""


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
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise DatasetError(f"bbox field {name} must be a number, got {v!r}")
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
    if not isinstance(value, int) or isinstance(value, bool):
        raise DatasetError(f"{what} must be an integer, got {value!r}")
    if not (_ID_MIN <= value <= _ID_MAX):
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
        if not all(
            isinstance(v, int) and not isinstance(v, bool) for v in (self.width, self.height)
        ):
            raise DatasetError(f"image {self.id}: width/height must be integers")
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
    # the top-level dataset a subset was cut from (None: this one), and
    # the evaluation columns ``metrics`` prepares once per top-level dataset
    _root: Dataset | None = field(init=False, repr=False, compare=False, default=None)
    _columns: object = field(init=False, repr=False, compare=False, default=None)

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
        """Restrict to the given images, keeping their annotations."""
        wanted = set(image_ids)
        for i in wanted:
            self.image(i)
        images = tuple(img for img in self.images if img.id in wanted)
        # this dataset's records are already valid, so the fold is built
        # from them and its indexes without the constructor's checks
        sub = object.__new__(Dataset)
        for name, value in (
            ("images", images),
            ("annotations", tuple(a for a in self.annotations if a.image_id in wanted)),
            ("categories", self.categories),
            ("_image_index", {img.id: img for img in images}),
            ("_category_index", self._category_index),
            ("_root", self if self._root is None else self._root),
            ("_columns", None),
        ):
            object.__setattr__(sub, name, value)
        return sub


def filter_small_objects(ds: Dataset, threshold: float = DEFAULT_SIZE_THRESHOLD) -> Dataset:
    """Flag tiny boxes as ignore instead of deleting them.

    Every annotation whose box is at most ``threshold`` pixels wide or
    tall comes back with ignore=True; everything else is untouched.  The
    record count never changes, so the operation is idempotent and
    monotone in the threshold.
    """
    if not math.isfinite(threshold):
        raise DatasetError(f"size threshold must be finite, got {threshold!r}")
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


def _require(record: dict, key: str, what: str):
    if key not in record:
        raise DatasetError(f"{what} missing required field {key!r}")
    return record[key]


def _json_number(value: object, what: str) -> float:
    """A finite JSON int or float, as a float; bools and numeric strings are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int too large for a float
            pass
    raise DatasetError(f"{what} must be a finite number, got {value!r}")


def _json_flag(value: object, what: str) -> bool:
    """A JSON bool or the integer 0 or 1 (a bool is an int)."""
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise DatasetError(f"{what} must be a boolean or 0/1, got {value!r}")


def _load_json(text: str | bytes, what: str) -> object:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"malformed {what}: {exc}") from None


def _parse_bbox(raw: object, what: str) -> BBox:
    if not isinstance(raw, list) or len(raw) != 4:
        raise DatasetError(f"{what}: bbox must be a list of four numbers, got {raw!r}")
    x, y, w, h = (_json_number(v, f"{what}: bbox value") for v in raw)
    try:
        return BBox(x, y, w, h)
    except DatasetError as exc:
        raise DatasetError(f"{what}: {exc}") from None


def parse_coco(text: str | bytes) -> Dataset:
    """Parse a COCO ground-truth document into a validated Dataset."""
    doc = _as_dict(_load_json(text, "document"), "document root")
    for key in ("images", "annotations", "categories"):
        if key not in doc:
            raise DatasetError(f"document missing top-level {key!r}")
        if not isinstance(doc[key], list):
            raise DatasetError(f"top-level {key!r} must be a list")

    images = []
    for raw in doc["images"]:
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
    for raw in doc["annotations"]:
        raw = _as_dict(raw, "annotation record")
        ann_id = _check_id(_require(raw, "id", "annotation record"), "annotation id")
        what = f"annotation {ann_id}"
        bbox = _parse_bbox(_require(raw, "bbox", what), what)
        if "area" in raw and raw["area"] is not None:
            stored = _json_number(raw["area"], f"{what}: area")
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
    for raw in doc["categories"]:
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
        if not isinstance(self.score, (int, float)) or isinstance(self.score, bool):
            raise DatasetError(f"detection score must be a number, got {self.score!r}")
        if not (0.0 <= self.score <= 1.0):
            raise DatasetError(f"detection score {self.score} outside [0, 1]")


def parse_detections(text: str | bytes, ds: Dataset | None = None) -> tuple[Detection, ...]:
    """Parse a flat detection-results list.

    When a Dataset is supplied, image and category references are checked
    against it.
    """
    doc = _load_json(text, "detections document")
    if not isinstance(doc, list):
        raise DatasetError("detections document must be a list")
    dets = []
    for i, raw in enumerate(doc):
        raw = _as_dict(raw, f"detection #{i}")
        what = f"detection #{i}"
        bbox = _parse_bbox(_require(raw, "bbox", what), what)
        det = Detection(
            image_id=_require(raw, "image_id", what),
            category_id=_require(raw, "category_id", what),
            bbox=bbox,
            score=_json_number(_require(raw, "score", what), f"{what}: score"),
        )
        if ds is not None:
            if not ds.has_image(det.image_id):
                raise DatasetError(f"{what} references missing image {det.image_id}")
            if not ds.has_category(det.category_id):
                raise DatasetError(f"{what} references missing category {det.category_id}")
        dets.append(det)
    return tuple(dets)


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
