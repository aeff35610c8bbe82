"""Synthetic thermal benchmark: seeded scene generation with pixel-exact
ground truth, plus configurable mock detectors.

Scenes are warm elliptical blobs on a noisy cooler background.  Puddle
blobs are annotated; distractor objects (large warm blobs, thin warm
stripes, small warm dots) share the puddle temperature range and stay
unannotated, so detectors that key on temperature alone will confuse
them.  Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coco import (
    AnnotationRecord,
    BBox,
    CategoryRecord,
    Dataset,
    Detection,
    ImageRecord,
)
from .thermal import RawFrame

__all__ = [
    "SynthError",
    "SceneSpec",
    "Scene",
    "Corpus",
    "MockDetectorSpec",
    "PRESET_A",
    "PRESET_B",
    "PRESETS",
    "generate_scene",
    "build_corpus",
    "mock_detect",
]


class SynthError(ValueError):
    """Raised for infeasible scene or detector specifications."""


def _check_range(rng_pair, what: str, lo_min: float) -> None:
    lo, hi = rng_pair
    # NaN fails every comparison
    if not (lo_min <= lo <= hi < math.inf):
        raise SynthError(
            f"{what} range ({lo}, {hi}) invalid (need {lo_min} <= lo <= hi, both finite)"
        )


def _check_non_negative(value: float, what: str) -> None:
    if not (0.0 <= value < math.inf):
        raise SynthError(f"{what} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and radiometry of one synthetic scene family."""

    width: int = 640
    height: int = 480
    empty_prob: float = 0.284
    puddle_extra_lambda: float = 1.3
    puddle_axis: tuple[float, float] = (2.0, 20.0)
    warm_delta: tuple[float, float] = (400.0, 900.0)
    background_level: int = 2000
    noise_sigma: float = 30.0
    pig_count: tuple[int, int] = (0, 0)
    pig_axis: tuple[float, float] = (40.0, 90.0)
    stripe_count: tuple[int, int] = (0, 0)
    stripe_thickness: tuple[float, float] = (3.0, 8.0)
    bird_count: tuple[int, int] = (0, 0)
    bird_axis: tuple[float, float] = (1.0, 3.0)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise SynthError(f"bad canvas {self.width}x{self.height}")
        if not (0.0 <= self.empty_prob <= 1.0):
            raise SynthError(f"empty_prob {self.empty_prob} outside [0, 1]")
        _check_non_negative(self.puddle_extra_lambda, "puddle_extra_lambda")
        for pair, what in (
            (self.puddle_axis, "puddle_axis"),
            (self.pig_axis, "pig_axis"),
            (self.bird_axis, "bird_axis"),
        ):
            _check_range(pair, what, lo_min=1.0)
            if 2.0 * pair[1] > min(self.width, self.height):
                raise SynthError(f"{what} objects do not fit the canvas")
        _check_range(self.warm_delta, "warm_delta", lo_min=0.0)
        _check_range(self.stripe_thickness, "stripe_thickness", lo_min=1.0)
        for pair, what in (
            (self.pig_count, "pig_count"),
            (self.stripe_count, "stripe_count"),
            (self.bird_count, "bird_count"),
        ):
            _check_range(pair, what, lo_min=0)
        _check_non_negative(self.noise_sigma, "noise_sigma")
        peak = self.background_level + self.warm_delta[1] + 6.0 * self.noise_sigma
        if peak > 32767 or self.background_level - 6.0 * self.noise_sigma < -32768:
            raise SynthError("levels overflow the signed 16-bit sample range")


# small objects dominate; nothing reaches the large stratum
PRESET_A = SceneSpec()

# larger puddles (a few large-stratum ones) plus every distractor kind
PRESET_B = SceneSpec(
    puddle_axis=(3.0, 50.0),
    puddle_extra_lambda=0.9,
    pig_count=(0, 2),
    stripe_count=(0, 2),
    bird_count=(0, 4),
)

PRESETS: Mapping[str, SceneSpec] = {"a": PRESET_A, "b": PRESET_B}


@dataclass(frozen=True, eq=False)
class _Blob:
    """A warm object: the pixels it covers, as a mask over the canvas
    window whose top-left pixel is (i0, j0), and its temperature delta."""

    i0: int
    j0: int
    mask: np.ndarray
    delta: float

    @property
    def bbox(self) -> BBox:
        rows = np.nonzero(np.any(self.mask, axis=1))[0]
        cols = np.nonzero(np.any(self.mask, axis=0))[0]
        # every blob covers at least one pixel
        y0, y1 = self.i0 + rows[0], self.i0 + rows[-1]
        x0, x1 = self.j0 + cols[0], self.j0 + cols[-1]
        return BBox(float(x0), float(y0), float(x1 - x0 + 1), float(y1 - y0 + 1))


@dataclass(frozen=True, eq=False)
class Scene:
    frame: RawFrame | None
    puddles: tuple[BBox, ...]
    distractors: tuple[BBox, ...]


def _ellipse_mask(cx: float, cy: float, a: float, b: float, width: int, height: int):
    """Boolean mask of pixel centers inside the ellipse, as a sub-window."""
    j0 = max(int(math.floor(cx - a - 0.5)), 0)
    j1 = min(int(math.ceil(cx + a + 0.5)), width - 1)
    i0 = max(int(math.floor(cy - b - 0.5)), 0)
    i1 = min(int(math.ceil(cy + b + 0.5)), height - 1)
    dx = ((np.arange(j0, j1 + 1) + 0.5 - cx) / a) ** 2
    dy = ((np.arange(i0, i1 + 1) + 0.5 - cy) / b) ** 2
    mask = dx[np.newaxis, :] + dy[:, np.newaxis] <= 1.0
    return i0, j0, mask


def _draw_ellipse(rng: np.random.Generator, axis: tuple[float, float], spec: SceneSpec) -> _Blob:
    a = rng.uniform(*axis)
    b = rng.uniform(*axis)
    cx = rng.uniform(a, spec.width - a)
    cy = rng.uniform(b, spec.height - b)
    delta = rng.uniform(*spec.warm_delta)
    # axes >= 1 guarantee at least one pixel center inside
    return _Blob(*_ellipse_mask(cx, cy, a, b, spec.width, spec.height), delta)


def _draw_stripe(rng: np.random.Generator, spec: SceneSpec) -> _Blob:
    thickness = rng.uniform(*spec.stripe_thickness)
    vertical = rng.random() < 0.5
    span = spec.height if vertical else spec.width
    length = rng.uniform(0.2, 0.7) * span
    length = min(length, float(span))
    if vertical:
        w, h = thickness, length
    else:
        w, h = length, thickness
    x = rng.uniform(0.0, spec.width - w)
    y = rng.uniform(0.0, spec.height - h)
    delta = rng.uniform(*spec.warm_delta)
    # snap to the pixels whose centers fall inside the rectangle
    j0 = int(math.ceil(x - 0.5))
    j1 = int(math.floor(x + w - 0.5))
    i0 = int(math.ceil(y - 0.5))
    i1 = int(math.floor(y + h - 0.5))
    j0, i0 = max(j0, 0), max(i0, 0)
    j1, i1 = min(j1, spec.width - 1), min(i1, spec.height - 1)
    if j1 < j0 or i1 < i0:  # degenerate sliver; keep one pixel
        j0 = j1 = min(max(int(x), 0), spec.width - 1)
        i0 = i1 = min(max(int(y), 0), spec.height - 1)
    return _Blob(i0, j0, np.ones((i1 - i0 + 1, j1 - j0 + 1), dtype=bool), delta)


def _layout(spec: SceneSpec, rng: np.random.Generator) -> tuple[list[_Blob], list[_Blob]]:
    puddles: list[_Blob] = []
    if rng.random() >= spec.empty_prob:
        count = 1 + int(rng.poisson(spec.puddle_extra_lambda))
        for _ in range(count):
            puddles.append(_draw_ellipse(rng, spec.puddle_axis, spec))
    distractors: list[_Blob] = []
    for _ in range(int(rng.integers(spec.pig_count[0], spec.pig_count[1] + 1))):
        distractors.append(_draw_ellipse(rng, spec.pig_axis, spec))
    for _ in range(int(rng.integers(spec.stripe_count[0], spec.stripe_count[1] + 1))):
        distractors.append(_draw_stripe(rng, spec))
    for _ in range(int(rng.integers(spec.bird_count[0], spec.bird_count[1] + 1))):
        distractors.append(_draw_ellipse(rng, spec.bird_axis, spec))
    return puddles, distractors


def _paint(spec: SceneSpec, blobs: Sequence[_Blob], rng: np.random.Generator) -> RawFrame:
    base = np.full((spec.height, spec.width), float(spec.background_level))
    for blob in blobs:
        h, w = blob.mask.shape
        window = base[blob.i0 : blob.i0 + h, blob.j0 : blob.j0 + w]
        window[blob.mask] = spec.background_level + blob.delta
    if spec.noise_sigma > 0:
        base = base + rng.normal(0.0, spec.noise_sigma, size=base.shape)
    samples = np.clip(np.rint(base), -32768, 32767).astype(np.int16)
    return RawFrame(samples)


def generate_scene(
    spec: SceneSpec,
    seed: int | np.random.SeedSequence,
    render: bool = True,
) -> Scene:
    """One deterministic scene; same (spec, seed) always gives the same
    boxes and, when rendered, byte-identical pixels.

    Layout and pixel noise use separate child streams, so skipping the
    render never changes the boxes.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    layout_ss, noise_ss = ss.spawn(2)
    puddles, distractors = _layout(spec, np.random.default_rng(layout_ss))
    frame = None
    if render:
        frame = _paint(spec, [*puddles, *distractors], np.random.default_rng(noise_ss))
    return Scene(
        frame=frame,
        puddles=tuple(b.bbox for b in puddles),
        distractors=tuple(b.bbox for b in distractors),
    )


@dataclass(frozen=True, eq=False)
class Corpus:
    """A generated dataset plus the side information tests need."""

    dataset: Dataset
    frames: tuple[RawFrame, ...] | None
    distractors: Mapping[int, tuple[BBox, ...]]


def build_corpus(
    spec: SceneSpec,
    n: int,
    seed: int,
    render: bool = False,
    file_prefix: str = "scene",
) -> Corpus:
    """Generate n scenes as a ready-to-evaluate Dataset.

    Image ids run from 1; the single category is ``puddle``.  Distractor
    boxes are returned separately keyed by image id, never annotated.
    """
    if n < 1:
        raise SynthError(f"corpus size must be positive, got {n}")
    children = np.random.SeedSequence(seed).spawn(n)
    images = []
    annotations = []
    distractors: dict[int, tuple[BBox, ...]] = {}
    frames: list[RawFrame] = []
    ann_id = 1
    for idx in range(n):
        image_id = idx + 1
        scene = generate_scene(spec, children[idx], render=render)
        images.append(
            ImageRecord(
                id=image_id,
                file_name=f"{file_prefix}_{image_id:05d}.raw",
                width=spec.width,
                height=spec.height,
            )
        )
        for bbox in scene.puddles:
            annotations.append(
                AnnotationRecord(id=ann_id, image_id=image_id, category_id=1, bbox=bbox)
            )
            ann_id += 1
        distractors[image_id] = scene.distractors
        if render:
            frames.append(scene.frame)
    ds = Dataset(
        images=tuple(images),
        annotations=tuple(annotations),
        categories=(CategoryRecord(id=1, name="puddle"),),
    )
    return Corpus(
        dataset=ds,
        frames=tuple(frames) if render else None,
        distractors=distractors,
    )


@dataclass(frozen=True)
class MockDetectorSpec:
    """Error model of a simulated detector.

    p_drop misses ground truth; p_fp is the expected count of random
    false boxes per image; jitter_sigma is corner noise in pixels;
    p_distractor_fp fires one detection per distractor object.
    """

    p_drop: float = 0.0
    p_fp: float = 0.0
    jitter_sigma: float = 0.0
    p_distractor_fp: float = 0.0
    hit_score: tuple[float, float] = (0.6, 1.0)
    fp_score: tuple[float, float] = (0.05, 0.5)
    fp_size: tuple[float, float] = (8.0, 80.0)

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_distractor_fp"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise SynthError(f"{name}={p} outside [0, 1]")
        _check_non_negative(self.p_fp, "p_fp")
        _check_non_negative(self.jitter_sigma, "jitter_sigma")
        for name in ("hit_score", "fp_score"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise SynthError(f"{name} range ({lo}, {hi}) invalid")
        _check_range(self.fp_size, "fp_size", lo_min=1.0)


def _jitter_box(bbox: BBox, sigma: float, rng: np.random.Generator) -> BBox:
    if sigma == 0.0:
        return bbox
    x1, y1, x2, y2 = bbox.corners
    n = rng.normal(0.0, sigma, size=4)
    x1, y1, x2, y2 = x1 + n[0], y1 + n[1], x2 + n[2], y2 + n[3]
    return BBox(x1, y1, max(x2 - x1, 0.5), max(y2 - y1, 0.5))


def mock_detect(
    ds: Dataset,
    spec: MockDetectorSpec,
    seed: int,
    distractors: Mapping[int, Sequence[BBox]] | None = None,
) -> tuple[Detection, ...]:
    """Simulate a detector run over a dataset, deterministically per seed.

    Each non-ignore ground-truth box survives with probability 1-p_drop,
    jittered and scored high; Poisson(p_fp) random low-scored boxes are
    added per image, plus one high-scored box per distractor with
    probability p_distractor_fp.
    """
    if not ds.categories:
        raise SynthError("dataset has no categories")
    fallback_cat = ds.categories[0].id
    by_image: dict[int, list[AnnotationRecord]] = {}
    for ann in ds.annotations:
        by_image.setdefault(ann.image_id, []).append(ann)
    children = np.random.SeedSequence(seed).spawn(len(ds.images))
    out: list[Detection] = []
    for idx, img in enumerate(ds.images):
        rng = np.random.default_rng(children[idx])
        for ann in by_image.get(img.id, ()):
            if ann.ignore:
                continue
            if rng.random() < spec.p_drop:
                continue
            bbox = _jitter_box(ann.bbox, spec.jitter_sigma, rng)
            score = rng.uniform(*spec.hit_score)
            out.append(
                Detection(
                    image_id=img.id,
                    category_id=ann.category_id,
                    bbox=bbox,
                    score=float(score),
                )
            )
        if distractors is not None:
            for dbox in distractors.get(img.id, ()):
                if rng.random() < spec.p_distractor_fp:
                    bbox = _jitter_box(dbox, spec.jitter_sigma, rng)
                    score = rng.uniform(*spec.hit_score)
                    out.append(
                        Detection(
                            image_id=img.id,
                            category_id=fallback_cat,
                            bbox=bbox,
                            score=float(score),
                        )
                    )
        for _ in range(int(rng.poisson(spec.p_fp))):
            w = rng.uniform(*spec.fp_size)
            h = rng.uniform(*spec.fp_size)
            w = min(w, float(img.width))
            h = min(h, float(img.height))
            x = rng.uniform(0.0, img.width - w)
            y = rng.uniform(0.0, img.height - h)
            score = rng.uniform(*spec.fp_score)
            out.append(
                Detection(
                    image_id=img.id,
                    category_id=fallback_cat,
                    bbox=BBox(x, y, w, h),
                    score=float(score),
                )
            )
    return tuple(out)
