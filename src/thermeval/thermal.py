"""Thermal frame handling: signed 16-bit raw frames, calibrated 8-bit
conversion, channel tripling, geometric transforms with box co-transforms,
and the raw/PGM file formats.

Boxes are ``(N, 4)`` float arrays of ``[x, y, w, h]`` rows in pixel
coordinates, matching the ground-truth box convention.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

__all__ = [
    "ThermalError",
    "CalibrationRange",
    "RawFrame",
    "GrayFrame",
    "AugmentPolicy",
    "normalize_frame",
    "triple_channels",
    "flip",
    "rotate",
    "augment_sample",
    "read_raw",
    "write_raw",
    "read_pgm",
    "write_pgm",
]

RAW_MAGIC = b"THRM"
_RAW_HEADER = struct.Struct("<4sIII")  # magic, width, height, reserved


class ThermalError(ValueError):
    """Raised for malformed frames, files, or transform arguments."""


@dataclass(frozen=True)
class CalibrationRange:
    """Temperature window mapped onto the 8-bit output range."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise ThermalError(f"calibration range requires lo < hi, got [{self.lo}, {self.hi}]")
        # an infinite bound or width turns every sample into 0 or NaN
        if not math.isfinite(self.hi - self.lo):
            raise ThermalError(
                f"calibration range [{self.lo}, {self.hi}] must have finite bounds and width"
            )


@dataclass(frozen=True, eq=False)
class _Frame:
    """A non-empty (height, width) array of the subclass's sample dtype."""

    pixels: np.ndarray
    # each subclass sets ``kind`` and ``dtype`` unannotated, so they stay class attributes

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ThermalError(
                f"{self.kind} frame must be a non-empty 2-d array, got shape {px.shape}"
            )
        if px.dtype != self.dtype:
            raise ThermalError(f"{self.kind} frame samples must be {self.dtype}, got {px.dtype}")
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Frame)
            and other.kind == self.kind
            and np.array_equal(self.pixels, other.pixels)
        )


class RawFrame(_Frame):
    """Radiometric frame: (height, width) array of signed 16-bit samples."""

    kind = "raw"
    dtype = np.dtype(np.int16)


class GrayFrame(_Frame):
    """8-bit single-channel frame."""

    kind = "gray"
    dtype = np.dtype(np.uint8)


def normalize_frame(raw: RawFrame, cal: CalibrationRange) -> GrayFrame:
    """Map raw samples onto 0..255 through the calibration window.

    Values are clamped to the window, linearly rescaled, and rounded half
    up, so lo maps to 0, hi to 255, and the midpoint to 128.
    """
    v = raw.pixels.astype(np.float64)
    t = np.clip((v - cal.lo) / (cal.hi - cal.lo), 0.0, 1.0)
    out = np.floor(255.0 * t + 0.5).astype(np.uint8)
    return GrayFrame(out)


def triple_channels(gray: GrayFrame) -> np.ndarray:
    """Stack the single channel three times -> (height, width, 3) uint8."""
    return np.repeat(gray.pixels[:, :, np.newaxis], 3, axis=2)


def _check_boxes(boxes: np.ndarray, width: int, height: int) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.size == 0:
        return boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ThermalError(f"boxes must be an (N, 4) array, got shape {boxes.shape}")
    x, y, w, h = boxes.T
    if np.any(w < 0) or np.any(h < 0):
        raise ThermalError("box with negative extent")
    if np.any(x < 0) or np.any(y < 0) or np.any(x + w > width) or np.any(y + h > height):
        raise ThermalError("box outside the canvas")
    return boxes


def flip(img: np.ndarray, boxes: np.ndarray, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Mirror an image and its boxes horizontally or vertically."""
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ThermalError(f"image must be 2-d or 3-d, got shape {img.shape}")
    height, width = img.shape[:2]
    boxes = _check_boxes(boxes, width, height)
    out = boxes.copy()
    if axis == "horizontal":
        flipped = img[:, ::-1].copy()
        if len(out):
            out[:, 0] = width - boxes[:, 0] - boxes[:, 2]
    elif axis == "vertical":
        flipped = img[::-1, :].copy()
        if len(out):
            out[:, 1] = height - boxes[:, 1] - boxes[:, 3]
    else:
        raise ThermalError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    return flipped, out


def rotate(img: np.ndarray, boxes: np.ndarray, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotate about the canvas center, keeping the canvas size fixed.

    The image is resampled nearest-neighbor with zero fill outside the
    source.  Each box becomes the axis-aligned hull of its rotated
    corners, clipped to the canvas; boxes that leave the canvas entirely
    are dropped.  ``angle`` is in degrees; 0 is an exact no-op.
    """
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ThermalError(f"image must be 2-d or 3-d, got shape {img.shape}")
    height, width = img.shape[:2]
    boxes = _check_boxes(boxes, width, height)
    angle = float(angle) % 360.0
    if angle == 0.0:
        return img.copy(), boxes.copy()

    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx, cy = width / 2.0, height / 2.0

    # inverse map: for each destination pixel center, sample the source
    jj, ii = np.meshgrid(np.arange(width), np.arange(height))
    xd = jj + 0.5 - cx
    yd = ii + 0.5 - cy
    sx = cos_t * xd + sin_t * yd + cx
    sy = -sin_t * xd + cos_t * yd + cy
    js = np.floor(sx).astype(np.int64)
    is_ = np.floor(sy).astype(np.int64)
    valid = (js >= 0) & (js < width) & (is_ >= 0) & (is_ < height)
    out = np.zeros_like(img)
    out[valid] = img[is_[valid], js[valid]]

    kept = []
    for x, y, w, h in boxes:
        px = np.array([x, x + w, x, x + w]) - cx
        py = np.array([y, y, y + h, y + h]) - cy
        rx = cos_t * px - sin_t * py + cx
        ry = sin_t * px + cos_t * py + cy
        x1, x2 = max(rx.min(), 0.0), min(rx.max(), float(width))
        y1, y2 = max(ry.min(), 0.0), min(ry.max(), float(height))
        if x2 - x1 <= 0 or y2 - y1 <= 0:
            continue
        kept.append((x1, y1, x2 - x1, y2 - y1))
    return out, np.array(kept, dtype=np.float64).reshape(len(kept), 4)


@dataclass(frozen=True)
class AugmentPolicy:
    """Independent per-transform application probabilities."""

    p_hflip: float = 0.2
    p_vflip: float = 0.2
    p_rotate: float = 0.2

    def __post_init__(self) -> None:
        for name in ("p_hflip", "p_vflip", "p_rotate"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ThermalError(f"{name}={p} outside [0, 1]")


def augment_sample(
    img: np.ndarray,
    boxes: np.ndarray,
    policy: AugmentPolicy = AugmentPolicy(),
    rng_seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Randomly flip and/or rotate a sample, deterministically per seed.

    Each transform is drawn independently; applied ones run in the fixed
    order horizontal flip, vertical flip, rotation by a uniform angle.
    """
    rng = np.random.default_rng(rng_seed)
    # decisions are drawn before the angle so the draw sequence is stable
    do_h = rng.random() < policy.p_hflip
    do_v = rng.random() < policy.p_vflip
    do_r = rng.random() < policy.p_rotate
    img = np.asarray(img)
    boxes = _check_boxes(boxes, img.shape[1], img.shape[0])
    if do_h:
        img, boxes = flip(img, boxes, "horizontal")
    if do_v:
        img, boxes = flip(img, boxes, "vertical")
    if do_r:
        img, boxes = rotate(img, boxes, rng.uniform(0.0, 360.0))
    return img, boxes


# --------------------------------------------------------------------------
# file formats


def write_raw(frame: RawFrame, fp: BinaryIO) -> None:
    """16-byte header (magic, width, height, reserved) + LE int16 samples."""
    fp.write(_RAW_HEADER.pack(RAW_MAGIC, frame.width, frame.height, 0))
    fp.write(frame.pixels.astype("<i2").tobytes(order="C"))


def read_raw(fp: BinaryIO) -> RawFrame:
    header = fp.read(_RAW_HEADER.size)
    if len(header) != _RAW_HEADER.size:
        raise ThermalError("truncated raw header")
    magic, width, height, _reserved = _RAW_HEADER.unpack(header)
    if magic != RAW_MAGIC:
        raise ThermalError(f"bad raw magic {magic!r}")
    if width == 0 or height == 0:
        raise ThermalError(f"raw frame with zero dimension {width}x{height}")
    expected = width * height * 2
    payload = fp.read(expected)
    if len(payload) != expected:
        raise ThermalError(
            f"raw payload holds {len(payload)} bytes, expected {expected}"
        )
    if fp.read(1):
        raise ThermalError("trailing bytes after raw payload")
    pixels = np.frombuffer(payload, dtype="<i2").reshape(height, width)
    return RawFrame(pixels.astype(np.int16))


def write_pgm(frame: GrayFrame, fp: BinaryIO) -> None:
    """Binary PGM (P5), maxval 255."""
    fp.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
    fp.write(frame.pixels.tobytes(order="C"))


def read_pgm(fp: BinaryIO) -> GrayFrame:
    magic = fp.read(2)
    if magic != b"P5":
        raise ThermalError(f"bad PGM magic {magic!r}")

    def next_token() -> bytes:
        tok = b""
        while True:
            c = fp.read(1)
            if not c:
                raise ThermalError("truncated PGM header")
            if c in b" \t\r\n":
                if tok:
                    return tok
                continue
            if c == b"#":  # comment runs to end of line
                while c and c != b"\n":
                    c = fp.read(1)
                continue
            tok += c

    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError:
        raise ThermalError("non-numeric PGM header field") from None
    if maxval != 255:
        raise ThermalError(f"unsupported PGM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise ThermalError(f"bad PGM dimensions {width}x{height}")
    payload = fp.read(width * height)
    if len(payload) != width * height:
        raise ThermalError("truncated PGM payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GrayFrame(pixels.copy())
