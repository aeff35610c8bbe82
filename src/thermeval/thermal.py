"""Thermal frame handling: signed 16-bit raw frames, calibrated 8-bit
conversion, channel tripling, geometric transforms with box co-transforms,
and the raw/PGM file formats.

Boxes are ``(N, 4)`` float arrays of ``[x, y, w, h]`` rows in pixel
coordinates, matching the ground-truth box convention.
"""

from __future__ import annotations

import math
import numbers
import re
import struct
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from ._checks import _check_as, _check_number, _check_seed

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
# a PGM header field, by netpbm's grammar: after any separators (space, tab, CR, LF)
# and comments, the bytes up to one separator; a comment runs through the next LF, even
# inside a field.  A field starts with a byte no comment can, so a miss is one pass.
_PGM_COMMENT = rb"#[^\n]*\n"
_PGM_FIELD = re.compile(
    rb"(?:[ \t\r\n]|%s)*([^ \t\r\n#](?:[^ \t\r\n#]|%s)*)[ \t\r\n]" % (_PGM_COMMENT, _PGM_COMMENT)
)


class ThermalError(ValueError):
    """Raised for malformed frames, files, or transform arguments."""


@dataclass(frozen=True)
class CalibrationRange:
    """Temperature window mapped onto the 8-bit output range."""

    lo: float
    hi: float
    # the gray level of every int16 sample, indexed by its bits as uint16
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                raise ThermalError(f"calibration range bound {bound!r} is not a real number")
        lo, hi = (b.item() if isinstance(b, np.generic) else b for b in (self.lo, self.hi))
        try:  # numpy bounds are Python numbers here, so a float16 or float32 width is a float64
            finite = all(map(math.isfinite, (lo, hi, hi - lo)))
        except OverflowError:  # an int or Fraction beyond the float range
            raise ThermalError("calibration range bounds and width must fit a float") from None
        if not (self.lo < self.hi):
            raise ThermalError(f"calibration range requires lo < hi, got [{self.lo}, {self.hi}]")
        if not finite:  # an infinite bound or width turns every sample into 0 or NaN
            raise ThermalError(
                f"calibration range [{self.lo}, {self.hi}] must have finite bounds and width"
            )
        v = np.arange(1 << 16, dtype=np.uint16).view(np.int16).astype(np.float64)
        table = np.floor(255.0 * np.clip((v - lo) / (hi - lo), 0.0, 1.0) + 0.5)
        object.__setattr__(self, "_table", table.astype(np.uint8))


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
    up, so lo maps to 0, hi to 255, and the midpoint to 128.  ``cal``
    applies this float64 formula once to each of the 65,536 int16 values,
    into its table, and a frame is one gather from it: exact, since an
    entry is the same formula on the same float64 sample value.
    """
    return GrayFrame(cal._table.take(raw.pixels.view(np.uint16)))


def triple_channels(gray: GrayFrame) -> np.ndarray:
    """Stack the single channel three times -> (height, width, 3) uint8."""
    return np.repeat(gray.pixels[:, :, np.newaxis], 3, axis=2)


def _checked_sample(img: np.ndarray, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image as a 2-d or 3-d array and its boxes as finite (N, 4) floats inside it."""
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ThermalError(f"image must be 2-d or 3-d, got shape {img.shape}")
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.size == 0:
        return img, boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ThermalError(f"boxes must be an (N, 4) array, got shape {boxes.shape}")
    if not np.isfinite(boxes).all():  # a NaN would pass every comparison below
        raise ThermalError("box with a non-finite coordinate")
    if np.any(boxes[:, 2:] < 0):
        raise ThermalError("box with negative extent")
    if np.any(boxes[:, :2] < 0) or np.any(boxes[:, :2] + boxes[:, 2:] > img.shape[1::-1]):
        raise ThermalError("box outside the canvas")
    return img, boxes


def flip(img: np.ndarray, boxes: np.ndarray, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Mirror an image and its boxes horizontally or vertically."""
    return _flip(*_checked_sample(img, boxes), axis)


def _flip(img: np.ndarray, boxes: np.ndarray, axis: str) -> tuple[np.ndarray, np.ndarray]:
    height, width = img.shape[:2]
    out = boxes.copy()
    if axis == "horizontal":
        flipped = img[:, ::-1].copy()
        out[:, 0] = width - boxes[:, 0] - boxes[:, 2]
    elif axis == "vertical":
        flipped = img[::-1, :].copy()
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
    return _rotate(*_checked_sample(img, boxes), angle)


def _rotate(img: np.ndarray, boxes: np.ndarray, angle: float) -> tuple[np.ndarray, np.ndarray]:
    height, width = img.shape[:2]
    angle = float(angle) % 360.0
    if angle == 0.0:
        return img.copy(), boxes.copy()

    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx, cy = width / 2.0, height / 2.0

    # inverse map: for each destination pixel center, sample the source
    xd = np.arange(width) + 0.5 - cx
    yd = (np.arange(height) + 0.5 - cy)[:, np.newaxis]
    sx = cos_t * xd + sin_t * yd + cx
    sy = -sin_t * xd + cos_t * yd + cy
    js = np.floor(sx).astype(np.int64)
    is_ = np.floor(sy).astype(np.int64)
    valid = (js >= 0) & (js < width) & (is_ >= 0) & (is_ < height)
    out = np.zeros_like(img)
    out[valid] = img[is_[valid], js[valid]]

    x, y, w, h = boxes.T
    px = np.array([x, x + w, x, x + w]) - cx  # (4, N): each box's four corners
    py = np.array([y, y, y + h, y + h]) - cy
    rotated = np.array([cos_t * px - sin_t * py + cx, sin_t * px + cos_t * py + cy])
    lo = np.maximum(rotated.min(axis=1), 0.0)  # (2, N): each hull's x1 and y1
    hi = np.minimum(rotated.max(axis=1), [[width], [height]])
    hull = np.concatenate([lo, hi - lo]).T
    return out, hull[(hull[:, 2] > 0) & (hull[:, 3] > 0)]


@dataclass(frozen=True)
class AugmentPolicy:
    """Independent per-transform application probabilities."""

    p_hflip: float = 0.2
    p_vflip: float = 0.2
    p_rotate: float = 0.2

    def __post_init__(self) -> None:
        for name in ("p_hflip", "p_vflip", "p_rotate"):
            p = getattr(self, name)
            _check_as(ThermalError, _check_number, p, name)  # a bool once passed as 0 or 1
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
    # numpy's own refusal of a negative seed names no seed
    rng = np.random.default_rng(_check_as(ThermalError, _check_seed, rng_seed))
    # decisions are drawn before the angle so the draw sequence is stable
    do_h = rng.random() < policy.p_hflip
    do_v = rng.random() < policy.p_vflip
    do_r = rng.random() < policy.p_rotate
    img, boxes = _checked_sample(img, boxes)
    if do_h:
        img, boxes = _flip(img, boxes, "horizontal")
    if do_v:
        img, boxes = _flip(img, boxes, "vertical")
    if do_r:
        img, boxes = _rotate(img, boxes, rng.uniform(0.0, 360.0))
    return img, boxes


# --------------------------------------------------------------------------
# file formats


def _checked_payload(payload: bytes, size: int, fmt: str, short: str) -> bytes:
    """``payload``, the rest of a file, which must hold exactly ``size`` bytes.  Readers
    take it with one unsized read, as a header's size can be far larger than any file.
    Too few bytes raise ``short``, formatted with the ``held`` and ``size`` byte counts;
    too many raise "trailing bytes"."""
    if len(payload) < size:
        raise ThermalError(short.format(held=len(payload), size=size))
    if len(payload) > size:
        raise ThermalError(f"trailing bytes after {fmt} payload")
    return payload


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
    short = "raw payload holds {held} bytes, expected {size}"
    payload = _checked_payload(fp.read(), width * height * 2, "raw", short)
    pixels = np.frombuffer(payload, dtype="<i2").reshape(height, width)
    return RawFrame(pixels.astype(np.int16))


def write_pgm(frame: GrayFrame, fp: BinaryIO) -> None:
    """Binary PGM (P5), maxval 255."""
    fp.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
    fp.write(frame.pixels.tobytes(order="C"))


def read_pgm(fp: BinaryIO) -> GrayFrame:
    """One binary PGM image, its header as netpbm allows (``_PGM_FIELD``);
    the file ends with its payload."""
    magic = fp.read(2)
    if magic != b"P5":
        raise ThermalError(f"bad PGM magic {magic!r}")
    data, fields, end = fp.read(), [], 0
    for _ in range(3):
        match = _PGM_FIELD.match(data, end)
        if match is None:
            raise ThermalError("truncated PGM header")
        end = match.end()
        try:
            fields.append(int(re.sub(_PGM_COMMENT, b"", match[1])))
        except ValueError:
            raise ThermalError("non-numeric PGM header field") from None
    width, height, maxval = fields
    if maxval != 255:
        raise ThermalError(f"unsupported PGM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise ThermalError(f"bad PGM dimensions {width}x{height}")
    payload = _checked_payload(data[end:], width * height, "PGM", "truncated PGM payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GrayFrame(pixels.copy())
