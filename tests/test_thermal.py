from __future__ import annotations

import io
import math
import re
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thermeval import thermal
from thermeval.thermal import (
    RAW_MAGIC,
    AugmentPolicy,
    CalibrationRange,
    GrayFrame,
    RawFrame,
    ThermalError,
    augment_sample,
    flip,
    normalize_frame,
    read_pgm,
    read_raw,
    rotate,
    triple_channels,
    write_pgm,
    write_raw,
)


def _raw(values):
    arr = np.asarray(values, dtype=np.int16)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return RawFrame(pixels=arr)


def _checker(h=8, w=6):
    arr = (np.add.outer(np.arange(h), np.arange(w)) % 7 * 31).astype(np.uint8)
    arr[0, 0] = 255  # break symmetry
    return arr


# -- frames and calibration


def test_calibration_requires_ordered_range():
    with pytest.raises(ThermalError):
        CalibrationRange(lo=5.0, hi=5.0)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-np.inf, np.inf),
        (0.0, np.inf),
        (-np.inf, 0.0),
        (np.nan, 1.0),
        (0.0, np.nan),
        (-1e308, 1e308),  # finite bounds, but the width overflows
        # numpy scalars: the width overflows to inf without a RuntimeWarning
        pytest.param(np.float64(-1e308), np.float64(1e308), id="numpy-overflow"),
        pytest.param(
            -np.finfo(np.float64).max, np.finfo(np.float64).max, id="numpy-max"
        ),
    ],
)
def test_calibration_requires_finite_range(lo, hi):
    with pytest.raises(ThermalError):
        CalibrationRange(lo=lo, hi=hi)


@pytest.mark.parametrize(
    "lo, hi, bad",
    [
        ("a", "b", "a"),
        (None, 1.0, None),
        (0, Decimal(1), Decimal(1)),
        (True, 2, True),
        (0, False, False),
        (np.bool_(True), 2.0, np.bool_(True)),
    ],
    ids=["str", "none", "decimal", "bool-lo", "bool-hi", "numpy-bool"],
)
def test_calibration_bounds_must_be_real_numbers(lo, hi, bad):
    message = f"^calibration range bound must be a number, got {re.escape(repr(bad))}$"
    with pytest.raises(ThermalError, match=message):
        CalibrationRange(lo, hi)


@pytest.mark.parametrize(
    "lo, hi, refusal",
    [
        (0, 10**400, r"bound must be a finite number, got 1000"),
        (-(10**400), 0, r"bound must be a finite number, got -1000"),
        (10**400, 10**400 + 1, r"bound must be a finite number"),  # the width fits, not the bounds
        (-(10**308), 10**308, r"\[-1e\+308, 1e\+308\] must have a finite width$"),  # the reverse
        (Fraction(0), Fraction(10**400), r"bound must be a finite number, got Fraction\(1000"),
        (0, 10**5000, r"bound must be a finite number, got a value too long to print$"),
    ],
    ids=["hi", "lo", "both", "width", "fraction", "huge"],
)
def test_calibration_bounds_must_fit_a_float(lo, hi, refusal):
    with pytest.raises(ThermalError, match=f"^calibration range {refusal}"):
        CalibrationRange(lo, hi)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (np.float16(-6e4), np.float16(6e4)),  # the float16 width overflows, a float64 one does not
        (np.float32(-3e38), np.float32(3e38)),
        (np.float16(-5204.0), np.float16(56960.0)),  # a float16 width would round
    ],
    ids=["float16", "float32", "float16-rounded"],
)
def test_calibration_takes_a_narrow_width_in_float64(lo, hi):
    got = normalize_frame(RawFrame(_ALL_SAMPLES), CalibrationRange(lo, hi)).pixels
    np.testing.assert_array_equal(got, _float_formula(_ALL_SAMPLES, float(lo), float(hi)))


def test_calibration_table_leaves_eq_hash_and_repr_alone():
    cal = CalibrationRange(1.0, 2.0)
    assert repr(cal) == "CalibrationRange(lo=1.0, hi=2.0)"
    assert cal == CalibrationRange(1, 2) and hash(cal) == hash(CalibrationRange(1, 2))
    assert cal != CalibrationRange(1.0, 3.0)


def test_raw_frame_requires_int16():
    with pytest.raises(ThermalError, match=r"^raw frame samples must be int16, got float32$"):
        RawFrame(pixels=np.zeros((2, 2), dtype=np.float32))


def test_gray_frame_requires_uint8():
    with pytest.raises(ThermalError, match=r"^gray frame samples must be uint8, got int16$"):
        GrayFrame(pixels=np.zeros((2, 2), dtype=np.int16))


@pytest.mark.parametrize("frame_type, kind", [(RawFrame, "raw"), (GrayFrame, "gray")])
@pytest.mark.parametrize("shape", [(3,), (0, 2), (1, 2, 3)])
def test_frame_requires_a_non_empty_2d_array(frame_type, kind, shape):
    dtype = np.int16 if frame_type is RawFrame else np.uint8
    message = f"{kind} frame must be a non-empty 2-d array, got shape {shape}"
    with pytest.raises(ThermalError, match=f"^{re.escape(message)}$"):
        frame_type(pixels=np.zeros(shape, dtype=dtype))


def test_raw_and_gray_frames_are_never_equal():
    pixels = np.zeros((2, 3), dtype=np.int16)
    raw = RawFrame(pixels)
    gray = GrayFrame(pixels.astype(np.uint8))
    assert raw != gray and gray != raw
    assert not raw == gray and not gray == raw
    assert raw == RawFrame(pixels.copy()) and gray == GrayFrame(gray.pixels.copy())
    assert repr(raw) == f"RawFrame(pixels={pixels!r})"
    assert repr(gray) == f"GrayFrame(pixels={gray.pixels!r})"


def test_frame_equality_is_by_content():
    a = _raw([[1, 2]])
    b = _raw([[1, 2]])
    c = _raw([[1, 3]])
    assert a == b
    assert a != c


def test_normalize_endpoints_and_clamp():
    cal = CalibrationRange(lo=1000.0, hi=3000.0)
    out = normalize_frame(_raw([500, 1000, 3000, 3200, 2000]), cal)
    assert out.pixels.dtype == np.uint8
    assert out.pixels.tolist() == [[0, 0, 255, 255, 128]]


def test_normalize_rounds_half_up():
    # (v - lo) / (hi - lo) = 1/510 puts the scaled value at exactly 0.5
    cal = CalibrationRange(lo=0.0, hi=510.0)
    out = normalize_frame(_raw([1, 2]), cal)
    assert out.pixels.tolist() == [[1, 1]]


# every int16 value once, as a 256 x 256 frame
_ALL_SAMPLES = np.arange(-32768, 32768, dtype=np.int16).reshape(256, 256)


def _float_formula(pixels, lo, hi):
    """The float64 rescale that the calibration's table stands for, kept here as the oracle."""
    v = pixels.astype(np.float64)
    return np.floor(255.0 * np.clip((v - lo) / (hi - lo), 0.0, 1.0) + 0.5).astype(np.uint8)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1000, 3000),
        (1800.25, 3200.75),
        (-1e6, 1e6),  # wider than int16
        (-40000.5, 40000.5),
        (2000.0, 2000.5),  # sub-unit width
        (2000.1, 2000.1 + 1e-9),
        (0, 510),
        (np.float32(1800.3), np.int64(3200)),
        (Fraction(1, 3), Fraction(7, 2)),
        (2**70, 2**71),
    ],
)
def test_normalize_equals_the_float_formula_on_every_sample(lo, hi):
    got = normalize_frame(RawFrame(_ALL_SAMPLES), CalibrationRange(lo, hi)).pixels
    np.testing.assert_array_equal(got, _float_formula(_ALL_SAMPLES, lo, hi))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6),
    width=st.one_of(st.floats(1e-9, 1.0), st.floats(1.0, 1e5)),
)
def test_normalize_equals_the_float_formula_for_random_windows(lo, width):
    hi = lo + width
    assume(lo < hi)
    got = normalize_frame(RawFrame(_ALL_SAMPLES), CalibrationRange(lo, hi)).pixels
    np.testing.assert_array_equal(got, _float_formula(_ALL_SAMPLES, lo, hi))


def test_normalize_takes_a_strided_frame():
    raw = RawFrame(_ALL_SAMPLES[::3, 1::2])
    got = normalize_frame(raw, CalibrationRange(-500.0, 700.0)).pixels
    np.testing.assert_array_equal(got, _float_formula(raw.pixels, -500.0, 700.0))


def test_triple_channels_stacks_copies():
    g = GrayFrame(_checker(4, 4))
    stacked = triple_channels(g)
    assert stacked.shape == (4, 4, 3)
    assert stacked.dtype == np.uint8
    for c in range(3):
        assert np.array_equal(stacked[:, :, c], g.pixels)


# -- flips


def test_flip_horizontal_moves_boxes():
    img = _checker(10, 20)
    out, moved = flip(img, np.array([[2.0, 3.0, 5.0, 4.0]]), axis="horizontal")
    assert np.array_equal(out, img[:, ::-1])
    assert moved.tolist() == [[13.0, 3.0, 5.0, 4.0]]  # 20 - 2 - 5


def test_flip_vertical_moves_boxes():
    img = _checker(10, 20)
    out, moved = flip(img, np.array([[2.0, 3.0, 5.0, 4.0]]), axis="vertical")
    assert np.array_equal(out, img[::-1, :])
    assert moved.tolist() == [[2.0, 3.0, 5.0, 4.0]]  # 10 - 3 - 4


def test_flip_rejects_unknown_axis():
    with pytest.raises(ThermalError):
        flip(_checker(), np.zeros((0, 4)), axis="diagonal")


@pytest.mark.parametrize(
    "boxes, message",
    [
        (np.zeros((2, 3)), r"^boxes must be an \(N, 4\) array, got shape \(2, 3\)$"),
        (np.array([[0.0, 0.0, -1.0, 1.0]]), "^box with negative extent$"),
    ],
    ids=["three-columns", "negative-extent"],
)
def test_flip_rejects_malformed_boxes(boxes, message):
    with pytest.raises(ThermalError, match=message):
        flip(_checker(), boxes, axis="horizontal")


def test_flip_rejects_box_outside_canvas():
    with pytest.raises(ThermalError, match="canvas"):
        flip(_checker(8, 6), np.array([[4.0, 0.0, 4.0, 2.0]]), axis="horizontal")


def test_flip_empty_boxes_pass_through():
    out, boxes = flip(_checker(), np.zeros((0, 4)), axis="vertical")
    assert boxes.shape == (0, 4)


@given(
    pixels=hnp.arrays(
        np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=4, max_side=12)
    ),
    x=st.floats(0, 2, allow_nan=False),
    y=st.floats(0, 2, allow_nan=False),
    w=st.floats(0.5, 2, allow_nan=False),
    h=st.floats(0.5, 2, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_flip_is_an_involution(pixels, x, y, w, h):
    boxes = np.array([[x, y, w, h]])
    for axis in ("horizontal", "vertical"):
        once_img, once_boxes = flip(pixels, boxes, axis=axis)
        twice_img, twice_boxes = flip(once_img, once_boxes, axis=axis)
        assert np.array_equal(twice_img, pixels)
        assert np.allclose(twice_boxes, boxes)


# -- rotation


def test_rotate_zero_is_exact_identity():
    img = _checker()
    boxes = np.array([[1.0, 1.0, 2.0, 3.0]])
    out, out_boxes = rotate(img, boxes, angle=720.0)
    assert np.array_equal(out, img)
    assert np.array_equal(out_boxes, boxes)


def test_rotate_180_equals_double_flip():
    img = _checker(9, 13)
    out, _ = rotate(img, np.zeros((0, 4)), angle=180.0)
    assert np.array_equal(out, np.flip(img, (0, 1)))


def test_rotate_90_square_matches_numpy():
    img = np.arange(25, dtype=np.uint8).reshape(5, 5)
    out, _ = rotate(img, np.zeros((0, 4)), angle=90.0)
    # positive angles turn content clockwise on screen (y axis points down)
    assert np.array_equal(out, np.rot90(img, k=-1))


def test_rotate_90_box_on_square_canvas():
    img = np.zeros((10, 10), dtype=np.uint8)
    _, boxes = rotate(img, np.array([[1.0, 2.0, 3.0, 4.0]]), angle=90.0)
    assert boxes.shape == (1, 4)
    # corner hull of the rotated rectangle
    assert boxes[0] == pytest.approx([4.0, 1.0, 4.0, 3.0])


def _reference_hull(box, angle, width, height):
    """One box's rotated, clipped hull, corner by corner, or None once it leaves the canvas."""
    theta = math.radians(angle % 360.0)
    cx, cy = width / 2.0, height / 2.0
    x, y, w, h = box
    xs, ys = [], []
    for px, py in ((x, y), (x + w, y), (x, y + h), (x + w, y + h)):
        px, py = px - cx, py - cy
        xs.append(math.cos(theta) * px - math.sin(theta) * py + cx)
        ys.append(math.sin(theta) * px + math.cos(theta) * py + cy)
    x1, x2 = max(min(xs), 0.0), min(max(xs), float(width))
    y1, y2 = max(min(ys), 0.0), min(max(ys), float(height))
    return None if x2 - x1 <= 0 or y2 - y1 <= 0 else [x1, y1, x2 - x1, y2 - y1]


@pytest.mark.parametrize("seed", range(20))
def test_rotate_boxes_equal_a_per_box_reference_hull(seed):
    rng = np.random.default_rng(seed)
    height, width = (int(v) for v in rng.integers(4, 60, 2))
    x, y = rng.uniform(0, width, 12), rng.uniform(0, height, 12)
    w, h = rng.uniform(0, 1, 12) * (width - x), rng.uniform(0, 1, 12) * (height - y)
    boxes = np.stack([x, y, w, h], axis=1)
    boxes[:4] = np.floor(boxes[:4])  # some boxes on the pixel grid
    angle = float(rng.choice([90.0, 180.0, 270.0, 45.0, rng.uniform(-720.0, 720.0)]))
    _, out = rotate(np.zeros((height, width), dtype=np.uint8), boxes, angle)
    want = [r for r in (_reference_hull(b, angle, width, height) for b in boxes.tolist()) if r]
    assert out.dtype == np.float64 and out.shape == (len(want), 4)
    assert out.tolist() == want


def test_rotate_drops_boxes_leaving_canvas():
    img = np.zeros((6, 40), dtype=np.uint8)
    _, boxes = rotate(img, np.array([[36.0, 2.0, 3.0, 2.0]]), angle=90.0)
    assert boxes.shape == (0, 4)


def test_rotate_fills_uncovered_pixels_with_zero():
    img = np.full((4, 12), 200, dtype=np.uint8)
    out, _ = rotate(img, np.zeros((0, 4)), angle=90.0)
    assert out.shape == (4, 12)
    assert (out == 0).any()
    assert (out == 200).any()


def test_rotate_three_channel_image():
    img = np.repeat(_checker(6, 6)[:, :, np.newaxis], 3, axis=2)
    out, _ = rotate(img, np.zeros((0, 4)), angle=180.0)
    assert out.shape == (6, 6, 3)
    assert np.array_equal(out, np.flip(img, (0, 1)))


# -- augmentation


def test_augment_all_probabilities_zero_is_identity():
    img = _checker()
    boxes = np.array([[0.0, 0.0, 2.0, 2.0]])
    policy = AugmentPolicy(p_hflip=0.0, p_vflip=0.0, p_rotate=0.0)
    out, out_boxes = augment_sample(img, boxes, policy=policy, rng_seed=123)
    assert np.array_equal(out, img)
    assert np.array_equal(out_boxes, boxes)


def test_augment_is_deterministic_per_seed():
    img = _checker(16, 16)
    boxes = np.array([[3.0, 3.0, 6.0, 5.0]])
    a = augment_sample(img, boxes, rng_seed=7)
    b = augment_sample(img, boxes, rng_seed=7)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_augment_certain_hflip_matches_manual_flip():
    img = _checker(8, 8)
    boxes = np.array([[1.0, 1.0, 3.0, 2.0]])
    policy = AugmentPolicy(p_hflip=1.0, p_vflip=0.0, p_rotate=0.0)
    out, out_boxes = augment_sample(img, boxes, policy=policy, rng_seed=0)
    want_img, want_boxes = flip(img, boxes, axis="horizontal")
    assert np.array_equal(out, want_img)
    assert np.array_equal(out_boxes, want_boxes)


def test_augment_checks_the_boxes_once(monkeypatch):
    img = _checker(12, 16)
    boxes = np.array([[3.0, 2.0, 6.0, 5.0], [0.0, 0.0, 16.0, 12.0]])
    seed = 5
    rng = np.random.default_rng(seed)
    rng.random(3)
    angle = rng.uniform(0.0, 360.0)
    want = rotate(*flip(*flip(img, boxes, "horizontal"), "vertical"), angle)
    calls = []
    check = thermal._checked_sample
    monkeypatch.setattr(
        thermal, "_checked_sample", lambda *args: calls.append(args) or check(*args)
    )
    policy = AugmentPolicy(1.0, 1.0, 1.0)
    out, out_boxes = augment_sample(img, boxes, policy=policy, rng_seed=seed)
    assert len(calls) == 1
    assert np.array_equal(out, want[0])
    assert np.array_equal(out_boxes, want[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("col", range(4))
def test_transforms_reject_a_non_finite_box_coordinate(col, bad):
    # a NaN passed every bound check, so it came back as a NaN box
    boxes = np.array([[1.0, 1.0, 2.0, 2.0], [0.0, 1.0, 2.0, 2.0]])
    boxes[1, col] = bad
    img, policy = _checker(), AugmentPolicy(1.0, 1.0, 1.0)
    for transform in (
        lambda: flip(img, boxes, "horizontal"),
        lambda: flip(img, boxes, "vertical"),
        lambda: rotate(img, boxes, 30.0),
        lambda: augment_sample(img, boxes, policy=policy, rng_seed=1),
    ):
        with pytest.raises(ThermalError, match="^box with a non-finite coordinate$"):
            transform()


def test_augment_policy_validates_probabilities():
    with pytest.raises(ThermalError):
        AugmentPolicy(p_hflip=1.2)


@pytest.mark.parametrize("field", ["p_hflip", "p_vflip", "p_rotate"])
@pytest.mark.parametrize("value", [True, False, "0.5", None])
def test_augment_policy_rejects_a_probability_that_is_not_a_number(field, value):
    # True was read as 1, and text raised a bare TypeError
    message = f"{field} must be a number, got {value!r}"
    with pytest.raises(ThermalError, match=f"^{re.escape(message)}$"):
        AugmentPolicy(**{field: value})


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be non-negative, got -1"),  # numpy's refusal named no seed
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ],
)
def test_augment_rejects_a_seed_that_is_not_a_non_negative_integer(seed, message):
    with pytest.raises(ThermalError, match=f"^{re.escape(message)}$"):
        augment_sample(_checker(), np.zeros((0, 4)), rng_seed=seed)


@pytest.mark.parametrize("shape", [(8,), (2, 8, 8, 3)])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_augment_rejects_an_image_that_is_not_2d_or_3d(shape, p):
    # whatever transforms the seed draws, the rank is checked first
    img = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ThermalError, match=r"image must be 2-d or 3-d, got shape"):
        augment_sample(img, np.zeros((0, 4)), policy=AugmentPolicy(p, p, p), rng_seed=3)


@pytest.mark.parametrize("shape", [(8,), (2, 8, 8, 3)])
def test_flip_and_rotate_reject_an_image_that_is_not_2d_or_3d(shape):
    img = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ThermalError, match=r"image must be 2-d or 3-d"):
        flip(img, np.zeros((0, 4)), axis="horizontal")
    with pytest.raises(ThermalError, match=r"image must be 2-d or 3-d"):
        rotate(img, np.zeros((0, 4)), angle=90.0)


# -- raw container


def test_raw_round_trip(tmp_path):
    path = tmp_path / "frame.raw"
    frame = _raw(np.arange(-6, 6).reshape(3, 4))
    with open(path, "wb") as fp:
        write_raw(frame, fp)
    with open(path, "rb") as fp:
        back = read_raw(fp)
    assert back == frame
    assert back.pixels.dtype == np.int16


def test_raw_header_layout():
    buf = io.BytesIO()
    write_raw(_raw([[1, 2], [3, 4]]), buf)
    blob = buf.getvalue()
    magic, width, height, reserved = struct.unpack("<4sIII", blob[:16])
    assert magic == RAW_MAGIC
    assert (width, height, reserved) == (2, 2, 0)
    assert len(blob) == 16 + 2 * 2 * 2
    assert blob[16:20] == struct.pack("<hh", 1, 2)  # little-endian samples


def test_raw_rejects_bad_magic():
    buf = io.BytesIO()
    write_raw(_raw([[1]]), buf)
    blob = bytearray(buf.getvalue())
    blob[:4] = b"JUNK"
    with pytest.raises(ThermalError, match="magic"):
        read_raw(io.BytesIO(bytes(blob)))


def test_raw_rejects_truncated_header():
    with pytest.raises(ThermalError, match="truncated"):
        read_raw(io.BytesIO(b"THRM\x01"))


def test_raw_rejects_a_zero_dimension():
    blob = struct.pack("<4sIII", RAW_MAGIC, 0, 2, 0)
    with pytest.raises(ThermalError, match="^raw frame with zero dimension 0x2$"):
        read_raw(io.BytesIO(blob))


def test_raw_rejects_short_payload():
    buf = io.BytesIO()
    write_raw(_raw([[1, 2], [3, 4]]), buf)
    with pytest.raises(ThermalError, match="expected"):
        read_raw(io.BytesIO(buf.getvalue()[:-3]))


def test_raw_rejects_trailing_bytes():
    buf = io.BytesIO()
    write_raw(_raw([[1, 2]]), buf)
    with pytest.raises(ThermalError, match="trailing"):
        read_raw(io.BytesIO(buf.getvalue() + b"\x00"))


class _ReadSizes(io.BytesIO):
    """A byte stream that records the size asked of each read."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self.sizes: list[int | None] = []

    def read(self, size: int | None = -1) -> bytes:
        self.sizes.append(size)
        return super().read(size)


@pytest.mark.parametrize("side", [60000, 2**32 - 1])
def test_raw_header_larger_than_the_file_fails_without_a_large_read(side):
    fp = _ReadSizes(struct.pack("<4sIII", RAW_MAGIC, side, side, 0) + bytes(8))
    with pytest.raises(ThermalError, match=f"^raw payload holds 8 bytes, expected {2 * side**2}$"):
        read_raw(fp)
    assert max(fp.sizes) <= 16


# -- pgm container


def test_pgm_round_trip():
    img = GrayFrame(_checker(5, 7))
    buf = io.BytesIO()
    write_pgm(img, buf)
    assert read_pgm(io.BytesIO(buf.getvalue())) == img


def test_pgm_golden_bytes():
    buf = io.BytesIO()
    write_pgm(GrayFrame(np.array([[0, 128], [255, 1]], dtype=np.uint8)), buf)
    assert buf.getvalue() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 1])


def test_pgm_reader_skips_comments():
    blob = b"P5\n# made by hand\n2 1\n# another\n255\n" + bytes([9, 250])
    assert read_pgm(io.BytesIO(blob)).pixels.tolist() == [[9, 250]]


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(ThermalError, match="maxval"):
        read_pgm(io.BytesIO(b"P5\n1 1\n65535\n\x00\x00"))


def test_pgm_rejects_wrong_magic():
    with pytest.raises(ThermalError, match="magic"):
        read_pgm(io.BytesIO(b"P2\n1 1\n255\n0"))


def test_pgm_rejects_truncated_payload():
    with pytest.raises(ThermalError, match="truncated"):
        read_pgm(io.BytesIO(b"P5\n2 2\n255\n\x00"))


@pytest.mark.parametrize(
    "blob, message",
    [
        # the header lexer's own error was once reported as a non-numeric field
        (b"P5\n2 2", "truncated PGM header"),
        (b"P5\n2 2\n255", "truncated PGM header"),
        (b"P5\n2 2\n# no LF ends this comment", "truncated PGM header"),
        (b"P5\nx 1\n255\n\x00", "non-numeric PGM header field"),
        # netpbm fields are ASCII decimal digits; Python's int() reads more
        (b"P5\n1_2 +1\n0255\n" + bytes(12), "non-numeric PGM header field"),
        (b"P5\n-1 1\n255\n", "non-numeric PGM header field"),
        (b"P5\n1 \x0b1\n255\n\x00", "non-numeric PGM header field"),
        (b"P5\n0 1\n255\n", "bad PGM dimensions 0x1"),
    ],
    ids=[
        "cut-in-height",
        "cut-after-maxval",
        "cut-in-comment",
        "non-numeric",
        "underscore-and-plus",
        "minus",
        "vertical-tab",
        "zero-width",
    ],
)
def test_pgm_rejects_a_malformed_header(blob, message):
    with pytest.raises(ThermalError, match=f"^{message}$"):
        read_pgm(io.BytesIO(blob))


def test_pgm_comment_may_sit_inside_a_field():
    # netpbm: a comment runs through its LF, wherever it starts in the header;
    # a field may start with zeros
    frame = read_pgm(io.BytesIO(b"P5\n01#c\n2 01\n0255\n" + bytes(range(12))))
    assert frame.pixels.tolist() == [list(range(12))]


_PGM_SPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n"])
_PGM_COMMENT = st.binary(max_size=6).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
_PGM_PIECES = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT), max_size=2).map(b"".join)
# a separator holds a whitespace byte at least; comments alone would join two fields
_PGM_SEPARATOR = st.tuples(_PGM_PIECES, _PGM_SPACE, _PGM_PIECES).map(b"".join)


@st.composite
def _pgm_field(draw, value: int) -> bytes:
    digits = str(value).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(digits)))
        digits = digits[:at] + draw(_PGM_COMMENT) + digits[at:]
    return digits


@settings(max_examples=200, deadline=None)
@given(
    pixels=hnp.arrays(np.uint8, st.tuples(st.integers(1, 4), st.integers(1, 4))),
    data=st.data(),
)
def test_pgm_reader_reads_any_header_netpbm_allows(pixels, data):
    height, width = pixels.shape
    fields = (data.draw(_PGM_SEPARATOR) + data.draw(_pgm_field(v)) for v in (width, height, 255))
    blob = b"P5" + b"".join(fields) + data.draw(_PGM_SPACE) + pixels.tobytes()
    assert read_pgm(io.BytesIO(blob)) == GrayFrame(pixels)


def _raw_bytes() -> bytes:
    buf = io.BytesIO()
    write_raw(_raw([[7]]), buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "read, blob, fmt",
    [(read_raw, _raw_bytes(), "raw"), (read_pgm, b"P5\n1 1\n255\n\x07", "PGM")],
    ids=["raw", "pgm"],
)
def test_readers_reject_trailing_bytes(read, blob, fmt):
    # one file holds one frame: both readers end at the payload's last byte
    assert read(io.BytesIO(blob)).pixels.tolist() == [[7]]
    with pytest.raises(ThermalError, match=f"^trailing bytes after {fmt} payload$"):
        read(io.BytesIO(blob + b"garbage"))


@pytest.mark.parametrize("width", [60000, 10**30])
def test_pgm_header_larger_than_the_file_fails_without_a_large_read(width):
    fp = _ReadSizes(b"P5\n%d 60000\n255\n" % width + bytes(4))
    with pytest.raises(ThermalError, match="^truncated PGM payload$"):
        read_pgm(fp)
    assert max(fp.sizes) <= 2
