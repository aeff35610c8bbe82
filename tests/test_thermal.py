from __future__ import annotations

import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    ],
)
def test_calibration_requires_finite_range(lo, hi):
    with pytest.raises(ThermalError):
        CalibrationRange(lo=lo, hi=hi)


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


def test_augment_policy_validates_probabilities():
    with pytest.raises(ThermalError):
        AugmentPolicy(p_hflip=1.2)


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
